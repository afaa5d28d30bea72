//! Row addressing across the main and dummy arrays.

use std::fmt;

/// Address of one word-line, either in the main array or the dummy array.
///
/// The dummy rows are physically part of the same columns (they share
/// bit-lines with the main array, below the BL separator) but are addressed
/// separately because iterative operations cycle data through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowAddr {
    /// Main-array row index.
    Main(usize),
    /// Dummy-array row index (0-based; the paper has 3 dummy rows).
    Dummy(usize),
}

impl RowAddr {
    /// True if this is a dummy-array row.
    pub fn is_dummy(&self) -> bool {
        matches!(self, RowAddr::Dummy(_))
    }
}

impl fmt::Display for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowAddr::Main(i) => write!(f, "main[{i}]"),
            RowAddr::Dummy(i) => write!(f, "dummy[{i}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert!(RowAddr::Dummy(1).is_dummy());
        assert!(!RowAddr::Main(0).is_dummy());
        assert_eq!(RowAddr::Dummy(2).to_string(), "dummy[2]");
    }
}
