//! Macro configuration.

use bpimc_array::ArrayGeometry;

/// Configuration of one in-memory-computing macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacroConfig {
    /// Array geometry (rows, columns, dummy rows, interleave).
    pub geometry: ArrayGeometry,
    /// Whether the BL separator feature is active (shields dummy-row
    /// write-backs from the main bit-line capacitance).
    pub(crate) separator_enabled: bool,
}

impl MacroConfig {
    /// The paper's macro: 128 x 128, 3 dummy rows, separator on.
    pub fn paper_macro() -> Self {
        Self {
            geometry: ArrayGeometry::paper_macro(),
            separator_enabled: true,
        }
    }

    /// A macro with a custom column count (the Fig. 9 BL-size sweep).
    pub fn with_cols(cols: usize) -> Self {
        Self {
            geometry: ArrayGeometry::with_cols(cols),
            ..Self::paper_macro()
        }
    }

    /// Returns a copy with the separator feature set.
    pub fn with_separator(mut self, enabled: bool) -> Self {
        self.separator_enabled = enabled;
        self
    }
}

impl Default for MacroConfig {
    fn default() -> Self {
        Self::paper_macro()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_chip_is_128_kb() {
        // The paper's chip is 4 banks of 16 macros.
        let macro_bytes = MacroConfig::paper_macro().geometry.capacity_bytes();
        assert_eq!(64 * macro_bytes, 128 * 1024);
    }

    #[test]
    fn builders() {
        let c = MacroConfig::with_cols(256).with_separator(false);
        assert_eq!(c.geometry.cols, 256);
        assert!(!c.separator_enabled);
    }
}
