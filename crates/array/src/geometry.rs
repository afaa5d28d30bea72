//! Array geometry: rows, columns, dummy rows, interleaving.

/// Physical organisation of one SRAM macro.
///
/// # Examples
///
/// ```
/// use bpimc_array::ArrayGeometry;
/// let g = ArrayGeometry::paper_macro();
/// assert_eq!((g.rows, g.cols, g.dummy_rows), (128, 128, 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayGeometry {
    /// Main-array rows (word-lines).
    pub rows: usize,
    /// Columns (bit-line pairs).
    pub cols: usize,
    /// Dummy rows used for iterative operations (the paper uses 3).
    pub dummy_rows: usize,
    /// Column-interleave factor of the peripheral units (the paper's column
    /// peripherals are 4:1 interleaved).
    pub interleave: usize,
}

impl ArrayGeometry {
    /// The paper's 128 x 128 macro with 3 dummy rows and 4:1 interleaving.
    pub fn paper_macro() -> Self {
        Self {
            rows: 128,
            cols: 128,
            dummy_rows: 3,
            interleave: 4,
        }
    }

    /// A macro with a different column count (used by the Fig. 9 BL-size
    /// sweep), keeping the paper's other parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero.
    pub fn with_cols(cols: usize) -> Self {
        assert!(cols > 0, "cols must be positive");
        Self {
            cols,
            ..Self::paper_macro()
        }
    }

    /// Storage capacity of the main array in bits.
    pub(crate) fn capacity_bits(&self) -> usize {
        self.rows * self.cols
    }

    /// Storage capacity in bytes (rounded down).
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bits() / 8
    }

    /// Number of peripheral units after interleaving.
    pub fn peripheral_units(&self) -> usize {
        self.cols.div_ceil(self.interleave.max(1))
    }
}

impl Default for ArrayGeometry {
    fn default() -> Self {
        Self::paper_macro()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_macro_capacity() {
        let g = ArrayGeometry::paper_macro();
        assert_eq!(g.capacity_bits(), 16384);
        assert_eq!(g.capacity_bytes(), 2048); // 2 KB per macro; 4 banks x 16 macros = 128 KB chip
        assert_eq!(g.peripheral_units(), 32);
    }

    #[test]
    fn with_cols_keeps_other_fields() {
        let g = ArrayGeometry::with_cols(1024);
        assert_eq!(g.cols, 1024);
        assert_eq!(g.rows, 128);
        assert_eq!(g.dummy_rows, 3);
    }
}
