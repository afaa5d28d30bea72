//! Reconfigurable bit-precision.
//!
//! The carry-propagation chain is cut at word boundaries by the
//! reconfiguration muxes (the paper's MX3 / "Reconfig. Ctrl."). A precision
//! of `P` partitions the row into independent `P`-bit lanes; the paper
//! implements 2/4/8-bit and notes 16/32-bit follow the same construction,
//! so all five are supported here.

use std::fmt;

/// Operating word width of the reconfigurable datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// 2-bit words (the base precision unit).
    P2,
    /// 4-bit words.
    P4,
    /// 8-bit words (the paper's headline configuration).
    P8,
    /// 16-bit words (extension, same construction).
    P16,
    /// 32-bit words (extension, same construction).
    P32,
}

impl Precision {
    /// All supported precisions, narrowest first.
    pub const ALL: [Precision; 5] = [
        Precision::P2,
        Precision::P4,
        Precision::P8,
        Precision::P16,
        Precision::P32,
    ];

    /// The word width in bits.
    pub fn bits(&self) -> usize {
        match self {
            Precision::P2 => 2,
            Precision::P4 => 4,
            Precision::P8 => 8,
            Precision::P16 => 16,
            Precision::P32 => 32,
        }
    }

    /// The precision for a bit count.
    ///
    /// # Errors
    ///
    /// Returns the offending value when it is not one of 2/4/8/16/32.
    pub fn try_from_bits(bits: usize) -> Result<Self, UnsupportedPrecision> {
        match bits {
            2 => Ok(Precision::P2),
            4 => Ok(Precision::P4),
            8 => Ok(Precision::P8),
            16 => Ok(Precision::P16),
            32 => Ok(Precision::P32),
            other => Err(UnsupportedPrecision(other)),
        }
    }

    /// Number of whole `P`-bit lanes in a row of `cols` columns.
    pub fn lanes(&self, cols: usize) -> usize {
        cols / self.bits()
    }

    /// Number of whole *product* lanes (each `2P` wide, per Fig. 6 the
    /// product of a `P`-bit multiply spans two adjacent precision units).
    pub fn product_lanes(&self, cols: usize) -> usize {
        cols / (2 * self.bits())
    }

    /// The maximum value a word of this precision can hold.
    pub fn max_value(&self) -> u64 {
        (1u64 << self.bits()) - 1
    }

    /// Bit mask of a word of this precision.
    pub fn mask(&self) -> u64 {
        self.max_value()
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

/// Error for unsupported precision widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedPrecision(pub usize);

impl fmt::Display for UnsupportedPrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unsupported precision {} (expected 2, 4, 8, 16 or 32)",
            self.0
        )
    }
}

impl std::error::Error for UnsupportedPrecision {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        for p in Precision::ALL {
            assert_eq!(Precision::try_from_bits(p.bits()).unwrap(), p);
        }
        assert_eq!(Precision::try_from_bits(3), Err(UnsupportedPrecision(3)));
    }

    #[test]
    fn lane_counts_on_the_paper_macro() {
        assert_eq!(Precision::P8.lanes(128), 16);
        assert_eq!(Precision::P8.product_lanes(128), 8);
        assert_eq!(Precision::P2.lanes(128), 64);
        assert_eq!(Precision::P32.lanes(128), 4);
    }

    #[test]
    fn masks() {
        assert_eq!(Precision::P2.mask(), 0b11);
        assert_eq!(Precision::P8.mask(), 0xFF);
        assert_eq!(Precision::P32.max_value(), u32::MAX as u64);
    }
}
