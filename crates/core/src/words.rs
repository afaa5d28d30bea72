//! Word packing into rows.
//!
//! Two layouts exist, both straight from the paper's Fig. 6:
//!
//! * **dense lanes** for logic/ADD/SUB: word `j` occupies columns
//!   `[j*P, (j+1)*P)`, LSB at the lowest column;
//! * **product lanes** for MULT: the product of a `P`-bit multiply spans two
//!   adjacent precision units (`2P` columns), so the operands sit in the low
//!   `P` bits of each `2P`-wide lane and the product fills the lane.

use crate::error::Error;
use bpimc_array::BitRow;
use bpimc_periph::Precision;

/// Packs `words` into dense `P`-bit lanes of a `cols`-wide row.
///
/// # Errors
///
/// Returns [`Error::TooManyWords`] when the row has too few lanes and
/// [`Error::WordTooWide`] when a value exceeds the precision.
pub(crate) fn pack_words(
    words: &[u64],
    precision: Precision,
    cols: usize,
) -> Result<BitRow, Error> {
    let bits = precision.bits();
    let lanes = precision.lanes(cols);
    if words.len() > lanes {
        return Err(Error::TooManyWords {
            requested: words.len(),
            available: lanes,
        });
    }
    let mut row = BitRow::zeros(cols);
    for (j, &w) in words.iter().enumerate() {
        if w > precision.max_value() {
            return Err(Error::WordTooWide { value: w, bits });
        }
        row.set_field(j * bits, bits, w);
    }
    Ok(row)
}

/// Unpacks the first `n` dense lanes of a row.
///
/// # Errors
///
/// Returns [`Error::TooManyWords`] when `n` exceeds the lane count.
pub(crate) fn unpack_words(
    row: &BitRow,
    precision: Precision,
    n: usize,
) -> Result<Vec<u64>, Error> {
    let bits = precision.bits();
    let lanes = precision.lanes(row.width());
    if n > lanes {
        return Err(Error::TooManyWords {
            requested: n,
            available: lanes,
        });
    }
    Ok((0..n).map(|j| row.get_field(j * bits, bits)).collect())
}

/// Packs multiplication operands into the low `P` bits of `2P`-wide product
/// lanes.
///
/// # Errors
///
/// Same conditions as [`pack_words`], with lane count halved.
pub(crate) fn pack_mult_operands(
    words: &[u64],
    precision: Precision,
    cols: usize,
) -> Result<BitRow, Error> {
    let bits = precision.bits();
    let lanes = precision.product_lanes(cols);
    if words.len() > lanes {
        return Err(Error::TooManyWords {
            requested: words.len(),
            available: lanes,
        });
    }
    let mut row = BitRow::zeros(cols);
    for (j, &w) in words.iter().enumerate() {
        if w > precision.max_value() {
            return Err(Error::WordTooWide { value: w, bits });
        }
        row.set_field(j * 2 * bits, bits, w);
    }
    Ok(row)
}

/// Unpacks the first `n` products (each `2P` bits wide) from a row.
///
/// # Errors
///
/// Returns [`Error::TooManyWords`] when `n` exceeds the product lane count.
pub(crate) fn unpack_products(
    row: &BitRow,
    precision: Precision,
    n: usize,
) -> Result<Vec<u64>, Error> {
    let bits = precision.bits();
    let lanes = precision.product_lanes(row.width());
    if n > lanes {
        return Err(Error::TooManyWords {
            requested: n,
            available: lanes,
        });
    }
    Ok((0..n)
        .map(|j| row.get_field(j * 2 * bits, 2 * bits))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trip() {
        let words = vec![1, 2, 250, 0, 255];
        let row = pack_words(&words, Precision::P8, 128).unwrap();
        assert_eq!(unpack_words(&row, Precision::P8, 5).unwrap(), words);
        // Unwritten lanes read zero.
        assert_eq!(unpack_words(&row, Precision::P8, 16).unwrap()[10], 0);
    }

    #[test]
    fn product_lane_round_trip() {
        let ops = vec![3, 15, 9];
        let row = pack_mult_operands(&ops, Precision::P4, 128).unwrap();
        // Operand j sits at column 8*j.
        assert_eq!(row.get_field(0, 4), 3);
        assert_eq!(row.get_field(8, 4), 15);
        assert_eq!(row.get_field(16, 4), 9);
        // Upper half of each product lane is clear.
        assert_eq!(row.get_field(4, 4), 0);
    }

    #[test]
    fn capacity_errors() {
        assert!(matches!(
            pack_words(&[0; 17], Precision::P8, 128),
            Err(Error::TooManyWords {
                requested: 17,
                available: 16
            })
        ));
        assert!(matches!(
            pack_mult_operands(&[0; 9], Precision::P8, 128),
            Err(Error::TooManyWords { available: 8, .. })
        ));
        let row = BitRow::zeros(128);
        assert!(unpack_words(&row, Precision::P2, 65).is_err());
        assert!(unpack_products(&row, Precision::P2, 33).is_err());
    }

    #[test]
    fn width_errors() {
        assert!(matches!(
            pack_words(&[256], Precision::P8, 128),
            Err(Error::WordTooWide {
                value: 256,
                bits: 8
            })
        ));
        assert!(matches!(
            pack_mult_operands(&[4], Precision::P2, 128),
            Err(Error::WordTooWide { .. })
        ));
    }
}
