//! The functional SRAM array: storage plus the two compute read modes.

use crate::addr::RowAddr;
use crate::bits::BitRow;
use crate::error::ArrayError;
use crate::geometry::ArrayGeometry;

/// Result of a dual-WL bit-line compute access.
///
/// The single-ended sense amplifiers deliver, per column, `A AND B` (sensed
/// on BLT) and `NOR(A, B)` (sensed on BLB). Every other two-input function
/// is derived from these in the column peripherals.
#[derive(Debug, Clone, PartialEq)]
pub struct DualReadout {
    /// Per-column `A AND B`.
    pub and: BitRow,
    /// Per-column `NOR(A, B)` = `~A AND ~B`.
    pub nor: BitRow,
}

impl DualReadout {
    /// Per-column XOR, reconstructed the way the FA-Logics block does it:
    /// `A XOR B = ~(A AND B) AND ~(NOR(A, B))`.
    pub fn xor(&self) -> BitRow {
        &!&self.and & &!&self.nor
    }

    /// Per-column OR (`~NOR`).
    pub fn or(&self) -> BitRow {
        !&self.nor
    }
}

/// Result of a single-WL access: the stored row and its complement, exactly
/// what the single-ended SA pair provides.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleReadout {
    /// The stored row `A`.
    pub a: BitRow,
    /// Its complement `~A`.
    pub not_a: BitRow,
}

/// The functional SRAM array: main rows plus dummy rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SramArray {
    geometry: ArrayGeometry,
    main: Vec<BitRow>,
    dummy: Vec<BitRow>,
}

impl SramArray {
    /// An all-zero array with the given geometry.
    pub fn new(geometry: ArrayGeometry) -> Self {
        let main = (0..geometry.rows)
            .map(|_| BitRow::zeros(geometry.cols))
            .collect();
        let dummy = (0..geometry.dummy_rows)
            .map(|_| BitRow::zeros(geometry.cols))
            .collect();
        Self {
            geometry,
            main,
            dummy,
        }
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> &ArrayGeometry {
        &self.geometry
    }

    fn row(&self, addr: RowAddr) -> Result<&BitRow, ArrayError> {
        match addr {
            RowAddr::Main(i) => self.main.get(i).ok_or(ArrayError::RowOutOfRange {
                addr,
                available: self.geometry.rows,
            }),
            RowAddr::Dummy(i) => self.dummy.get(i).ok_or(ArrayError::RowOutOfRange {
                addr,
                available: self.geometry.dummy_rows,
            }),
        }
    }

    fn row_mut(&mut self, addr: RowAddr) -> Result<&mut BitRow, ArrayError> {
        let (rows, dummy_rows) = (self.geometry.rows, self.geometry.dummy_rows);
        match addr {
            RowAddr::Main(i) => self.main.get_mut(i).ok_or(ArrayError::RowOutOfRange {
                addr,
                available: rows,
            }),
            RowAddr::Dummy(i) => self.dummy.get_mut(i).ok_or(ArrayError::RowOutOfRange {
                addr,
                available: dummy_rows,
            }),
        }
    }

    /// Reads a row verbatim (a normal memory read).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::RowOutOfRange`] for an invalid address.
    pub fn read(&self, addr: RowAddr) -> Result<BitRow, ArrayError> {
        self.row(addr).cloned()
    }

    /// Writes a row verbatim (a normal memory write).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::RowOutOfRange`] or [`ArrayError::WidthMismatch`].
    pub fn write(&mut self, addr: RowAddr, value: &BitRow) -> Result<(), ArrayError> {
        if value.width() != self.geometry.cols {
            return Err(ArrayError::WidthMismatch {
                got: value.width(),
                want: self.geometry.cols,
            });
        }
        *self.row_mut(addr)? = value.clone();
        Ok(())
    }

    /// Dual word-line compute access: activates `a` and `b` simultaneously
    /// and returns the per-column SA outputs.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::SameRowTwice`] if `a == b`, or
    /// [`ArrayError::RowOutOfRange`].
    pub fn bl_compute(&self, a: RowAddr, b: RowAddr) -> Result<DualReadout, ArrayError> {
        let (ra, rb) = self.dual_rows(a, b)?;
        Ok(DualReadout {
            and: ra & rb,
            nor: BitRow::nor_of(ra, rb),
        })
    }

    /// The two rows a dual word-line access activates, borrowed, for
    /// column peripherals that compute straight from the stored operands.
    /// Checks exactly what [`SramArray::bl_compute`] checks, in the same
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::SameRowTwice`] if `a == b`, or
    /// [`ArrayError::RowOutOfRange`] for `a`, then for `b`.
    pub fn dual_rows(&self, a: RowAddr, b: RowAddr) -> Result<(&BitRow, &BitRow), ArrayError> {
        if a == b {
            return Err(ArrayError::SameRowTwice(a));
        }
        Ok((self.row(a)?, self.row(b)?))
    }

    /// Single word-line access: returns `A` and `~A` (the SA pair outputs).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::RowOutOfRange`].
    pub fn single_read(&self, a: RowAddr) -> Result<SingleReadout, ArrayError> {
        let ra = self.row(a)?;
        Ok(SingleReadout {
            a: ra.clone(),
            not_a: !ra,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_array() -> SramArray {
        SramArray::new(ArrayGeometry {
            rows: 8,
            cols: 16,
            dummy_rows: 3,
            interleave: 4,
        })
    }

    #[test]
    fn write_read_round_trip_main_and_dummy() {
        let mut arr = small_array();
        let v = BitRow::from_u64(16, 0xBEEF);
        arr.write(RowAddr::Main(3), &v).unwrap();
        arr.write(RowAddr::Dummy(2), &v).unwrap();
        assert_eq!(arr.read(RowAddr::Main(3)).unwrap(), v);
        assert_eq!(arr.read(RowAddr::Dummy(2)).unwrap(), v);
        // Other rows untouched.
        assert_eq!(arr.read(RowAddr::Main(0)).unwrap().count_ones(), 0);
    }

    #[test]
    fn bl_compute_is_and_and_nor() {
        let mut arr = small_array();
        arr.write(RowAddr::Main(0), &BitRow::from_u64(16, 0b1100))
            .unwrap();
        arr.write(RowAddr::Main(1), &BitRow::from_u64(16, 0b1010))
            .unwrap();
        let out = arr.bl_compute(RowAddr::Main(0), RowAddr::Main(1)).unwrap();
        assert_eq!(out.and.get_field(0, 4), 0b1000);
        assert_eq!(out.nor.get_field(0, 4), 0b0001);
        assert_eq!(out.xor().get_field(0, 4), 0b0110);
        assert_eq!(out.or().get_field(0, 4), 0b1110);
        let (a, b) = arr.dual_rows(RowAddr::Main(0), RowAddr::Main(1)).unwrap();
        assert_eq!((a.get_field(0, 4), b.get_field(0, 4)), (0b1100, 0b1010));
    }

    #[test]
    fn compute_between_main_and_dummy_rows_works() {
        let mut arr = small_array();
        arr.write(RowAddr::Main(0), &BitRow::from_u64(16, 0xF0))
            .unwrap();
        arr.write(RowAddr::Dummy(0), &BitRow::from_u64(16, 0x3C))
            .unwrap();
        let out = arr.bl_compute(RowAddr::Main(0), RowAddr::Dummy(0)).unwrap();
        assert_eq!(out.and.get_field(0, 8), 0x30);
    }

    #[test]
    fn single_read_gives_complement() {
        let mut arr = small_array();
        arr.write(RowAddr::Main(2), &BitRow::from_u64(16, 0x00FF))
            .unwrap();
        let out = arr.single_read(RowAddr::Main(2)).unwrap();
        assert_eq!(out.a.get_field(0, 16), 0x00FF);
        assert_eq!(out.not_a.get_field(0, 16), 0xFF00);
    }

    #[test]
    fn errors_are_reported() {
        let mut arr = small_array();
        assert!(matches!(
            arr.read(RowAddr::Main(8)),
            Err(ArrayError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            arr.read(RowAddr::Dummy(3)),
            Err(ArrayError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            arr.write(RowAddr::Main(0), &BitRow::zeros(8)),
            Err(ArrayError::WidthMismatch { .. })
        ));
        assert!(matches!(
            arr.bl_compute(RowAddr::Main(1), RowAddr::Main(1)),
            Err(ArrayError::SameRowTwice(_))
        ));
        // One row twice is reported before either row's range, then `a`'s
        // range before `b`'s.
        assert!(matches!(
            arr.dual_rows(RowAddr::Main(9), RowAddr::Main(9)),
            Err(ArrayError::SameRowTwice(RowAddr::Main(9)))
        ));
        assert!(matches!(
            arr.dual_rows(RowAddr::Main(8), RowAddr::Dummy(3)),
            Err(ArrayError::RowOutOfRange {
                addr: RowAddr::Main(8),
                ..
            })
        ));
        assert!(matches!(
            arr.dual_rows(RowAddr::Main(0), RowAddr::Dummy(3)),
            Err(ArrayError::RowOutOfRange {
                addr: RowAddr::Dummy(3),
                ..
            })
        ));
    }

    proptest! {
        /// The SA outputs always satisfy the Boolean identities regardless of
        /// stored data: AND & NOR are disjoint, and AND | XOR | NOR = all.
        #[test]
        fn readout_identities(a in any::<u16>(), b in any::<u16>()) {
            let mut arr = small_array();
            arr.write(RowAddr::Main(0), &BitRow::from_u64(16, a as u64)).unwrap();
            arr.write(RowAddr::Main(1), &BitRow::from_u64(16, b as u64)).unwrap();
            let out = arr.bl_compute(RowAddr::Main(0), RowAddr::Main(1)).unwrap();
            let and = out.and.get_field(0, 16) as u16;
            let nor = out.nor.get_field(0, 16) as u16;
            let xor = out.xor().get_field(0, 16) as u16;
            prop_assert_eq!(and, a & b);
            prop_assert_eq!(nor, !(a | b));
            prop_assert_eq!(xor, a ^ b);
            prop_assert_eq!(and & nor, 0);
            prop_assert_eq!(and | xor | nor, u16::MAX);
        }
    }
}
