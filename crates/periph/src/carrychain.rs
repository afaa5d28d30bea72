//! The row-wide composition of Y-paths with reconfigurable segmentation.
//!
//! A [`CarryChain`] slices the row into independent word lanes (the MX3
//! reconfiguration muxes of Fig. 6 block carry/shift propagation across lane
//! boundaries) and evaluates whole-row operations — exactly what the
//! hardware's transmission-gate carry path does in one cycle.
//!
//! Two implementations coexist:
//!
//! * the **limb-parallel engine** (the default): the add and multiply-step
//!   operations take the two activated rows straight from the array and
//!   evaluate the cycle's write-back row in one pass over their `u64`
//!   limbs via [`LaneMasks`] (add-and-shift takes a second pass for the
//!   shift), so one host instruction covers 64 columns, mirroring the
//!   hardware's bit-parallelism. Rows up to [`BitRow::INLINE_COLS`]
//!   columns need no heap allocation;
//! * the **structural reference** ([`CarryChain::add_bitwise`],
//!   [`CarryChain::mult_step_bitwise`], …): the original column-by-column
//!   ripple through [`YPath`] slices, taking the same inputs. It is kept as
//!   the ground truth the property tests compare the engine against
//!   bit-for-bit.
//!
//! Both compute the same function; only host time differs. Simulated cycle
//! counts are decided by the macro executor, not by either code path.

use crate::precision::Precision;
use crate::ypath::{ColumnInputs, WriteBackSel, YPath};
use bpimc_array::{BitRow, LaneMasks};

/// A carry chain configured for a row width and a lane (segment) width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarryChain {
    masks: LaneMasks,
}

impl CarryChain {
    /// A chain over `cols` columns with lanes of `precision` width.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero.
    pub fn new(cols: usize, precision: Precision) -> Self {
        Self::with_segment_bits(cols, precision.bits())
    }

    /// A chain with an explicit segment width. Multiplication configures
    /// `2 * P` (the product spans two precision units, Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `segment_bits` is zero.
    pub fn with_segment_bits(cols: usize, segment_bits: usize) -> Self {
        Self {
            masks: LaneMasks::new(cols, segment_bits),
        }
    }

    /// Row width in columns.
    pub fn cols(&self) -> usize {
        self.masks.cols()
    }

    /// Lane width in bits.
    pub fn segment_bits(&self) -> usize {
        self.masks.segment_bits()
    }

    /// Number of whole lanes (leftover columns at the top are idle).
    pub fn lane_count(&self) -> usize {
        self.masks.lane_count()
    }

    /// Column range of lane `lane`.
    fn lane_range(&self, lane: usize) -> std::ops::Range<usize> {
        let lo = lane * self.segment_bits();
        lo..lo + self.segment_bits()
    }

    /// Row-wide `A + B` (+ `carry_in` into every lane's LSB — `true` is the
    /// two's-complement `+1` used by SUB) of the two activated rows.
    /// Limb-parallel, one pass.
    pub fn add(&self, a: &BitRow, b: &BitRow, carry_in: bool) -> BitRow {
        self.masks.lane_add(a, b, carry_in).0
    }

    /// Row-wide add-and-shift: per lane, `(A + B) << 1` written in a single
    /// cycle (each column writes back its right neighbour's sum; the lane
    /// LSB receives zero). Limb-parallel.
    pub fn add_shift(&self, a: &BitRow, b: &BitRow) -> BitRow {
        self.shift_row(&self.add(a, b, false))
    }

    /// Per-lane logical left shift by one of raw row data (the single-WL
    /// shift operation). Limb-parallel.
    pub fn shift_row(&self, data: &BitRow) -> BitRow {
        self.check_width(data.width());
        self.masks.lane_shl1(data)
    }

    /// One multiplication step over the activated accumulator and
    /// multiplicand rows: per lane, writes `(acc + multiplicand) << 1` when
    /// the lane's multiplier FF bit is 1, else `acc << 1` (the Y-path FF
    /// copy of the previously written accumulator). The FF bit is bit `bit`
    /// of the lane's word in `multiplier`, the row the FF bank was loaded
    /// from.
    ///
    /// When `final_step` is true the shift is suppressed (the last partial
    /// product is accumulated with a plain ADD, per Fig. 5). Limb-parallel,
    /// one pass.
    ///
    /// # Panics
    ///
    /// Panics if the lanes do not tile a 64-bit limb or `bit` is outside a
    /// lane.
    pub fn mult_step(
        &self,
        acc: &BitRow,
        multiplicand: &BitRow,
        multiplier: &BitRow,
        bit: usize,
        final_step: bool,
    ) -> BitRow {
        self.masks
            .mult_step(acc, multiplicand, multiplier, bit, final_step)
    }

    // ------------------------------------------------------------------
    // Structural (per-column) reference implementations
    // ------------------------------------------------------------------

    /// [`CarryChain::add`] computed column by column through the structural
    /// [`YPath`] model — the reference the limb engine is verified against.
    pub fn add_bitwise(&self, a: &BitRow, b: &BitRow, carry_in: bool) -> BitRow {
        self.check_width(a.width());
        self.check_width(b.width());
        let y = YPath;
        let mut sum = BitRow::zeros(self.cols());
        for lane in 0..self.lane_count() {
            let mut c = carry_in;
            for col in self.lane_range(lane) {
                let inp = ColumnInputs::dual(a.get(col), b.get(col));
                let out = y.eval(inp, c, false, WriteBackSel::Sum);
                sum.set(col, out.writeback);
                c = out.carry_out;
            }
        }
        sum
    }

    /// [`CarryChain::shift_row`] computed column by column (reference).
    pub fn shift_row_bitwise(&self, data: &BitRow) -> BitRow {
        self.check_width(data.width());
        let mut out = BitRow::zeros(self.cols());
        for lane in 0..self.lane_count() {
            let r = self.lane_range(lane);
            for col in r.clone() {
                let v = if col == r.start {
                    false
                } else {
                    data.get(col - 1)
                };
                out.set(col, v);
            }
        }
        out
    }

    /// [`CarryChain::mult_step`] computed column by column (reference).
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside a lane.
    pub fn mult_step_bitwise(
        &self,
        acc: &BitRow,
        multiplicand: &BitRow,
        multiplier: &BitRow,
        bit: usize,
        final_step: bool,
    ) -> BitRow {
        assert!(bit < self.segment_bits(), "bit {bit} is outside a lane");
        self.check_width(multiplier.width());
        let sum = self.add_bitwise(acc, multiplicand, false);
        let mut out = BitRow::zeros(self.cols());
        for lane in 0..self.lane_count() {
            let r = self.lane_range(lane);
            let src = if multiplier.get(r.start + bit) {
                &sum
            } else {
                acc
            };
            for col in r.clone() {
                let v = if final_step {
                    src.get(col)
                } else if col == r.start {
                    false
                } else {
                    src.get(col - 1)
                };
                out.set(col, v);
            }
        }
        out
    }

    fn check_width(&self, got: usize) {
        assert_eq!(
            got,
            self.cols(),
            "row width {got} does not match chain width {}",
            self.cols()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A pseudo-random row built bit by bit (not through the limb
    /// constructors the engine uses). Idle columns are set too.
    fn seeded_row(width: usize, seed: u64) -> BitRow {
        let mut r = BitRow::zeros(width);
        let mut s = seed | 1;
        for i in 0..width {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            r.set(i, s >> 63 == 1);
        }
        r
    }

    #[test]
    fn add_respects_lane_boundaries() {
        // Two 8-bit lanes in a 16-column row: 0xFF + 0x01 must not carry
        // into the upper lane.
        let chain = CarryChain::new(16, Precision::P8);
        let sum = chain.add(
            &BitRow::from_u64(16, 0x00FF),
            &BitRow::from_u64(16, 0x0001),
            false,
        );
        assert_eq!(sum.get_field(0, 8), 0x00);
        assert_eq!(sum.get_field(8, 8), 0x00, "no carry leak into lane 1");
    }

    #[test]
    fn carry_in_implements_plus_one_per_lane() {
        let chain = CarryChain::new(16, Precision::P8);
        let sum = chain.add(
            &BitRow::from_u64(16, 0x0102),
            &BitRow::from_u64(16, 0x0304),
            true,
        );
        assert_eq!(sum.get_field(0, 8), 0x07); // 2+4+1
        assert_eq!(sum.get_field(8, 8), 0x05); // 1+3+1
    }

    #[test]
    fn add_shift_doubles_the_sum() {
        let chain = CarryChain::new(16, Precision::P8);
        let out = chain.add_shift(&BitRow::from_u64(16, 5), &BitRow::from_u64(16, 9));
        assert_eq!(out.get_field(0, 8), (5 + 9) * 2);
    }

    #[test]
    fn shift_row_is_per_lane() {
        let chain = CarryChain::new(8, Precision::P4);
        let data = BitRow::from_u64(8, 0b1000_1001);
        let out = chain.shift_row(&data);
        assert_eq!(out.get_field(0, 4), 0b0010);
        assert_eq!(
            out.get_field(4, 4),
            0b0000,
            "lane MSB drops, no cross-lane leak"
        );
    }

    #[test]
    fn mult_step_selects_sum_or_latch() {
        let chain = CarryChain::with_segment_bits(8, 8);
        let acc = BitRow::from_u64(8, 0b0000_0110);
        let a = BitRow::from_u64(8, 0b0000_0011);
        let multiplier = BitRow::from_u64(8, 0b0000_0100);
        // FF bit (multiplier bit 2) = 1: (acc + a) << 1.
        let out = chain.mult_step(&acc, &a, &multiplier, 2, false);
        assert_eq!(out.get_field(0, 8), ((0b110 + 0b011) << 1) & 0xFF);
        // FF bit (multiplier bit 1) = 0: acc << 1 regardless of `a`.
        let out = chain.mult_step(&acc, &a, &multiplier, 1, false);
        assert_eq!(out.get_field(0, 8), 0b0000_1100);
        // final step suppresses the shift.
        let out = chain.mult_step(&acc, &a, &multiplier, 2, true);
        assert_eq!(out.get_field(0, 8), 0b110 + 0b011);
    }

    #[test]
    fn idle_top_columns_stay_zero() {
        // 20 columns at 8-bit precision: 2 lanes + 4 idle columns that must
        // read zero on every path.
        let chain = CarryChain::new(20, Precision::P8);
        let ones = BitRow::ones(20);
        let out = chain.add(&ones, &ones, true);
        for col in 16..20 {
            assert!(!out.get(col), "idle col {col}");
        }
        let m = chain.mult_step(&ones, &ones, &ones, 0, true);
        for col in 16..20 {
            assert!(!m.get(col), "idle col {col} after mult_step");
        }
    }

    proptest! {
        /// Lane-segmented addition equals per-word wrapping addition for
        /// every precision on random data.
        #[test]
        fn add_matches_reference(a in any::<u64>(), b in any::<u64>(), p in 0usize..5) {
            let precision = Precision::ALL[p];
            let bits = precision.bits();
            let chain = CarryChain::new(64, precision);
            let sum = chain.add(&BitRow::from_u64(64, a), &BitRow::from_u64(64, b), false);
            for lane in 0..(64 / bits) {
                let wa = (a >> (lane * bits)) & precision.mask();
                let wb = (b >> (lane * bits)) & precision.mask();
                let expect = (wa + wb) & precision.mask();
                prop_assert_eq!(sum.get_field(lane * bits, bits), expect);
            }
        }

        /// Subtraction built the paper's way (invert + add + 1) matches
        /// wrapping subtraction.
        #[test]
        fn invert_add_one_is_subtraction(a in any::<u32>(), b in any::<u32>()) {
            let chain = CarryChain::new(64, Precision::P32);
            let ra = BitRow::from_u64(64, a as u64 | ((a as u64) << 32));
            let rb_inv = !&BitRow::from_u64(64, b as u64 | ((b as u64) << 32));
            let diff = chain.add(&ra, &rb_inv, true);
            let expect = a.wrapping_sub(b) as u64;
            prop_assert_eq!(diff.get_field(0, 32), expect);
            prop_assert_eq!(diff.get_field(32, 32), expect);
        }

        /// The limb-parallel adder matches the structural per-column
        /// reference bit-for-bit on random rows (idle columns set too),
        /// from one column to heap rows of 1024, at segment widths 2-64.
        #[test]
        fn limb_add_matches_bitwise_reference(
            seed_a in any::<u64>(),
            seed_b in any::<u64>(),
            width in 1usize..=128,
            width_pick in 0usize..6,
            seg_pick in 0usize..7,
            cin in any::<bool>(),
        ) {
            let cols = [width, 20, 100, 130, 320, 1024][width_pick];
            let seg = [2usize, 3, 4, 8, 16, 32, 64][seg_pick].min(cols);
            let (ra, rb) = (seeded_row(cols, seed_a), seeded_row(cols, seed_b));
            let chain = CarryChain::with_segment_bits(cols, seg);
            let fast = chain.add(&ra, &rb, cin);
            let slow = chain.add_bitwise(&ra, &rb, cin);
            prop_assert_eq!(&fast, &slow, "sum mismatch cols={} seg={}", cols, seg);
        }

        /// The limb-parallel shift and mult-step match their per-column
        /// references bit-for-bit: every product-lane width 4-64 (the
        /// 64-bit lane's fill constant is all ones), idle columns inside a
        /// limb, and heap rows wider than 256 columns.
        #[test]
        fn limb_mult_step_matches_bitwise_reference(
            seed_acc in any::<u64>(),
            seed_a in any::<u64>(),
            seed_b in any::<u64>(),
            bit_pick in any::<usize>(),
            final_step in any::<bool>(),
            width_pick in 0usize..7,
            seg_pick in 0usize..5,
        ) {
            let cols = [20usize, 64, 100, 128, 130, 320, 1024][width_pick];
            let seg = [4usize, 8, 16, 32, 64][seg_pick];
            prop_assume!(seg <= cols);
            let bit = bit_pick % seg;
            let chain = CarryChain::with_segment_bits(cols, seg);
            let acc = seeded_row(cols, seed_acc);
            let a = seeded_row(cols, seed_a);
            let multiplier = seeded_row(cols, seed_b);
            let fast = chain.mult_step(&acc, &a, &multiplier, bit, final_step);
            let slow = chain.mult_step_bitwise(&acc, &a, &multiplier, bit, final_step);
            prop_assert_eq!(&fast, &slow, "cols={} seg={} bit={}", cols, seg, bit);
            prop_assert_eq!(chain.shift_row(&a), chain.shift_row_bitwise(&a));
        }
    }
}
