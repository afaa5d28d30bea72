//! The in-memory-computing macro executor.

use crate::activity::{ActivityLog, CycleActivity};
use crate::config::MacroConfig;
use crate::error::Error;
use crate::isa::OpKind;
use crate::words;
use bpimc_array::{BitRow, BlSeparator, CycleKind, RowAddr, SramArray};
use bpimc_periph::{CarryChain, LogicOp, Precision};

/// One 128 x 128 in-memory-computing macro (array + dummy rows + column
/// peripherals), executing the paper's Table I operation set cycle by cycle.
///
/// See the crate-level documentation for an example.
#[derive(Debug, Clone)]
pub struct ImcMacro {
    config: MacroConfig,
    array: SramArray,
    separator: BlSeparator,
    log: ActivityLog,
    /// Memoized carry chains by segment width: the lane masks are pure
    /// functions of `(cols, segment_bits)`, and rebuilding them on every
    /// single-cycle op would rival the limb arithmetic itself.
    chains: Vec<CarryChain>,
}

impl PartialEq for ImcMacro {
    fn eq(&self, other: &Self) -> bool {
        // The chain cache is a memo, not state: two macros with identical
        // contents are equal regardless of which ops warmed their caches.
        self.config == other.config
            && self.array == other.array
            && self.separator == other.separator
            && self.log == other.log
    }
}

impl ImcMacro {
    /// Creates a zeroed macro.
    pub fn new(config: MacroConfig) -> Self {
        Self {
            config,
            array: SramArray::new(config.geometry),
            separator: BlSeparator::new(config.separator_enabled),
            log: ActivityLog::new(),
            chains: Vec::new(),
        }
    }

    /// The configuration this macro was built with.
    pub fn config(&self) -> &MacroConfig {
        &self.config
    }

    /// Column count (row width).
    pub fn cols(&self) -> usize {
        self.config.geometry.cols
    }

    /// The activity log accumulated so far.
    pub fn activity(&self) -> &ActivityLog {
        &self.log
    }

    /// Clears the activity log (the array contents are untouched).
    pub fn clear_activity(&mut self) {
        self.log.clear();
    }

    /// Index in `chains` of the memoized carry chain for
    /// `segment_bits`-wide lanes. An index rather than a reference, so a
    /// chain can be borrowed beside the array's rows.
    fn chain(&mut self, segment_bits: usize) -> usize {
        let cached = self
            .chains
            .iter()
            .position(|c| c.segment_bits() == segment_bits);
        cached.unwrap_or_else(|| {
            let c = CarryChain::with_segment_bits(self.cols(), segment_bits);
            self.chains.push(c);
            self.chains.len() - 1
        })
    }

    /// BL separator accounting (shielded vs exposed write-backs).
    pub fn separator(&self) -> &BlSeparator {
        &self.separator
    }

    /// Non-logging row inspection (for tests and debugging; a real data-out
    /// read is [`ImcMacro::read_row`]).
    pub fn peek_row(&self, row: usize) -> Result<BitRow, Error> {
        Ok(self.array.read(RowAddr::Main(row))?)
    }

    // ------------------------------------------------------------------
    // Plain memory access
    // ------------------------------------------------------------------

    /// Writes a full row. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid row or mismatched width.
    pub fn write_row(&mut self, row: usize, value: &BitRow) -> Result<u64, Error> {
        self.array.write(RowAddr::Main(row), value)?;
        self.push_write_cycle(RowAddr::Main(row), value.width(), 0);
        self.log.push_op(OpKind::Write, Precision::P8, 1);
        Ok(1)
    }

    /// Reads a full row out of the macro. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid row.
    pub fn read_row(&mut self, row: usize) -> Result<BitRow, Error> {
        let v = self.array.read(RowAddr::Main(row))?;
        self.log.push_cycle(CycleActivity {
            kind: CycleKind::ReadOnly,
            compute_cols: self.cols(),
            logic_cols: 0,
            wb_cols: 0,
            wb_to_dummy: false,
            wb_shielded: false,
            wb_inverting: false,
            ff_bits: 0,
        });
        self.log.push_op(OpKind::Read, Precision::P8, 1);
        Ok(v)
    }

    /// Packs `words` into dense `precision` lanes and writes them to `row`.
    ///
    /// # Errors
    ///
    /// Returns an error when the words do not fit the row or the precision.
    pub fn write_words(
        &mut self,
        row: usize,
        precision: Precision,
        values: &[u64],
    ) -> Result<u64, Error> {
        let packed = words::pack_words(values, precision, self.cols())?;
        self.write_row(row, &packed)
    }

    /// Reads the first `n` dense `precision` lanes of `row`.
    ///
    /// # Errors
    ///
    /// Returns an error when `n` exceeds the lane count or `row` is invalid.
    pub fn read_words(
        &mut self,
        row: usize,
        precision: Precision,
        n: usize,
    ) -> Result<Vec<u64>, Error> {
        let r = self.read_row(row)?;
        words::unpack_words(&r, precision, n)
    }

    /// Writes multiplication operands into the low half of each `2P`-wide
    /// product lane of `row` (the Fig. 6 layout).
    ///
    /// # Errors
    ///
    /// Returns an error when the operands do not fit.
    pub fn write_mult_operands(
        &mut self,
        row: usize,
        precision: Precision,
        values: &[u64],
    ) -> Result<u64, Error> {
        let packed = words::pack_mult_operands(values, precision, self.cols())?;
        self.write_row(row, &packed)
    }

    /// Reads the first `n` products (each `2P` bits) from `row`.
    ///
    /// # Errors
    ///
    /// Returns an error when `n` exceeds the product lane count.
    pub fn read_products(
        &mut self,
        row: usize,
        precision: Precision,
        n: usize,
    ) -> Result<Vec<u64>, Error> {
        let r = self.read_row(row)?;
        words::unpack_products(&r, precision, n)
    }

    // ------------------------------------------------------------------
    // Single-cycle operations
    // ------------------------------------------------------------------

    /// Bit-wise logic between rows `a` and `b` into `dst`. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows (including `a == b`).
    pub fn logic(&mut self, op: LogicOp, a: usize, b: usize, dst: usize) -> Result<u64, Error> {
        let readout = self.array.bl_compute(RowAddr::Main(a), RowAddr::Main(b))?;
        let result = op.eval(&readout);
        self.writeback(RowAddr::Main(dst), &result, CycleKind::Compute, 0)?;
        self.log.push_op(OpKind::Logic(op), Precision::P8, 1);
        Ok(1)
    }

    /// Bit-wise NOT of `src` into `dst`. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn not(&mut self, src: usize, dst: usize) -> Result<u64, Error> {
        let r = self.array.single_read(RowAddr::Main(src))?;
        let v = r.not_a;
        let cols = self.cols();
        self.writeback_gated(
            RowAddr::Main(dst),
            &v,
            CycleKind::SingleAccess,
            0,
            cols,
            true,
        )?;
        self.log.push_op(OpKind::Not, Precision::P8, 1);
        Ok(1)
    }

    /// Copies row `src` to `dst`. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn copy(&mut self, src: usize, dst: usize) -> Result<u64, Error> {
        let r = self.array.single_read(RowAddr::Main(src))?;
        let v = r.a;
        self.writeback(RowAddr::Main(dst), &v, CycleKind::SingleAccess, 0)?;
        self.log.push_op(OpKind::Copy, Precision::P8, 1);
        Ok(1)
    }

    /// Per-lane logical left shift of `src` by one into `dst`. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn shl(&mut self, src: usize, dst: usize, precision: Precision) -> Result<u64, Error> {
        let r = self.array.single_read(RowAddr::Main(src))?;
        let c = self.chain(precision.bits());
        let v = self.chains[c].shift_row(&r.a);
        self.writeback(RowAddr::Main(dst), &v, CycleKind::SingleAccess, 0)?;
        self.log.push_op(OpKind::Shl, precision, 1);
        Ok(1)
    }

    /// Per-lane addition `dst = a + b` (wrapping at the lane width). One
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn add(
        &mut self,
        a: usize,
        b: usize,
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        let c = self.chain(precision.bits());
        let (ra, rb) = self.array.dual_rows(RowAddr::Main(a), RowAddr::Main(b))?;
        let sum = self.chains[c].add(ra, rb, false);
        self.writeback(RowAddr::Main(dst), &sum, CycleKind::Compute, 0)?;
        self.log.push_op(OpKind::Add, precision, 1);
        Ok(1)
    }

    /// Per-lane add-and-shift `dst = (a + b) << 1`. One cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn add_shift(
        &mut self,
        a: usize,
        b: usize,
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        let c = self.chain(precision.bits());
        let (ra, rb) = self.array.dual_rows(RowAddr::Main(a), RowAddr::Main(b))?;
        let v = self.chains[c].add_shift(ra, rb);
        self.writeback(RowAddr::Main(dst), &v, CycleKind::Compute, 0)?;
        self.log.push_op(OpKind::AddShift, precision, 1);
        Ok(1)
    }

    // ------------------------------------------------------------------
    // Multi-cycle operations
    // ------------------------------------------------------------------

    /// Per-lane subtraction `dst = a - b` (two's complement, wrapping). Two
    /// cycles: NOT(b) into a dummy row, then ADD with carry-in 1.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows.
    pub fn sub(
        &mut self,
        a: usize,
        b: usize,
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        // Cycle 1: invert B into dummy row 0 (shielded by the separator).
        let rb = self.array.single_read(RowAddr::Main(b))?;
        let nb = rb.not_a;
        let cols = self.cols();
        self.writeback_gated(
            RowAddr::Dummy(0),
            &nb,
            CycleKind::SingleAccess,
            0,
            cols,
            true,
        )?;
        // Cycle 2: A + ~B + 1.
        let c = self.chain(precision.bits());
        let (ra, nb) = self.array.dual_rows(RowAddr::Main(a), RowAddr::Dummy(0))?;
        let diff = self.chains[c].add(ra, nb, true);
        self.writeback(RowAddr::Main(dst), &diff, CycleKind::Compute, 0)?;
        self.log.push_op(OpKind::Sub, precision, 2);
        Ok(2)
    }

    /// Per-lane multiplication of the product-lane operands in rows `a`
    /// (multiplicand) and `b` (multiplier): `dst`'s `2P`-wide lanes receive
    /// the full products. Takes `P + 2` cycles (Table I): two initialisation
    /// cycles, then `P` add-and-shift steps (the last one a plain ADD).
    ///
    /// Operands must be stored with [`ImcMacro::write_mult_operands`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::PrecisionTooWide`] when `2P` exceeds the row width,
    /// or an array error for invalid rows.
    pub fn mult(
        &mut self,
        a: usize,
        b: usize,
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        let bits = precision.bits();
        let cols = self.cols();
        if 2 * bits > cols {
            return Err(Error::PrecisionTooWide {
                needed_bits: 2 * bits,
                cols,
            });
        }
        let c = self.chain(2 * bits);
        let lanes = self.chains[c].lane_count();

        // Init cycle 1: zeros into dummy row 0 (the accumulator) while the
        // multiplier row is loaded into the FF bank, reversed, so step `s`
        // presents bit `P - 1 - s` of each lane's multiplier.
        let multiplier = self.array.read(RowAddr::Main(b))?;
        let zeros = BitRow::zeros(cols);
        let lane_cols = lanes * 2 * bits;
        self.writeback_gated(
            RowAddr::Dummy(0),
            &zeros,
            CycleKind::SingleAccess,
            lanes * bits,
            lane_cols,
            false,
        )?;

        // Init cycle 2: copy the multiplicand into dummy row 1.
        let multiplicand = self.array.read(RowAddr::Main(a))?;
        self.writeback_gated(
            RowAddr::Dummy(1),
            &multiplicand,
            CycleKind::SingleAccess,
            0,
            lane_cols,
            false,
        )?;

        // P add-and-shift steps, accumulator ping-ponging between dummy rows
        // 0 and 2 (the paper's "second and third rows"); the final step is a
        // plain ADD written to the destination. The Y-path FFs hold the
        // previously written accumulator for the pass-through (FF bit = 0)
        // case, which is the activated accumulator row itself.
        let mut acc_src = RowAddr::Dummy(0);
        let mut acc_dst = RowAddr::Dummy(2);
        for step in 0..bits {
            let final_step = step == bits - 1;
            let (acc, mcand) = self.array.dual_rows(acc_src, RowAddr::Dummy(1))?;
            let next =
                self.chains[c].mult_step(acc, mcand, &multiplier, bits - 1 - step, final_step);
            let target = if final_step {
                RowAddr::Main(dst)
            } else {
                acc_dst
            };
            // Only the valid low bits of each product lane have switched so
            // far; the rest are clock-gated (accumulator width grows by one
            // bit per step).
            let valid = (bits + step + 1).min(2 * bits);
            self.writeback_gated(
                target,
                &next,
                CycleKind::Compute,
                lanes * bits,
                lanes * valid,
                false,
            )?;
            std::mem::swap(&mut acc_src, &mut acc_dst);
        }

        let cycles = bits as u64 + 2;
        self.log.push_op(OpKind::Mult, precision, cycles as usize);
        Ok(cycles)
    }

    /// In-memory reduction: sums the rows `srcs` into `dst` with a chain of
    /// bit-parallel ADDs (per-lane, wrapping at the precision), the
    /// accumulation pattern a dot-product workload uses after its
    /// multiplies. The first source is copied into dummy row 0, then each
    /// further source is added to the running sum, which ping-pongs between
    /// dummy rows 0 and 2; the last ADD writes `dst`. So no main-array row
    /// beyond `dst` is clobbered.
    ///
    /// Takes `n` cycles for `n` sources (one copy plus `n - 1` ADDs), or 2
    /// for a single source (the copy in, then a copy out to `dst`).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rows or when `srcs` is empty.
    pub fn reduce_add(
        &mut self,
        srcs: &[usize],
        dst: usize,
        precision: Precision,
    ) -> Result<u64, Error> {
        let first = *srcs.first().ok_or(Error::TooManyWords {
            requested: 0,
            available: 0,
        })?;
        // Running partial sum lives in dummy rows (ping-pong) to avoid
        // clobbering main rows; start by copying the first source.
        let r = self.array.single_read(RowAddr::Main(first))?;
        let v = r.a;
        self.writeback(RowAddr::Dummy(0), &v, CycleKind::SingleAccess, 0)?;
        let mut cycles = 1u64;
        let mut acc = RowAddr::Dummy(0);
        let mut spare = RowAddr::Dummy(2);
        let c = self.chain(precision.bits());
        for (i, &s) in srcs.iter().enumerate().skip(1) {
            let (ra, rs) = self.array.dual_rows(acc, RowAddr::Main(s))?;
            let sum = self.chains[c].add(ra, rs, false);
            let target = if i == srcs.len() - 1 {
                RowAddr::Main(dst)
            } else {
                spare
            };
            self.writeback(target, &sum, CycleKind::Compute, 0)?;
            cycles += 1;
            std::mem::swap(&mut acc, &mut spare);
        }
        if srcs.len() == 1 {
            // Single source: the "reduction" is a copy to dst.
            let r = self.array.read(RowAddr::Dummy(0))?;
            self.writeback(RowAddr::Main(dst), &r, CycleKind::SingleAccess, 0)?;
            cycles += 1;
        }
        self.log.push_op(OpKind::Add, precision, cycles as usize);
        Ok(cycles)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Commits a write-back and logs its cycle with full-row activity.
    fn writeback(
        &mut self,
        target: RowAddr,
        value: &BitRow,
        kind: CycleKind,
        ff_bits: usize,
    ) -> Result<(), Error> {
        let cols = self.cols();
        self.writeback_gated(target, value, kind, ff_bits, cols, false)
    }

    /// Commits a write-back whose compute/write activity covers only
    /// `active_cols` columns (clock-gated lanes, e.g. the not-yet-valid
    /// upper product bits during multiplication).
    fn writeback_gated(
        &mut self,
        target: RowAddr,
        value: &BitRow,
        kind: CycleKind,
        ff_bits: usize,
        active_cols: usize,
        inverting: bool,
    ) -> Result<(), Error> {
        self.array.write(target, value)?;
        let shielded = self.separator.record_writeback(target.is_dummy());
        self.log.push_cycle(CycleActivity {
            kind,
            compute_cols: active_cols,
            logic_cols: if kind == CycleKind::Compute {
                active_cols
            } else {
                0
            },
            wb_cols: active_cols,
            wb_to_dummy: target.is_dummy(),
            wb_shielded: shielded,
            wb_inverting: inverting,
            ff_bits,
        });
        Ok(())
    }

    /// Logs a plain write cycle (no compute phase).
    fn push_write_cycle(&mut self, target: RowAddr, wb_cols: usize, ff_bits: usize) {
        let shielded = self.separator.record_writeback(target.is_dummy());
        self.log.push_cycle(CycleActivity {
            kind: CycleKind::WriteOnly,
            compute_cols: 0,
            logic_cols: 0,
            wb_cols,
            wb_to_dummy: target.is_dummy(),
            wb_shielded: shielded,
            wb_inverting: false,
            ff_bits,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mac() -> ImcMacro {
        ImcMacro::new(MacroConfig::paper_macro())
    }

    #[test]
    fn word_round_trip() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[1, 2, 3, 255]).unwrap();
        assert_eq!(
            m.read_words(0, Precision::P8, 4).unwrap(),
            vec![1, 2, 3, 255]
        );
    }

    #[test]
    fn logic_ops_all_lanes() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[0xF0; 16]).unwrap();
        m.write_words(1, Precision::P8, &[0x3C; 16]).unwrap();
        let c = m.logic(LogicOp::Xor, 0, 1, 2).unwrap();
        assert_eq!(c, 1);
        assert_eq!(m.read_words(2, Precision::P8, 16).unwrap(), vec![0xCC; 16]);
    }

    #[test]
    fn add_sub_cycles_and_values() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[200, 15]).unwrap();
        m.write_words(1, Precision::P8, &[100, 20]).unwrap();
        assert_eq!(m.add(0, 1, 2, Precision::P8).unwrap(), 1);
        assert_eq!(
            m.read_words(2, Precision::P8, 2).unwrap(),
            vec![(200 + 100) & 0xFF, 35]
        );
        assert_eq!(m.sub(0, 1, 3, Precision::P8).unwrap(), 2);
        assert_eq!(
            m.read_words(3, Precision::P8, 2).unwrap(),
            vec![100, (15u64.wrapping_sub(20)) & 0xFF]
        );
    }

    #[test]
    fn shl_and_add_shift() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[0b0100_0001]).unwrap();
        m.write_words(1, Precision::P8, &[3]).unwrap();
        m.shl(0, 2, Precision::P8).unwrap();
        assert_eq!(
            m.read_words(2, Precision::P8, 1).unwrap(),
            vec![0b1000_0010]
        );
        m.add_shift(0, 1, 3, Precision::P8).unwrap();
        assert_eq!(
            m.read_words(3, Precision::P8, 1).unwrap(),
            vec![((0b0100_0001 + 3) << 1) & 0xFF]
        );
    }

    #[test]
    fn paper_worked_example_mult() {
        // Fig. 5: 1010 x 1011 = 1101110.
        let mut m = mac();
        m.write_mult_operands(0, Precision::P4, &[0b1010]).unwrap();
        m.write_mult_operands(1, Precision::P4, &[0b1011]).unwrap();
        let cycles = m.mult(0, 1, 2, Precision::P4).unwrap();
        assert_eq!(cycles, 6); // N + 2 with N = 4
        assert_eq!(
            m.read_products(2, Precision::P4, 1).unwrap(),
            vec![0b0110_1110]
        );
    }

    #[test]
    fn mult_exhaustive_2bit_and_4bit() {
        for p in [Precision::P2, Precision::P4] {
            let n = 1u64 << p.bits();
            for a in 0..n {
                for b in 0..n {
                    let mut m = mac();
                    m.write_mult_operands(0, p, &[a]).unwrap();
                    m.write_mult_operands(1, p, &[b]).unwrap();
                    m.mult(0, 1, 2, p).unwrap();
                    let got = m.read_products(2, p, 1).unwrap()[0];
                    assert_eq!(got, a * b, "{a} x {b} at {p}");
                }
            }
        }
    }

    #[test]
    fn mult_all_lanes_in_parallel() {
        let mut m = mac();
        let a: Vec<u64> = (0..8).map(|i| 17 * i + 3).collect();
        let b: Vec<u64> = (0..8).map(|i| 31 * i + 1).collect();
        m.write_mult_operands(0, Precision::P8, &a).unwrap();
        m.write_mult_operands(1, Precision::P8, &b).unwrap();
        let cycles = m.mult(0, 1, 2, Precision::P8).unwrap();
        assert_eq!(cycles, 10);
        let got = m.read_products(2, Precision::P8, 8).unwrap();
        let expect: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x & 0xFF) * (y & 0xFF))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn separator_accounting_during_mult() {
        let mut m = mac();
        m.write_mult_operands(0, Precision::P8, &[5]).unwrap();
        m.write_mult_operands(1, Precision::P8, &[7]).unwrap();
        let before = m.separator().shielded();
        m.mult(0, 1, 2, Precision::P8).unwrap();
        // 2 init write-backs + 7 intermediate add-shift write-backs target
        // dummy rows; the final ADD writes the main array.
        assert_eq!(m.separator().shielded() - before, 9);
    }

    #[test]
    fn separator_disabled_shields_nothing() {
        let mut m = ImcMacro::new(MacroConfig::paper_macro().with_separator(false));
        m.write_mult_operands(0, Precision::P8, &[5]).unwrap();
        m.write_mult_operands(1, Precision::P8, &[7]).unwrap();
        m.mult(0, 1, 2, Precision::P8).unwrap();
        assert_eq!(m.separator().shielded(), 0);
    }

    #[test]
    fn activity_log_records_ops_and_cycles() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[1]).unwrap();
        m.write_words(1, Precision::P8, &[2]).unwrap();
        m.clear_activity();
        m.add(0, 1, 2, Precision::P8).unwrap();
        m.sub(0, 1, 3, Precision::P8).unwrap();
        assert_eq!(m.activity().total_cycles(), 3);
        let ops = m.activity().ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].kind, OpKind::Add);
        assert_eq!(ops[1].cycle_count, 2);
        // SUB's first cycle writes a dummy row and is shielded.
        let sub_cycles = m.activity().cycles_of(&ops[1]);
        assert!(sub_cycles[0].wb_to_dummy && sub_cycles[0].wb_shielded);
        assert!(!sub_cycles[1].wb_to_dummy);
    }

    #[test]
    fn reduce_add_sums_many_rows() {
        let mut m = mac();
        let rows = [3usize, 4, 5, 6, 7];
        for (k, &r) in rows.iter().enumerate() {
            let vals: Vec<u64> = (0..16).map(|i| (i + k as u64 * 7) & 0xFF).collect();
            m.write_words(r, Precision::P8, &vals).unwrap();
        }
        let cycles = m.reduce_add(&rows, 10, Precision::P8).unwrap();
        assert_eq!(cycles, rows.len() as u64); // 1 copy + n-1 adds
        let got = m.read_words(10, Precision::P8, 16).unwrap();
        for i in 0..16u64 {
            let expect: u64 = (0..5).map(|k| (i + k * 7) & 0xFF).sum::<u64>() & 0xFF;
            assert_eq!(got[i as usize], expect, "lane {i}");
        }
    }

    #[test]
    fn reduce_add_single_source_is_copy() {
        let mut m = mac();
        m.write_words(0, Precision::P8, &[42, 17]).unwrap();
        m.reduce_add(&[0], 5, Precision::P8).unwrap();
        assert_eq!(m.read_words(5, Precision::P8, 2).unwrap(), vec![42, 17]);
    }

    #[test]
    fn reduce_add_empty_is_an_error() {
        let mut m = mac();
        assert!(m.reduce_add(&[], 5, Precision::P8).is_err());
    }

    /// 64-bit FNV-1a.
    struct Fnv(u64);

    impl Fnv {
        fn eat(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn num(&mut self, v: u64) {
            self.eat(&v.to_le_bytes());
        }

        fn text(&mut self, v: impl std::fmt::Debug) {
            let s = format!("{v:?}");
            self.num(s.len() as u64);
            self.eat(s.as_bytes());
        }
    }

    /// Runs every op at every precision that fits `cols` columns, plus two
    /// error paths, and hashes each result together with the macro's
    /// complete state: every cycle and op record field, every main and
    /// dummy row, and the separator's counts.
    fn golden_script_hash(cols: usize) -> u64 {
        let mut m = ImcMacro::new(MacroConfig::with_cols(cols));
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        // Pseudo-random full rows: idle columns and the high halves of
        // product lanes are set as well.
        let mut s = 0x9E37_79B9_7F4A_7C15 ^ cols as u64;
        for r in 0..16 {
            let limbs = (0..cols.div_ceil(64))
                .map(|_| {
                    s = s
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    s
                })
                .collect();
            h.text(m.write_row(r, &BitRow::from_limbs(cols, limbs)));
        }
        for op in LogicOp::ALL {
            h.text(m.logic(op, 0, 1, 16));
        }
        h.text(m.not(2, 17));
        h.text(m.copy(3, 18));
        h.text(m.read_row(17));
        for (k, p) in Precision::ALL.into_iter().enumerate() {
            let d = 24 + 10 * k;
            let lanes = p.lanes(cols);
            let x: Vec<u64> = (0..lanes as u64).map(|i| (i * 37 + 5) & p.mask()).collect();
            let y: Vec<u64> = (0..lanes as u64)
                .map(|i| (i * 91 + 200) & p.mask())
                .collect();
            h.text(m.write_words(20, p, &x));
            h.text(m.write_words(21, p, &y));
            h.text(m.add(0, 1, d, p));
            h.text(m.add(20, 21, d + 1, p));
            h.text(m.sub(0, 1, d + 2, p));
            h.text(m.sub(20, 21, d + 3, p));
            h.text(m.add_shift(2, 3, d + 4, p));
            h.text(m.shl(4, d + 5, p));
            h.text(m.read_words(d + 1, p, lanes));
            h.text(m.read_words(d + 3, p, lanes));
            let products = p.product_lanes(cols);
            if products > 0 {
                let x: Vec<u64> = (0..products as u64)
                    .map(|i| (i * 37 + 5) & p.mask())
                    .collect();
                let y: Vec<u64> = (0..products as u64)
                    .map(|i| p.mask().wrapping_sub(i) & p.mask())
                    .collect();
                h.text(m.write_mult_operands(22, p, &x));
                h.text(m.write_mult_operands(23, p, &y));
                h.text(m.mult(22, 23, d + 6, p));
                h.text(m.read_products(d + 6, p, products));
            }
            // Raw rows, the multiplier aliasing the destination, and one row
            // as both operands.
            h.text(m.mult(5, 6, d + 7, p));
            h.text(m.copy(7, d + 8));
            h.text(m.mult(8, d + 8, d + 8, p));
            h.text(m.mult(9, 9, d + 9, p));
            h.text(m.reduce_add(&[10, 11, 12, 13, 14], d + 9, p));
            h.text(m.reduce_add(&[15], d + 7, p));
            // Error paths: a destination past the array, one row twice.
            h.text(m.mult(0, 1, 128, p));
            h.text(m.add(3, 3, d, p));
        }
        for c in m.activity().cycles() {
            h.text(c.kind);
            for v in [c.compute_cols, c.logic_cols, c.wb_cols, c.ff_bits] {
                h.num(v as u64);
            }
            for b in [c.wb_to_dummy, c.wb_shielded, c.wb_inverting] {
                h.num(u64::from(b));
            }
        }
        for op in m.activity().ops() {
            h.text(op.kind);
            h.text(op.precision);
            h.num(op.first_cycle as u64);
            h.num(op.cycle_count as u64);
        }
        let g = m.config().geometry;
        let rows = (0..g.rows)
            .map(RowAddr::Main)
            .chain((0..g.dummy_rows).map(RowAddr::Dummy));
        for addr in rows {
            let row = m.array.read(addr).unwrap();
            h.num(row.width() as u64);
            for &l in row.limbs() {
                h.num(l);
            }
        }
        h.num(m.separator().shielded());
        h.num(m.separator().exposed());
        h.0
    }

    /// Pins the macro's complete observable state after a fixed script, on
    /// the paper's 128 columns and on 100 columns (idle columns inside a
    /// limb). Any change to a row kernel must leave these hashes alone.
    #[test]
    fn golden_state_is_pinned() {
        assert_eq!(golden_script_hash(128), 0x045b_e692_e4bc_3b21);
        assert_eq!(golden_script_hash(100), 0xfc39_9b57_72b0_fc65);
    }

    #[test]
    fn mult_too_wide_for_row_is_rejected() {
        let mut m = ImcMacro::new(MacroConfig::with_cols(16));
        assert!(matches!(
            m.mult(0, 1, 2, Precision::P16),
            Err(Error::PrecisionTooWide {
                needed_bits: 32,
                cols: 16
            })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// 8-bit lane arithmetic matches wrapping reference arithmetic for
        /// all 16 lanes at once.
        #[test]
        fn add_sub_match_reference(a in prop::collection::vec(0u64..256, 16),
                                   b in prop::collection::vec(0u64..256, 16)) {
            let mut m = mac();
            m.write_words(0, Precision::P8, &a).unwrap();
            m.write_words(1, Precision::P8, &b).unwrap();
            m.add(0, 1, 2, Precision::P8).unwrap();
            m.sub(0, 1, 3, Precision::P8).unwrap();
            let sum = m.read_words(2, Precision::P8, 16).unwrap();
            let diff = m.read_words(3, Precision::P8, 16).unwrap();
            for i in 0..16 {
                prop_assert_eq!(sum[i], (a[i] + b[i]) & 0xFF);
                prop_assert_eq!(diff[i], a[i].wrapping_sub(b[i]) & 0xFF);
            }
        }

        /// Random 8-bit multiplications across all product lanes.
        #[test]
        fn mult_matches_reference(a in prop::collection::vec(0u64..256, 8),
                                  b in prop::collection::vec(0u64..256, 8)) {
            let mut m = mac();
            m.write_mult_operands(0, Precision::P8, &a).unwrap();
            m.write_mult_operands(1, Precision::P8, &b).unwrap();
            m.mult(0, 1, 2, Precision::P8).unwrap();
            let got = m.read_products(2, Precision::P8, 8).unwrap();
            for i in 0..8 {
                prop_assert_eq!(got[i], a[i] * b[i]);
            }
        }

        /// 16-bit extension precision works the same way.
        #[test]
        fn mult_16bit_extension(a in 0u64..65536, b in 0u64..65536) {
            let mut m = mac();
            m.write_mult_operands(0, Precision::P16, &[a]).unwrap();
            m.write_mult_operands(1, Precision::P16, &[b]).unwrap();
            let cycles = m.mult(0, 1, 2, Precision::P16).unwrap();
            prop_assert_eq!(cycles, 18);
            prop_assert_eq!(m.read_products(2, Precision::P16, 1).unwrap()[0], a * b);
        }
    }
}
