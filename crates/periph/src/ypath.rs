//! One column's peripheral slice: FA-Logics plus the MX0/MX1/MX2 muxes.
//!
//! The Y-path is modelled structurally: it receives the column's SA outputs
//! and its right-hand neighbour's propagated signals, and produces a carry
//! for the left-hand neighbour plus the selected write-back bit. The
//! [`crate::carrychain::CarryChain`] composes a row of these.

use crate::falogics::{fa_carry, fa_sum};
use crate::logicunit::LogicOp;

/// The per-column sense-amplifier outputs feeding one Y-path.
///
/// In dual-WL mode these are `A AND B` / `NOR(A, B)`; in single-WL mode the
/// same wires carry `A` / `~A` (the SA simply senses the one accessed cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnInputs {
    /// BLT sense output (`A AND B`, or `A` for single-WL).
    pub(crate) and_ab: bool,
    /// BLB sense output (`NOR(A,B)`, or `~A` for single-WL).
    pub(crate) nor_ab: bool,
}

impl ColumnInputs {
    /// Inputs seen during a dual word-line compute access.
    pub fn dual(a: bool, b: bool) -> Self {
        Self {
            and_ab: a && b,
            nor_ab: !a && !b,
        }
    }

    /// Inputs seen during a single word-line access of a cell storing `a`.
    pub fn single(a: bool) -> Self {
        Self {
            and_ab: a,
            nor_ab: !a,
        }
    }
}

/// What MX0/MX1/MX2 route to the write driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteBackSel {
    /// A simple-logic result (MX2 + LogicSEL path).
    Logic(LogicOp),
    /// The local FA sum (ADD / SUB).
    Sum,
    /// The right neighbour's propagated bit (shift and add-and-shift: the
    /// value written at column `n` originates at column `n-1`).
    Propagated,
    /// The column's own single-WL data (COPY).
    Data,
    /// The inverted single-WL data (NOT).
    NotData,
    /// Constant zero (initialisation of dummy rows).
    Zero,
}

/// The combinational outputs of one Y-path evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YPathOut {
    /// Carry to the left neighbour (also reused as the data-propagation
    /// path for shifts, per the paper's single-WL shift description).
    pub(crate) carry_out: bool,
    /// The bit driven into the write-back path.
    pub(crate) writeback: bool,
    /// The local sum (exposed so add-and-shift can propagate it left).
    pub(crate) sum: bool,
}

/// One column's Y-path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct YPath;

impl YPath {
    /// Evaluates the slice.
    ///
    /// * `inputs` — the SA outputs for this column;
    /// * `carry_in` — carry from the right neighbour (or the segment's
    ///   initial carry at a word boundary, selected by MX3);
    /// * `prop_in` — the right neighbour's propagated bit (its sum during
    ///   add-and-shift, its data during plain shift, or the FF-latched
    ///   accumulator bit during a multiply pass-through step);
    /// * `sel` — the write-back selection.
    pub fn eval(
        &self,
        inputs: ColumnInputs,
        carry_in: bool,
        prop_in: bool,
        sel: WriteBackSel,
    ) -> YPathOut {
        let sum = fa_sum(inputs.and_ab, inputs.nor_ab, carry_in);
        let carry_out = match sel {
            // During a single-WL shift, the FA-Logics block forwards the raw
            // data onto the carry node (the paper: "the FA-Logics outputs
            // the original data (A) to the C[N] node").
            WriteBackSel::Data | WriteBackSel::NotData | WriteBackSel::Propagated
                if inputs.and_ab != inputs.nor_ab =>
            {
                inputs.and_ab
            }
            _ => fa_carry(inputs.and_ab, inputs.nor_ab, carry_in),
        };
        let writeback = match sel {
            WriteBackSel::Logic(op) => {
                // Reconstruct the operand AND/NOR views; in dual mode these
                // are the wires themselves.
                let d = bpimc_array::DualReadout {
                    and: one_bit(inputs.and_ab),
                    nor: one_bit(inputs.nor_ab),
                };
                op.eval(&d).get(0)
            }
            WriteBackSel::Sum => sum,
            WriteBackSel::Propagated => prop_in,
            WriteBackSel::Data => inputs.and_ab,
            WriteBackSel::NotData => inputs.nor_ab,
            WriteBackSel::Zero => false,
        };
        YPathOut {
            carry_out,
            writeback,
            sum,
        }
    }
}

fn one_bit(b: bool) -> bpimc_array::BitRow {
    let mut r = bpimc_array::BitRow::zeros(1);
    r.set(0, b);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_selection_matches_fa() {
        let y = YPath;
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let out = y.eval(ColumnInputs::dual(a, b), c, false, WriteBackSel::Sum);
                    let total = a as u8 + b as u8 + c as u8;
                    assert_eq!(out.writeback, total & 1 == 1);
                    assert_eq!(out.carry_out, total >= 2);
                    assert_eq!(out.sum, out.writeback);
                }
            }
        }
    }

    #[test]
    fn propagated_selection_ignores_local_data() {
        let y = YPath;
        let out = y.eval(
            ColumnInputs::dual(true, true),
            false,
            true,
            WriteBackSel::Propagated,
        );
        assert!(out.writeback, "wb must be the propagated bit");
    }

    #[test]
    fn single_wl_copy_and_not() {
        let y = YPath;
        for a in [false, true] {
            let c = y.eval(ColumnInputs::single(a), false, false, WriteBackSel::Data);
            assert_eq!(c.writeback, a);
            // The data rides the carry node toward the left neighbour.
            assert_eq!(c.carry_out, a);
            let n = y.eval(ColumnInputs::single(a), false, false, WriteBackSel::NotData);
            assert_eq!(n.writeback, !a);
        }
    }

    #[test]
    fn logic_selection_uses_logic_unit() {
        let y = YPath;
        let out = y.eval(
            ColumnInputs::dual(true, false),
            false,
            false,
            WriteBackSel::Logic(LogicOp::Xor),
        );
        assert!(out.writeback);
        let out = y.eval(
            ColumnInputs::dual(true, true),
            false,
            false,
            WriteBackSel::Logic(LogicOp::Nand),
        );
        assert!(!out.writeback);
    }

    #[test]
    fn zero_writes_zero() {
        let y = YPath;
        let out = y.eval(
            ColumnInputs::dual(true, true),
            true,
            true,
            WriteBackSel::Zero,
        );
        assert!(!out.writeback);
    }
}
