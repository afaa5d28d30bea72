//! Per-cycle activity logging.
//!
//! Every cycle the executor runs is recorded with enough detail for the
//! energy model to reproduce the paper's Table II: which phases ran, how
//! many columns computed, how many were written back and whether the BL
//! separator shielded the write, and how many multiplier FF bits clocked.

use crate::isa::OpKind;
use bpimc_array::CycleKind;
use bpimc_periph::Precision;

/// What happened in one macro cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleActivity {
    /// The access type of the cycle.
    pub kind: CycleKind,
    /// Columns participating in the BL compute / sense phase.
    pub compute_cols: usize,
    /// Columns whose FA/logic slice evaluated.
    pub logic_cols: usize,
    /// Columns driven by the write-back phase.
    pub wb_cols: usize,
    /// Whether the write-back targeted a dummy row.
    pub wb_to_dummy: bool,
    /// Whether the BL separator shielded the write-back.
    pub wb_shielded: bool,
    /// Whether the write-back inverts the just-read data (a NOT), forcing
    /// every bit-line to swing against its read polarity — the expensive
    /// write case the energy model charges separately.
    pub wb_inverting: bool,
    /// Multiplier FF bits clocked this cycle.
    pub ff_bits: usize,
}

impl CycleActivity {}

/// One executed operation: its kind, precision and cycle span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Operation kind.
    pub(crate) kind: OpKind,
    /// The precision it ran at (logic/copy ops report the full row and use
    /// [`Precision::P8`] only as a placeholder when irrelevant).
    pub(crate) precision: Precision,
    /// Index of its first cycle in the log.
    pub(crate) first_cycle: usize,
    /// Number of cycles it took.
    pub(crate) cycle_count: usize,
}

/// The complete activity history of a macro.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActivityLog {
    cycles: Vec<CycleActivity>,
    ops: Vec<OpRecord>,
}

impl ActivityLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one cycle.
    pub(crate) fn push_cycle(&mut self, c: CycleActivity) {
        self.cycles.push(c);
    }

    /// Records an operation spanning the last `cycle_count` cycles.
    pub(crate) fn push_op(&mut self, kind: OpKind, precision: Precision, cycle_count: usize) {
        let first_cycle = self.cycles.len().saturating_sub(cycle_count);
        self.ops.push(OpRecord {
            kind,
            precision,
            first_cycle,
            cycle_count,
        });
    }

    /// All recorded cycles.
    pub fn cycles(&self) -> &[CycleActivity] {
        &self.cycles
    }

    /// All recorded operations.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Total cycle count.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.len() as u64
    }

    /// Clears all history (used between measurements).
    pub(crate) fn clear(&mut self) {
        self.cycles.clear();
        self.ops.clear();
    }
}

/// Per-session accounting for a multi-client workload.
///
/// Where [`ActivityLog`] records every cycle of one macro, a
/// `SessionActivity` aggregates the *billable* totals of one client
/// session served by a shared [`MacroBank`](crate::MacroBank): how many
/// requests it issued, how many failed, and the hardware cycles and energy
/// its successful requests consumed — regardless of which macro each
/// request happened to land on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionActivity {
    /// Requests the session has completed (successes and failures).
    pub requests: u64,
    /// Requests that failed (bad input, execution error, contained panic).
    pub errors: u64,
    /// Hardware cycles consumed by the session's successful requests.
    pub cycles: u64,
    /// Energy consumed by the session's successful requests, femtojoules
    /// (Table II-calibrated, 0.9 V).
    pub energy_fj: f64,
}

impl SessionActivity {
    /// A fresh, empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one successful request and the hardware work it consumed.
    pub fn record_ok(&mut self, cycles: u64, energy_fj: f64) {
        self.requests += 1;
        self.cycles += cycles;
        self.energy_fj += energy_fj;
    }

    /// Records one failed request (no hardware work billed).
    pub fn record_error(&mut self) {
        self.requests += 1;
        self.errors += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cycle with no array activity at all.
    fn idle() -> CycleActivity {
        CycleActivity {
            kind: CycleKind::ReadOnly,
            compute_cols: 0,
            logic_cols: 0,
            wb_cols: 0,
            wb_to_dummy: false,
            wb_shielded: false,
            wb_inverting: false,
            ff_bits: 0,
        }
    }

    #[test]
    fn session_activity_accumulates() {
        let mut s = SessionActivity::new();
        s.record_ok(10, 1.5);
        s.record_ok(4, 0.5);
        s.record_error();
        assert_eq!(s.requests, 3);
        assert_eq!(s.errors, 1);
        assert_eq!(s.cycles, 14);
        assert!((s.energy_fj - 2.0).abs() < 1e-12);
    }

    #[test]
    fn op_spans_map_to_cycles() {
        let mut log = ActivityLog::new();
        log.push_cycle(idle());
        log.push_cycle(CycleActivity {
            compute_cols: 64,
            ..idle()
        });
        log.push_op(OpKind::Sub, Precision::P8, 2);
        let op = *log.ops().last().unwrap();
        assert_eq!(op.first_cycle, 0);
        let span = &log.cycles()[op.first_cycle..][..op.cycle_count];
        assert_eq!(span.len(), 2);
        assert_eq!(span[1].compute_cols, 64);
        assert_eq!(log.total_cycles(), 2);
    }

    #[test]
    fn clear_resets() {
        let mut log = ActivityLog::new();
        log.push_cycle(idle());
        log.push_op(OpKind::Not, Precision::P8, 1);
        log.clear();
        assert_eq!(log.total_cycles(), 0);
        assert!(log.ops().is_empty());
    }
}
