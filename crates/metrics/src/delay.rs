//! The per-cycle delay component breakdown (Fig. 8 left).

use crate::scaling::DelayScaling;
use bpimc_array::CyclePhase;
use bpimc_device::Env;

/// Per-phase delays of one computing cycle, seconds, at a given condition.
///
/// The reference values (0.9 V, NN) are the paper's own published breakdown:
/// precharge 60 ps (10.0 %), WL activation 140 ps (23.2 %), BL sensing
/// 130 ps (21.6 %), 16-bit adder logic 222 ps (36.8 %), write-back 51 ps
/// (8.5 %).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentDelays {
    /// BL precharge (with BSTRS reset folded in), seconds.
    pub(crate) precharge: f64,
    /// WL activation (the short pulse), seconds.
    pub(crate) wl_activate: f64,
    /// BL swing + sensing (boost + SA), seconds.
    pub(crate) sense: f64,
    /// Column logic for a 16-bit carry chain, seconds.
    pub(crate) logic_16b: f64,
    /// Write-back (separator on), seconds.
    pub(crate) writeback: f64,
}

impl ComponentDelays {
    /// The paper's breakdown at the 0.9 V NN reference.
    pub fn paper_reference() -> Self {
        Self {
            precharge: 60e-12,
            wl_activate: 140e-12,
            sense: 130e-12,
            logic_16b: 222e-12,
            writeback: 51e-12,
        }
    }

    /// The breakdown scaled to an environment.
    pub(crate) fn at(env: &Env) -> Self {
        let k = DelayScaling::paper_fit().delay_factor(env);
        let r = Self::paper_reference();
        Self {
            precharge: r.precharge * k,
            wl_activate: r.wl_activate * k,
            sense: r.sense * k,
            logic_16b: r.logic_16b * k,
            writeback: r.writeback * k,
        }
    }

    /// The delay of one phase.
    pub fn phase(&self, p: CyclePhase) -> f64 {
        match p {
            CyclePhase::Precharge => self.precharge,
            CyclePhase::WlActivate => self.wl_activate,
            CyclePhase::Sense => self.sense,
            CyclePhase::Logic => self.logic_16b,
            CyclePhase::WriteBack => self.writeback,
        }
    }

    /// Sum of all five components (the paper's "1 cycle" stack, 603 ps at
    /// reference).
    pub fn total(&self) -> f64 {
        self.precharge + self.wl_activate + self.sense + self.logic_16b + self.writeback
    }

    /// The pipeline-visible cycle time: precharge is hidden under the
    /// previous cycle's logic + write-back phases, so the critical path is
    /// WL + sense + logic + write-back (543 ps at reference -> 2.25 GHz at
    /// 1.0 V).
    pub fn cycle_time(&self) -> f64 {
        self.wl_activate + self.sense + self.logic_16b + self.writeback
    }

    /// The fraction of the total stack each phase occupies, in the paper's
    /// plotting order.
    pub fn fractions(&self) -> [(CyclePhase, f64); 5] {
        let t = self.total();
        CyclePhase::ALL.map(|p| (p, self.phase(p) / t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_percentages_match_the_paper() {
        let d = ComponentDelays::paper_reference();
        assert!((d.total() - 603e-12).abs() < 1e-15);
        let f: Vec<f64> = d.fractions().iter().map(|(_, x)| *x * 100.0).collect();
        // Paper: 10.0 %, 23.2 %, 21.6 %, 36.8 %, 8.5 %.
        for (got, want) in f.iter().zip([10.0, 23.2, 21.6, 36.8, 8.5]) {
            assert!((got - want).abs() < 0.15, "{got} vs {want}");
        }
    }

    #[test]
    fn cycle_time_excludes_precharge() {
        let d = ComponentDelays::paper_reference();
        assert!((d.cycle_time() - 543e-12).abs() < 1e-15);
    }

    #[test]
    fn scaling_is_uniform() {
        let lo = ComponentDelays::at(&Env::nominal().with_vdd(0.7));
        let ref_ = ComponentDelays::paper_reference();
        let k = lo.total() / ref_.total();
        assert!(k > 1.5, "0.7 V must be much slower");
        assert!((lo.writeback / ref_.writeback - k).abs() < 1e-9);
    }
}
