//! Fig. 2 — Monte-Carlo distribution of the BL computation delay.
//!
//! WLUD (0.55 V word-line) versus the proposed short WL (140 ps) + BL
//! boosting, at 28 nm, 0.9 V, 25 C, NN, with the two schemes operating at
//! (approximately) iso read-disturb failure rate (the paper's 2.5e-5).

use crate::textfmt::ns;
use bpimc_cell::blbench::{BlComputeBench, WlScheme};
use bpimc_cell::disturb::DisturbStudy;
use bpimc_device::{Env, MismatchModel};
use bpimc_stats::{Histogram, Summary, TailFit};
use std::fmt;

/// The result of the Fig. 2 experiment.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// WLUD delay samples (seconds).
    pub wlud_delays: Vec<f64>,
    /// Proposed-scheme delay samples (seconds).
    pub prop_delays: Vec<f64>,
    /// Extrapolated WLUD disturb failure probability.
    pub(crate) wlud_failure: f64,
    /// Extrapolated proposed-scheme disturb failure probability.
    pub(crate) prop_failure: f64,
    /// WLUD disturb-margin z-score (mean/sigma; the iso point 2.5e-5 is
    /// z = 4.06). Finite even when the probability underflows.
    pub(crate) wlud_z: f64,
    /// Proposed-scheme disturb-margin z-score.
    pub(crate) prop_z: f64,
    /// Sample count per scheme.
    pub samples: usize,
}

impl Fig2Result {
    /// Delay summary of the WLUD scheme.
    pub fn wlud_summary(&self) -> Summary {
        Summary::from_slice(&self.wlud_delays)
    }

    /// Delay summary of the proposed scheme.
    pub fn prop_summary(&self) -> Summary {
        Summary::from_slice(&self.prop_delays)
    }

    /// The paper's qualitative claim: the WLUD distribution has the long
    /// tail. Compares the relative tail extents ((p99 - median) / median).
    pub fn wlud_tail_is_longer(&self) -> bool {
        let w = self.wlud_summary();
        let p = self.prop_summary();
        (w.p99 - w.p50) / w.p50 > (p.p99 - p.p50) / p.p50
    }

    /// A histogram over the paper's 0.5-3.5 ns axis.
    pub(crate) fn histogram(&self, scheme_prop: bool) -> Histogram {
        let mut h = Histogram::new(0.0e-9, 3.5e-9, 70);
        h.extend(
            (if scheme_prop {
                &self.prop_delays
            } else {
                &self.wlud_delays
            })
            .iter()
            .copied(),
        );
        h
    }
}

/// Runs the experiment with `n` Monte-Carlo samples per scheme.
pub fn run(n: usize, seed: u64) -> Fig2Result {
    let env = Env::nominal();
    let mm = MismatchModel::nominal();
    let wlud = DisturbStudy::new(
        BlComputeBench::new(128, env, WlScheme::Wlud { v_wl: 0.55 }),
        mm,
    );
    let prop = DisturbStudy::new(
        BlComputeBench::new(128, env, WlScheme::short_boost_140ps()),
        mm,
    );
    let wlud_delays = wlud.delays(n, seed);
    let prop_delays = prop.delays(n, seed ^ 0x5555);
    // Failure rates are extrapolated from margin fits on a smaller sample
    // (each margin run is a full transient too).
    let n_fit = (n / 2).clamp(16, 600);
    let wlud_fit: TailFit = wlud.failure_fit(n_fit, seed ^ 0xABCD);
    let prop_fit: TailFit = prop.failure_fit(n_fit, seed ^ 0xDCBA);
    Fig2Result {
        wlud_delays,
        prop_delays,
        wlud_failure: wlud_fit.failure_probability(),
        prop_failure: prop_fit.failure_probability(),
        wlud_z: wlud_fit.z_margin(),
        prop_z: prop_fit.z_margin(),
        samples: n,
    }
}

impl fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.wlud_summary();
        let p = self.prop_summary();
        writeln!(
            f,
            "Fig. 2 — BL computing delay distribution ({} MC samples, 0.9 V NN)",
            self.samples
        )?;
        writeln!(
            f,
            "  WLUD (0.55 V WL):        mean {} | p50 {} | p99 {} | max {}",
            ns(w.mean),
            ns(w.p50),
            ns(w.p99),
            ns(w.max)
        )?;
        writeln!(
            f,
            "  Short WL (140 ps)+Boost: mean {} | p50 {} | p99 {} | max {}",
            ns(p.mean),
            ns(p.p50),
            ns(p.p99),
            ns(p.max)
        )?;
        writeln!(
            f,
            "  extrapolated disturb failure: WLUD {:.2e} (z {:.1}), proposed {:.2e} (z {:.1});",
            self.wlud_failure, self.wlud_z, self.prop_failure, self.prop_z
        )?;
        writeln!(
            f,
            "  (paper iso-point 2.5e-5 = z 4.06; both schemes sit at or beyond it here)"
        )?;
        writeln!(f, "  long tail on WLUD: {}", self.wlud_tail_is_longer())?;
        writeln!(f, "\n  proposed-scheme histogram (x = ns):")?;
        write!(f, "{}", self.histogram(true))?;
        writeln!(f, "\n  WLUD histogram (x = ns):")?;
        write!(f, "{}", self.histogram(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_paper() {
        let r = run(40, 99);
        assert_eq!(r.wlud_delays.len(), 40);
        let w = r.wlud_summary();
        let p = r.prop_summary();
        // Proposed is much faster on average...
        assert!(p.mean < 0.6 * w.mean, "prop {} vs wlud {}", p.mean, w.mean);
        // ...and tighter in both absolute and relative spread.
        assert!(p.std < w.std);
        assert!(r.wlud_tail_is_longer());
        // Display renders without panicking.
        assert!(!format!("{r}").is_empty());
    }

    /// Pins the exact bits of a small run, so a solver or kernel change
    /// that moves a single delay or margin bit fails here. The hash is
    /// FNV-1a over the little-endian bit patterns of the WLUD then the
    /// proposed delay vector (the formula `perfbench` pins full runs with).
    #[test]
    fn small_run_is_bit_identical_to_the_pinned_values() {
        let r = run(32, 2020);
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for v in r.wlud_delays.iter().chain(&r.prop_delays) {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        assert_eq!(h, 0x47e6_f676_16c6_7486, "delay hash {h:#018x}");
        let z = (r.wlud_z.to_bits(), r.prop_z.to_bits());
        let want = (0x4047_1715_86e0_cb44, 0x405c_1e2b_98c0_0fee);
        assert_eq!(z, want, "z-scores {} and {}", r.wlud_z, r.prop_z);
    }
}
