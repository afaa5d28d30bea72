//! Read-disturb Monte-Carlo and failure-rate extrapolation.
//!
//! The paper compares its short-WL + boost scheme against WLUD *at equal
//! read-disturb failure rate* (2.5e-5, its Fig. 2). This module provides
//! that machinery: sample cell mismatch, simulate the dual-WL access,
//! extract the worst storage-node margin and fit a Gaussian tail to it.

use crate::blbench::{BlComputeBench, BlOutcome};
use crate::boost::BoostDevices;
use crate::sram6t::CellDevices;
#[cfg(test)]
use bpimc_circuit::mc::montecarlo;
use bpimc_circuit::mc::montecarlo_batch;
use bpimc_circuit::SimOptions;
use bpimc_device::MismatchModel;
use bpimc_stats::TailFit;
use rand::rngs::StdRng;

/// A Monte-Carlo disturb study over one bench configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DisturbStudy {
    bench: BlComputeBench,
    mismatch: MismatchModel,
}

impl DisturbStudy {
    /// Creates a study of `bench` under `mismatch`.
    pub fn new(bench: BlComputeBench, mismatch: MismatchModel) -> Self {
        Self { bench, mismatch }
    }

    /// The underlying bench.
    pub fn bench(&self) -> &BlComputeBench {
        &self.bench
    }

    /// Builds one mismatch-sampled instance of the bench netlist for the
    /// worst-case operand pattern (A = 0, B = 1: BLT discharges under cell
    /// B's high node while BLB chews at its low node).
    ///
    /// This method **owns the sampling-order contract** — cell A, cell B,
    /// BLT booster, BLB booster — for every execution path (batched,
    /// scalar reference, benchmarks), so per-sample draws can never drift
    /// apart between them.
    pub fn sampled_circuit(&self, rng: &mut StdRng) -> bpimc_circuit::Circuit {
        let mm = &self.mismatch;
        let cell_a = CellDevices::sampled(self.bench.sizing, mm, rng);
        let cell_b = CellDevices::sampled(self.bench.sizing, mm, rng);
        let boost_t = BoostDevices::sampled(self.bench.boost_sizing, mm, rng);
        let boost_b = BoostDevices::sampled(self.bench.boost_sizing, mm, rng);
        self.bench
            .build(&cell_a, &cell_b, &boost_t, &boost_b, false, true)
            .0
    }

    /// The observable nodes of this study's bench netlist (positional, so
    /// they name the nodes of every sampled instance too).
    pub fn bench_nodes(&self) -> crate::blbench::BenchNodes {
        let cell = CellDevices::nominal(self.bench.sizing);
        let boost = BoostDevices::nominal(self.bench.boost_sizing);
        self.bench
            .build(&cell, &cell, &boost, &boost, false, true)
            .1
    }

    /// Runs `n` Monte-Carlo samples through the structure-of-arrays batch
    /// engine and measures each outcome — the execution path behind both
    /// [`DisturbStudy::margins`] and [`DisturbStudy::delays`]. With
    /// `stop_at_trip`, each sample's trace ends at BLT's SA trip, so only
    /// the outcome's `delay_s` is the full-window value; its margins and
    /// final state describe the shortened trace.
    fn outcomes_batch(&self, n: usize, seed: u64, stop_at_trip: bool) -> Vec<BlOutcome> {
        let nodes = self.bench_nodes();
        let opts = SimOptions::for_window(self.bench.window());
        montecarlo_batch(
            n,
            seed,
            &opts,
            stop_at_trip.then(|| self.bench.blt_trip(&nodes)),
            |_, rng| self.sampled_circuit(rng),
            |_, trace| self.bench.measure(trace, &nodes, false, true),
        )
    }

    /// Samples `n` disturb margins for the worst-case operand pattern
    /// (A = 0, B = 1), batched across instances — bit-identical, sample for
    /// sample, to the scalar solver's reference kept in this module's tests.
    pub(crate) fn margins(&self, n: usize, seed: u64) -> Vec<f64> {
        self.outcomes_batch(n, seed, false)
            .iter()
            .map(BlOutcome::worst_margin)
            .collect()
    }

    /// [`DisturbStudy::margins`] on the scalar one-instance-at-a-time
    /// solver — the verified reference path the batch engine is pinned
    /// against. Same [`DisturbStudy::sampled_circuit`] draws, different
    /// solver.
    #[cfg(test)]
    fn margins_scalar(&self, n: usize, seed: u64) -> Vec<f64> {
        let nodes = self.bench_nodes();
        let opts = SimOptions::for_window(self.bench.window());
        montecarlo(n, seed, |_, rng| {
            let trace = self.sampled_circuit(rng).run(&opts);
            self.bench
                .measure(&trace, &nodes, false, true)
                .worst_margin()
        })
    }

    /// Samples `n` BL computing delays for a discharging pattern (A=0, B=1),
    /// batched across instances — bit-identical, sample for sample, to the
    /// scalar solver's reference kept in this module's tests.
    ///
    /// Each sample is solved only until BLT trips the SA: the delay is
    /// decided at the first stored row past the trip level, so the rest of
    /// the window cannot change it ([`bpimc_circuit::BatchSim::run_until`]).
    /// Samples whose BL never trips the SA within the window (deep slow-tail
    /// events) run to its end and are reported as the window length, i.e.
    /// right-censored rather than dropped.
    pub fn delays(&self, n: usize, seed: u64) -> Vec<f64> {
        let window = self.bench.window();
        self.outcomes_batch(n, seed, true)
            .iter()
            .map(|out| out.delay_s.unwrap_or(window))
            .collect()
    }

    /// [`DisturbStudy::delays`] on the scalar one-instance-at-a-time
    /// solver — the verified reference path the batch engine is pinned
    /// against. Same [`DisturbStudy::sampled_circuit`] draws, different
    /// solver.
    #[cfg(test)]
    fn delays_scalar(&self, n: usize, seed: u64) -> Vec<f64> {
        let nodes = self.bench_nodes();
        let window = self.bench.window();
        let opts = SimOptions::for_window(window);
        montecarlo(n, seed, |_, rng| {
            let trace = self.sampled_circuit(rng).run(&opts);
            let out = self.bench.measure(&trace, &nodes, false, true);
            out.delay_s.unwrap_or(window)
        })
    }

    /// Fits the margin distribution and returns the tail model; the failure
    /// probability is `P(margin < 0)`.
    pub fn failure_fit(&self, n: usize, seed: u64) -> TailFit {
        TailFit::from_margins(&self.margins(n, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blbench::WlScheme;
    use bpimc_device::Env;
    use bpimc_stats::Summary;

    /// Small-n smoke studies; the full-scale runs live in the bench harness.
    fn quick_study(scheme: WlScheme) -> DisturbStudy {
        let bench = BlComputeBench::new(128, Env::nominal(), scheme);
        DisturbStudy::new(bench, MismatchModel::nominal())
    }

    #[test]
    fn margins_are_positive_at_nominal_operating_points() {
        for scheme in [WlScheme::Wlud { v_wl: 0.55 }, WlScheme::short_boost_140ps()] {
            let m = quick_study(scheme).margins(24, 7);
            let s = Summary::from_slice(&m);
            assert!(s.min > 0.0, "{scheme:?}: min margin {}", s.min);
        }
    }

    #[test]
    fn full_static_wl_fails_much_more_often_than_wlud() {
        let full = quick_study(WlScheme::FullStatic).failure_fit(24, 3);
        let wlud = quick_study(WlScheme::Wlud { v_wl: 0.55 }).failure_fit(24, 3);
        assert!(
            full.failure_probability() > 10.0 * wlud.failure_probability(),
            "full {} vs wlud {}",
            full.failure_probability(),
            wlud.failure_probability()
        );
    }

    #[test]
    fn wlud_failure_grows_with_wl_level() {
        let lo = quick_study(WlScheme::Wlud { v_wl: 0.5 }).failure_fit(24, 11);
        let hi = quick_study(WlScheme::Wlud { v_wl: 0.75 }).failure_fit(24, 11);
        assert!(hi.failure_probability() > lo.failure_probability());
    }

    #[test]
    fn pulse_failure_grows_with_width() {
        let short = quick_study(WlScheme::ShortBoost { pulse_s: 100e-12 }).failure_fit(24, 13);
        let long = quick_study(WlScheme::ShortBoost { pulse_s: 450e-12 }).failure_fit(24, 13);
        assert!(
            long.failure_probability() > short.failure_probability(),
            "long {} vs short {}",
            long.failure_probability(),
            short.failure_probability()
        );
    }

    #[test]
    fn delays_are_censored_not_dropped() {
        let d = quick_study(WlScheme::short_boost_140ps()).delays(16, 5);
        assert_eq!(d.len(), 16);
        assert!(d.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn delays_stopped_at_the_trip_match_the_full_window_scalar_path() {
        // At a 0.40 V WLUD level this cohort mixes samples that trip the SA
        // (their batched solve stops there) with right-censored samples
        // that never do (they run the whole window).
        let s = quick_study(WlScheme::Wlud { v_wl: 0.40 });
        let window = s.bench().window();
        let (d_batch, d_scalar) = (s.delays(40, 9), s.delays_scalar(40, 9));
        assert_eq!(d_batch.len(), 40);
        for (i, (a, b)) in d_batch.iter().zip(&d_scalar).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "delay sample {i}: {a} vs {b}");
        }
        let censored = d_batch.iter().filter(|&&d| d == window).count();
        assert!(
            censored > 0 && censored < d_batch.len(),
            "{censored} of 40 censored; the test needs tripped and censored samples"
        );
    }

    #[test]
    fn batched_studies_match_the_scalar_reference_bit_for_bit() {
        // 20 samples spans a cohort boundary at BATCH_COHORT = 16; every
        // per-sample measurement must agree with the scalar solver exactly.
        for scheme in [WlScheme::short_boost_140ps(), WlScheme::Wlud { v_wl: 0.55 }] {
            let s = quick_study(scheme);
            let d_batch = s.delays(20, 9);
            let d_scalar = s.delays_scalar(20, 9);
            assert_eq!(d_batch.len(), d_scalar.len());
            for (i, (a, b)) in d_batch.iter().zip(&d_scalar).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{scheme:?} delay sample {i}");
            }
            let m_batch = s.margins(20, 31);
            let m_scalar = s.margins_scalar(20, 31);
            for (i, (a, b)) in m_batch.iter().zip(&m_scalar).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{scheme:?} margin sample {i}");
            }
        }
    }
}
