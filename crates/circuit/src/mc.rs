//! Parallel Monte-Carlo execution with per-sample deterministic seeding.
//!
//! Every sample `i` of a run gets its own RNG seeded from `(seed, i)`, so
//! results are bit-identical regardless of thread count, scheduling or
//! batching — a property the workspace's reproducibility tests rely on.
//!
//! Two execution shapes share that contract:
//!
//! * [`montecarlo_map`] — the scalar path: one closure per sample, claimed
//!   off a shared queue in load-balanced blocks.
//! * [`montecarlo_batch`] — the fast path for transient sweeps: samples are
//!   sharded into cohorts, each cohort's circuits are built with their
//!   per-sample RNGs and solved together by one structure-of-arrays
//!   [`BatchSim`], and each finished trace is measured back into a
//!   per-sample value. Sample `i`'s result is bit-identical to building
//!   and running it alone (the batch engine's core guarantee). A sweep
//!   that measures one crossing passes it as the stop, and each sample
//!   ends at that crossing instead of the window's end
//!   (`BatchSim::run_until`).

use crate::batch::BatchSim;
use crate::netlist::Circuit;
use crate::sim::SimOptions;
use crate::trace::{Crossing, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives the per-sample RNG for sample `i` of a run seeded with `seed`.
///
/// Uses SplitMix64 on the combined value so neighbouring sample indices get
/// decorrelated streams.
pub fn sample_rng(seed: u64, i: u64) -> StdRng {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

/// Runs `n` Monte-Carlo samples of `f` in parallel and returns the results
/// in sample order.
///
/// `f` receives the sample index and a deterministic per-sample RNG.
///
/// # Examples
///
/// ```
/// use rand::Rng;
/// let xs = bpimc_circuit::mc::montecarlo_map(100, 42, |_, rng| rng.random::<f64>());
/// let again = bpimc_circuit::mc::montecarlo_map(100, 42, |_, rng| rng.random::<f64>());
/// assert_eq!(xs, again);
/// ```
pub fn montecarlo_map<T, F>(n: usize, seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut StdRng) -> T + Sync,
{
    // Claim-queue dispatch: adaptive transient samples vary in cost, so
    // fixed per-lane chunks would leave the fast lane idle behind the slow
    // one; claimed blocks (multi-millisecond granularity at the
    // workspace's sample costs) keep every lane busy to the end.
    bpimc_stats::parallel::par_claim_indexed_map(n, |i| {
        let mut rng = sample_rng(seed, i as u64);
        f(i, &mut rng)
    })
}

/// How many Monte-Carlo samples one [`BatchSim`] cohort carries in
/// [`montecarlo_batch`].
///
/// Wide enough to fill the host's SIMD lanes with headroom, narrow enough
/// that the spread of per-sample step counts (the whole cohort runs until
/// its slowest member finishes) wastes little work and a cohort's traces
/// stay cache-friendly.
pub const BATCH_COHORT: usize = 16;

/// Runs `n` Monte-Carlo transient samples through the structure-of-arrays
/// batch engine and returns per-sample measurements in sample order.
///
/// `build` receives the sample index and its deterministic `(seed, i)` RNG
/// and returns that sample's circuit; every circuit must share one
/// topology (they are process draws over one netlist — see
/// [`BatchSim::new`]). `measure` turns sample `i`'s finished trace into
/// its result. Cohorts of [`BATCH_COHORT`] samples are solved together and
/// fanned across the worker pool in claim-queue blocks, each carrying
/// multiple milliseconds of simulation.
///
/// With `stop` given, each sample's trace ends right after the first
/// stored row completing that crossing (`BatchSim::run_until`); it is a
/// prefix of the full-window trace, so a `measure` that reads only that
/// crossing returns the full-window value.
///
/// Results are bit-identical to the scalar path
/// (`montecarlo_map` + [`Circuit::run`]) sample for sample, for any cohort
/// size and thread count.
///
/// # Panics
///
/// Panics if `build` produces circuits with mismatched topologies.
///
/// # Examples
///
/// ```
/// use bpimc_circuit::{Circuit, SimOptions};
/// use bpimc_device::Env;
/// use rand::Rng;
///
/// // Node handles are positional, so a template build names the nodes
/// // every sample's circuit will have.
/// fn discharge(r: f64) -> (Circuit, bpimc_circuit::NodeId) {
///     let mut ckt = Circuit::new(Env::nominal());
///     let out = ckt.add_node("out", 10e-15, 0.9);
///     ckt.add_resistor(out, ckt.gnd(), r);
///     (ckt, out)
/// }
/// let (_, out) = discharge(10e3);
/// let opts = SimOptions::for_window(0.5e-9);
/// let finals = bpimc_circuit::mc::montecarlo_batch(
///     40,
///     7,
///     &opts,
///     None,
///     |_, rng| discharge(8_000.0 + 4_000.0 * rng.random::<f64>()).0,
///     |_, trace| trace.last_voltage(out),
/// );
/// assert_eq!(finals.len(), 40);
/// ```
pub fn montecarlo_batch<T, B, M>(
    n: usize,
    seed: u64,
    opts: &SimOptions,
    stop: Option<Crossing>,
    build: B,
    measure: M,
) -> Vec<T>
where
    T: Send,
    B: Fn(usize, &mut StdRng) -> Circuit + Sync,
    M: Fn(usize, &Trace) -> T + Sync,
{
    let cohorts = n.div_ceil(BATCH_COHORT);
    let per_cohort: Vec<Vec<T>> = bpimc_stats::parallel::par_claim_indexed_map(cohorts, |c| {
        let start = c * BATCH_COHORT;
        let end = (start + BATCH_COHORT).min(n);
        let circuits: Vec<Circuit> = (start..end)
            .map(|i| {
                let mut rng = sample_rng(seed, i as u64);
                build(i, &mut rng)
            })
            .collect();
        let sim = BatchSim::new(&circuits, opts).expect("cohort circuits share one topology");
        sim.run_until(stop)
            .iter()
            .enumerate()
            .map(|(k, trace)| measure(start + k, trace))
            .collect()
    });
    per_cohort.into_iter().flatten().collect()
}

/// Convenience wrapper returning `f64` samples (the common case: a measured
/// delay or margin per sample).
pub fn montecarlo<F>(n: usize, seed: u64, f: F) -> Vec<f64>
where
    F: Fn(usize, &mut StdRng) -> f64 + Sync,
{
    montecarlo_map(n, seed, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_are_in_sample_order_and_deterministic() {
        let xs = montecarlo_map(257, 7, |i, _| i);
        assert_eq!(xs, (0..257).collect::<Vec<_>>());
        let a = montecarlo(1000, 99, |_, rng| rng.random::<f64>());
        let b = montecarlo(1000, 99, |_, rng| rng.random::<f64>());
        assert_eq!(a, b);
    }

    #[test]
    fn different_samples_get_different_streams() {
        let xs = montecarlo(64, 1, |_, rng| rng.random::<f64>());
        let distinct: std::collections::HashSet<u64> = xs.iter().map(|x| x.to_bits()).collect();
        assert_eq!(distinct.len(), xs.len());
    }

    #[test]
    fn zero_samples_is_fine() {
        let xs = montecarlo(0, 1, |_, _| 0.0);
        assert!(xs.is_empty());
    }

    #[test]
    fn seed_changes_results() {
        let a = montecarlo(32, 1, |_, rng| rng.random::<f64>());
        let b = montecarlo(32, 2, |_, rng| rng.random::<f64>());
        assert_ne!(a, b);
    }

    #[test]
    fn montecarlo_batch_equals_the_scalar_path_sample_for_sample() {
        use crate::netlist::Circuit;
        use crate::sim::SimOptions;
        use bpimc_device::{Env, Mosfet, VtFlavor};

        // A mismatch-sampled NMOS pulldown, the fig2 workload in miniature.
        let build = |rng: &mut StdRng| {
            let mut ckt = Circuit::new(Env::nominal());
            let gate = ckt.add_source("g", crate::Waveform::step(0.0, 0.9, 100e-12, 20e-12));
            let bl = ckt.add_node("bl", 20e-15, 0.9);
            let dvt = 0.03 * (rng.random::<f64>() - 0.5);
            ckt.add_mosfet(
                Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0).with_dvt(dvt),
                bl,
                gate,
                ckt.gnd(),
            );
            (ckt, bl)
        };
        let opts = SimOptions::for_window(1e-9);
        // 37 samples: crosses cohort boundaries and leaves a remainder.
        let batched = montecarlo_batch(
            37,
            11,
            &opts,
            None,
            |_, rng| build(rng).0,
            |_, trace| {
                let (_, bl) = build(&mut sample_rng(0, 0));
                trace.last_voltage(bl)
            },
        );
        let scalar = montecarlo(37, 11, |_, rng| {
            let (ckt, bl) = build(rng);
            ckt.run(&opts).last_voltage(bl)
        });
        assert_eq!(batched.len(), scalar.len());
        for (i, (a, b)) in batched.iter().zip(&scalar).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sample {i}: {a} vs {b}");
        }
    }
}
