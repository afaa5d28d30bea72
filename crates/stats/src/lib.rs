//! Statistics utilities for the bpimc Monte-Carlo and calibration flows.
//!
//! This crate is intentionally small and dependency-light: it provides the
//! pieces the circuit-level reproduction needs and nothing more:
//!
//! * seeded random number helpers ([`seeded_rng`]),
//! * standard-normal sampling via Box-Muller ([`Normal`]),
//! * summary statistics and percentiles ([`Summary`]),
//! * fixed-bin histograms ([`Histogram`]) used to regenerate the paper's
//!   delay-distribution figure,
//! * the standard normal CDF/quantile and Gaussian-tail extrapolation
//!   ([`norm_cdf`], [`inv_norm_cdf`], [`TailFit`]) used to estimate read-disturb failure rates of
//!   ~2.5e-5 without millions of transient simulations.
//!
//! # Examples
//!
//! ```
//! use bpimc_stats::{seeded_rng, Normal, Summary};
//!
//! let mut rng = seeded_rng(42);
//! let normal = Normal::new(1.0, 0.1);
//! let xs: Vec<f64> = (0..1000).map(|_| normal.sample(&mut rng)).collect();
//! let s = Summary::from_slice(&xs);
//! assert!((s.mean - 1.0).abs() < 0.02);
//! ```

pub(crate) mod gauss;
pub(crate) mod histogram;
pub mod normal;
pub mod parallel;
pub(crate) mod summary;
pub mod sync;
pub(crate) mod tail;

pub use gauss::{inv_norm_cdf, norm_cdf};
pub use histogram::Histogram;
pub use normal::Normal;
pub use summary::Summary;
pub use tail::TailFit;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Creates a deterministic random number generator from a `u64` seed.
///
/// All Monte-Carlo entry points in the workspace take explicit seeds so that
/// experiments and tests are reproducible run-to-run.
///
/// # Examples
///
/// ```
/// use rand::Rng;
/// let mut a = bpimc_stats::seeded_rng(7);
/// let mut b = bpimc_stats::seeded_rng(7);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(123);
        let mut b = seeded_rng(123);
        for _ in 0..16 {
            assert_eq!(a.random::<f64>().to_bits(), b.random::<f64>().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let same = (0..8).all(|_| a.random::<u64>() == b.random::<u64>());
        assert!(!same);
    }
}
