//! Normal (Gaussian) sampling via the Box-Muller transform.
//!
//! Implemented in-repo so the workspace only depends on `rand` itself (the
//! `rand_distr` companion crate is not part of the approved dependency set).

use rand::Rng;

/// A normal distribution parameterised by mean and standard deviation.
///
/// # Examples
///
/// ```
/// use bpimc_stats::{seeded_rng, Normal};
/// let mut rng = seeded_rng(1);
/// let n = Normal::new(0.0, 1.0);
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and non-negative, got {sigma}"
        );
        assert!(mean.is_finite(), "mean must be finite, got {mean}");
        Self { mean, sigma }
    }

    /// Draws one sample using the Box-Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sigma * standard_normal(rng)
    }

    /// Draws `n` samples into a fresh vector.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Draws a single standard-normal (mean 0, sigma 1) sample.
///
/// Uses the polar-free Box-Muller form; one of the two generated variates is
/// discarded which keeps the call stateless (no cached spare), a deliberate
/// trade of a little speed for reproducibility under interleaved sampling.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use crate::Summary;

    #[test]
    fn moments_are_close() {
        let mut rng = seeded_rng(99);
        let n = Normal::new(2.0, 0.5);
        let xs = n.sample_n(&mut rng, 20_000);
        let s = Summary::from_slice(&xs);
        assert!((s.mean - 2.0).abs() < 0.02, "mean {}", s.mean);
        assert!((s.std - 0.5).abs() < 0.02, "std {}", s.std);
    }

    #[test]
    fn zero_sigma_is_constant() {
        let mut rng = seeded_rng(3);
        let n = Normal::new(1.25, 0.0);
        for _ in 0..8 {
            assert_eq!(n.sample(&mut rng), 1.25);
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be finite")]
    fn negative_sigma_panics() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    fn standard_normal_symmetric() {
        let mut rng = seeded_rng(7);
        let n = 50_000;
        let pos = (0..n).filter(|_| standard_normal(&mut rng) > 0.0).count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "frac {frac}");
    }
}
