//! Gaussian-tail extrapolation of rare-event probabilities.
//!
//! The paper calibrates its two bit-line computing schemes at an *iso*
//! read-disturb failure rate of 2.5e-5 (Fig. 2). Estimating such rates by
//! direct Monte-Carlo requires millions of transient simulations; the
//! standard practice in SRAM margin analysis (and what we implement here) is
//! to simulate a few thousand samples of the continuous *margin* variable,
//! fit a normal distribution, and extrapolate the tail probability
//! `P(margin < 0)` from the fitted z-score.

use crate::gauss::norm_sf;
use crate::summary::Summary;

/// A normal fit to a margin sample, with tail-probability queries.
///
/// # Examples
///
/// ```
/// use bpimc_stats::{seeded_rng, Normal, TailFit};
/// let mut rng = bpimc_stats::seeded_rng(5);
/// let n = Normal::new(4.0, 1.0);
/// let margins = n.sample_n(&mut rng, 4000);
/// let fit = TailFit::from_margins(&margins);
/// // True P(margin < 0) = P(Z < -4) ~ 3.2e-5.
/// let p = fit.failure_probability();
/// assert!(p > 3.0e-6 && p < 3.0e-4, "p = {p}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailFit {
    mean: f64,
    sigma: f64,
}

impl TailFit {
    /// Fits a normal to `margins` (the distance-to-failure samples).
    ///
    /// # Panics
    ///
    /// Panics if `margins` is empty, contains non-finite values, or has zero
    /// spread (a degenerate fit cannot extrapolate).
    pub fn from_margins(margins: &[f64]) -> Self {
        let s = Summary::from_slice(margins);
        assert!(
            s.std > 0.0,
            "margin sample has zero spread; cannot fit tail"
        );
        Self {
            mean: s.mean,
            sigma: s.std,
        }
    }

    /// The z-score of the failure boundary (margin = 0): `mean / sigma`.
    pub fn z_margin(&self) -> f64 {
        self.mean / self.sigma
    }

    /// Extrapolated failure probability `P(margin < 0)`.
    pub fn failure_probability(&self) -> f64 {
        norm_sf(self.z_margin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_and_probability() {
        let fit = TailFit {
            mean: 4.0556,
            sigma: 1.0,
        };
        let p = fit.failure_probability();
        // Phi(-4.0556) ~ 2.5e-5, the paper's iso-failure point.
        assert!((p - 2.5e-5).abs() < 2.5e-6, "p={p}");
    }

    #[test]
    fn fit_from_samples() {
        use crate::{seeded_rng, Normal};
        let mut rng = seeded_rng(11);
        let xs = Normal::new(5.0, 1.25).sample_n(&mut rng, 10_000);
        let fit = TailFit::from_margins(&xs);
        assert!((fit.mean - 5.0).abs() < 0.05);
        assert!((fit.sigma - 1.25).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "zero spread")]
    fn degenerate_sample_panics() {
        let _ = TailFit::from_margins(&[1.0, 1.0, 1.0]);
    }
}
