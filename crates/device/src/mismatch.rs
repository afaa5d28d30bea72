//! Local-variation (mismatch) sampling via the Pelgrom law.
//!
//! Random threshold-voltage variation between nominally identical devices is
//! what creates the bit-line computing delay *distribution* of the paper's
//! Fig. 2 and the read-disturb failure tail. The standard first-order model
//! is Pelgrom's law: `sigma(VT) = A_vt / sqrt(W * L)`.

use crate::model::Mosfet;
use bpimc_stats::normal::standard_normal;
use rand::Rng;

/// Sampler that draws per-device threshold shifts.
///
/// A `sigma_scale` of 1.0 is the nominal process; tests use smaller values
/// to exercise plumbing quickly, and robustness studies can crank it up.
///
/// # Examples
///
/// ```
/// use bpimc_device::{MismatchModel, Mosfet, VtFlavor};
/// let mut rng = bpimc_stats::seeded_rng(9);
/// let mm = MismatchModel::nominal();
/// let m = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
/// let inst = mm.sample(&m, &mut rng);
/// assert!(inst.dvt().abs() < 0.3); // a few sigma at most
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchModel {
    sigma_scale: f64,
}

impl MismatchModel {
    /// Nominal process mismatch (scale = 1).
    pub fn nominal() -> Self {
        Self { sigma_scale: 1.0 }
    }

    /// A model with scaled mismatch strength.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_scale` is negative or not finite.
    pub fn with_scale(sigma_scale: f64) -> Self {
        assert!(
            sigma_scale.is_finite() && sigma_scale >= 0.0,
            "sigma_scale must be finite and non-negative"
        );
        Self { sigma_scale }
    }

    /// No mismatch at all (deterministic circuits).
    pub fn none() -> Self {
        Self { sigma_scale: 0.0 }
    }

    /// Draws a mismatched instance of `device`.
    pub fn sample<R: Rng + ?Sized>(&self, device: &Mosfet, rng: &mut R) -> Mosfet {
        let sigma = device.sigma_vt() * self.sigma_scale;
        device.with_dvt(sigma * standard_normal(rng))
    }
}

impl Default for MismatchModel {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::VtFlavor;
    use bpimc_stats::{seeded_rng, Summary};

    #[test]
    fn sampled_sigma_matches_pelgrom() {
        let mut rng = seeded_rng(17);
        let mm = MismatchModel::nominal();
        let m = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
        let dvts: Vec<f64> = (0..20_000).map(|_| mm.sample(&m, &mut rng).dvt()).collect();
        let s = Summary::from_slice(&dvts);
        assert!(s.mean.abs() < 1e-3, "mean {}", s.mean);
        let expect = m.sigma_vt();
        assert!(
            (s.std - expect).abs() / expect < 0.03,
            "std {} vs {}",
            s.std,
            expect
        );
    }

    #[test]
    fn none_is_deterministic() {
        let mut rng = seeded_rng(3);
        let mm = MismatchModel::none();
        let m = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
        for _ in 0..4 {
            assert_eq!(mm.sample(&m, &mut rng).dvt(), 0.0);
        }
    }

    #[test]
    fn scale_multiplies_sigma() {
        let mut rng = seeded_rng(5);
        let m = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
        let wide = MismatchModel::with_scale(3.0);
        let dvts: Vec<f64> = (0..10_000)
            .map(|_| wide.sample(&m, &mut rng).dvt())
            .collect();
        let s = Summary::from_slice(&dvts);
        let expect = 3.0 * m.sigma_vt();
        assert!((s.std - expect).abs() / expect < 0.05);
    }
}
