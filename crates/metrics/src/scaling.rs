//! Voltage and corner scaling of path delays.
//!
//! All macro-level delay numbers in this crate are specified at the paper's
//! reference condition (0.9 V, 25 C, NN) and scaled elsewhere with an
//! alpha-power law `delay ∝ V / (V - VT_eff)^alpha`.
//!
//! `VT_eff` and `alpha` here are *effective composite-path* fit parameters
//! (they absorb WL-driver, SA-margin and wire effects), chosen so the model
//! passes through the paper's two published frequency points: 2.25 GHz at
//! 1.0 V and 372 MHz at 0.6 V. They are not the device threshold voltages
//! of `bpimc-device`.

use bpimc_device::{Corner, Env};

/// The alpha-power delay scaling law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayScaling {
    /// Effective composite-path threshold, volts.
    pub(crate) vt_eff: f64,
    /// Effective velocity-saturation exponent.
    pub(crate) alpha: f64,
    /// Fractional delay increase at the slow-slow corner (fast-fast is the
    /// mirror image; skewed corners get a third of the effect).
    pub(crate) corner_spread: f64,
}

impl DelayScaling {
    /// The fit used throughout the workspace (see module docs).
    pub fn paper_fit() -> Self {
        Self {
            vt_eff: 0.515,
            alpha: 1.325,
            corner_spread: 0.10,
        }
    }

    /// Relative delay at `env` w.r.t. the 0.9 V NN reference (1.0 there).
    ///
    /// # Panics
    ///
    /// Panics if `env.vdd` is at or below the effective threshold — the
    /// macro does not operate there (the paper's range ends at 0.6 V).
    pub fn delay_factor(&self, env: &Env) -> f64 {
        assert!(
            env.vdd > self.vt_eff + 0.01,
            "supply {} V is below the operating range (vt_eff {})",
            env.vdd,
            self.vt_eff
        );
        let g = |v: f64| v / (v - self.vt_eff).powf(self.alpha);
        let voltage = g(env.vdd) / g(0.9);
        voltage * self.corner_factor(env.corner)
    }

    /// The corner delay multiplier.
    pub(crate) fn corner_factor(&self, corner: Corner) -> f64 {
        match corner {
            Corner::Nn => 1.0,
            Corner::Ss => 1.0 + self.corner_spread,
            Corner::Ff => 1.0 / (1.0 + self.corner_spread),
            // Skewed corners: one device type slow — paths mix N and P, so
            // the net effect is a fraction of the SS/FF spread.
            Corner::Sf | Corner::Fs => 1.0 + self.corner_spread / 3.0,
        }
    }
}

impl Default for DelayScaling {
    fn default() -> Self {
        Self::paper_fit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_point_is_unity() {
        let s = DelayScaling::paper_fit();
        assert!((s.delay_factor(&Env::nominal()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_paper_frequency_ratios() {
        let s = DelayScaling::paper_fit();
        // f(1.0)/f(0.9) should give 2.25 GHz from 1.84 GHz: factor 0.818.
        let f10 = s.delay_factor(&Env::nominal().with_vdd(1.0));
        assert!((f10 - 0.818).abs() < 0.02, "got {f10}");
        // f(0.6)/f(0.9): delay x4.95.
        let f06 = s.delay_factor(&Env::nominal().with_vdd(0.6));
        assert!((f06 - 4.95).abs() < 0.25, "got {f06}");
    }

    #[test]
    fn monotone_in_voltage() {
        let s = DelayScaling::paper_fit();
        let mut prev = f64::INFINITY;
        for mv in (600..=1100).step_by(50) {
            let f = s.delay_factor(&Env::nominal().with_vdd(mv as f64 / 1000.0));
            assert!(f < prev, "delay must fall as V rises ({mv} mV)");
            prev = f;
        }
    }

    #[test]
    fn corner_ordering() {
        let s = DelayScaling::paper_fit();
        assert!(s.corner_factor(Corner::Ss) > s.corner_factor(Corner::Nn));
        assert!(s.corner_factor(Corner::Ff) < s.corner_factor(Corner::Nn));
        assert!(s.corner_factor(Corner::Sf) > 1.0);
        assert!(s.corner_factor(Corner::Sf) < s.corner_factor(Corner::Ss));
    }

    #[test]
    #[should_panic(expected = "below the operating range")]
    fn sub_threshold_supply_rejected() {
        let _ = DelayScaling::paper_fit().delay_factor(&Env::nominal().with_vdd(0.5));
    }
}
