//! Fig. 7(b) — FA critical path delay vs supply voltage.
//!
//! The proposed transmission-gate carry-select FA against a logic-gate
//! ripple FA, at 8- and 16-bit widths, swept over 0.7-1.1 V. The paper
//! reports a 1.8x-2.2x advantage.

use crate::textfmt::{ps, TextTable};
use bpimc_device::Env;
use bpimc_metrics::fa_timing::FaKind;
use std::fmt;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7bPoint {
    /// Supply voltage.
    pub(crate) vdd: f64,
    /// Proposed FA critical path at 8 bits, seconds.
    pub(crate) prop_8b: f64,
    /// Logic-gate FA at 8 bits, seconds.
    pub(crate) logic_8b: f64,
    /// Proposed FA at 16 bits, seconds.
    pub(crate) prop_16b: f64,
    /// Logic-gate FA at 16 bits, seconds.
    pub(crate) logic_16b: f64,
}

/// The voltage sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7bResult {
    /// Points from 0.7 V to 1.1 V.
    pub(crate) points: Vec<Fig7bPoint>,
}

impl Fig7bResult {
    /// The (min, max) speedup across the sweep and both widths.
    pub fn speedup_band(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for p in &self.points {
            for s in [p.logic_8b / p.prop_8b, p.logic_16b / p.prop_16b] {
                lo = lo.min(s);
                hi = hi.max(s);
            }
        }
        (lo, hi)
    }
}

/// Runs the sweep at the paper's voltages.
pub fn run() -> Fig7bResult {
    let points = (7..=11)
        .map(|dv| {
            let vdd = dv as f64 / 10.0;
            let env = Env::nominal().with_vdd(vdd);
            Fig7bPoint {
                vdd,
                prop_8b: FaKind::TgCarrySelect.critical_path(8, &env),
                logic_8b: FaKind::LogicGate.critical_path(8, &env),
                prop_16b: FaKind::TgCarrySelect.critical_path(16, &env),
                logic_16b: FaKind::LogicGate.critical_path(16, &env),
            }
        })
        .collect();
    Fig7bResult { points }
}

impl fmt::Display for Fig7bResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 7(b) — FA critical path vs supply (28 nm, NN)")?;
        let mut t = TextTable::new([
            "VDD",
            "Prop. FA (8b)",
            "Logic FA (8b)",
            "Prop. FA (16b)",
            "Logic FA (16b)",
            "speedup 16b",
        ]);
        for p in &self.points {
            t.row([
                format!("{:.1} V", p.vdd),
                ps(p.prop_8b),
                ps(p.logic_8b),
                ps(p.prop_16b),
                ps(p.logic_16b),
                format!("x{:.2}", p.logic_16b / p.prop_16b),
            ]);
        }
        write!(f, "{}", t.render())?;
        let (lo, hi) = self.speedup_band();
        writeln!(f, "speedup band (paper: 1.8x-2.2x): x{lo:.2} - x{hi:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_metrics::fa_timing::speedup;

    #[test]
    fn band_matches_the_paper() {
        let r = run();
        assert_eq!(r.points.len(), 5);
        let (lo, hi) = r.speedup_band();
        assert!(lo >= 1.7 && hi <= 2.3, "band {lo}-{hi}");
        crate::experiments::assert_pinned("fig7b", &r, 0x7149_8348_7fd4_d679);
    }

    #[test]
    fn delays_fall_with_voltage() {
        let r = run();
        assert!(r.points.windows(2).all(|w| w[1].prop_16b < w[0].prop_16b));
    }

    #[test]
    fn speedup_accessor_consistent() {
        let env = Env::nominal();
        let s = speedup(16, &env);
        assert!(s > 1.7 && s < 2.3);
    }
}
