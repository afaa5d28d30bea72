//! Fig. 7(a) — BL computing delay across process corners.
//!
//! Transient-simulated delay (WL driver to single-ended SA output) of the
//! conventional WLUD scheme vs the proposed short-WL + boost scheme at each
//! of the five corners, 0.9 V, 25 C. The paper reports a worst-case 0.22x
//! (proposed over WLUD).

use crate::textfmt::{ns, TextTable};
use bpimc_cell::blbench::{BlComputeBench, WlScheme};
use bpimc_device::{Corner, Env};
use std::fmt;

/// Per-corner delays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerDelays {
    /// The corner.
    pub corner: Corner,
    /// WLUD delay, seconds.
    pub(crate) wlud_s: f64,
    /// Proposed-scheme delay, seconds.
    pub(crate) prop_s: f64,
}

impl CornerDelays {
    /// Proposed / WLUD ratio (smaller is better for the proposal).
    pub fn ratio(&self) -> f64 {
        self.prop_s / self.wlud_s
    }
}

/// The result: one row per corner, in the paper's plotting order.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7aResult {
    /// Rows in SF/SS/NN/FS/FF order.
    pub rows: Vec<CornerDelays>,
}

impl Fig7aResult {
    /// The ratio at the proposal's worst corner (the paper's 0.22x claim).
    pub fn worst_case_ratio(&self) -> f64 {
        self.rows
            .iter()
            .max_by(|a, b| a.prop_s.total_cmp(&b.prop_s))
            .map(|r| r.ratio())
            .unwrap_or(f64::NAN)
    }
}

/// Runs the per-corner sweep (nominal devices, no mismatch — corner skew
/// only, like the paper's corner plot).
pub fn run() -> Fig7aResult {
    let rows = Corner::ALL
        .iter()
        .map(|&corner| {
            let env = Env::nominal().with_corner(corner);
            let wlud = BlComputeBench::new(128, env, WlScheme::Wlud { v_wl: 0.55 })
                .nominal_delay(false, true)
                .expect("WLUD discharges");
            let prop = BlComputeBench::new(128, env, WlScheme::short_boost_140ps())
                .nominal_delay(false, true)
                .expect("proposed discharges");
            CornerDelays {
                corner,
                wlud_s: wlud,
                prop_s: prop,
            }
        })
        .collect();
    Fig7aResult { rows }
}

impl fmt::Display for Fig7aResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 7(a) — BL computing delay per corner (0.9 V, 25 C)")?;
        let mut t = TextTable::new(["corner", "WLUD (0.55 V)", "Short WL + Boost", "ratio"]);
        for r in &self.rows {
            t.row([
                r.corner.to_string(),
                ns(r.wlud_s),
                ns(r.prop_s),
                format!("x{:.2}", r.ratio()),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(
            f,
            "worst-case ratio (paper: x0.22): x{:.2}",
            self.worst_case_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposed_wins_at_every_corner() {
        let r = run();
        assert_eq!(r.rows.len(), 5);
        for row in &r.rows {
            assert!(
                row.prop_s < 0.5 * row.wlud_s,
                "{}: prop {} vs wlud {}",
                row.corner,
                row.prop_s,
                row.wlud_s
            );
        }
        // The paper's headline: ~0.22x at the worst case. Allow model slack.
        let worst = r.worst_case_ratio();
        assert!((0.1..0.45).contains(&worst), "worst ratio {worst}");
        crate::experiments::assert_pinned("fig7a", &r, 0x8672_6043_79dd_d3cc);
    }

    #[test]
    fn slow_corners_are_slower() {
        let r = run();
        let find = |c: Corner| r.rows.iter().find(|x| x.corner == c).unwrap();
        assert!(find(Corner::Ss).wlud_s > find(Corner::Ff).wlud_s);
        assert!(find(Corner::Ss).prop_s > find(Corner::Ff).prop_s);
    }
}
