//! Fig. 8 — cycle delay breakdown (left), maximum frequency and TOPS/W vs
//! supply voltage (right).

use crate::textfmt::{ghz, ps, TextTable};
use bpimc_array::CyclePhase;
use bpimc_core::Precision;
use bpimc_device::Env;
use bpimc_metrics::energy::Table2Op;
use bpimc_metrics::{ComponentDelays, FrequencyModel, TopsModel};
use std::fmt;

/// One voltage sweep point of the right-hand plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Point {
    /// Supply voltage.
    pub(crate) vdd: f64,
    /// Maximum clock frequency, hertz.
    pub(crate) fmax_hz: f64,
    /// 8-bit ADD TOPS/W (separator on).
    pub(crate) tops_add: f64,
    /// 8-bit MULT TOPS/W, separator on.
    pub(crate) tops_mult_sep: f64,
    /// 8-bit MULT TOPS/W, separator off.
    pub(crate) tops_mult_nosep: f64,
}

/// The complete Fig. 8 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// The component breakdown at the 0.9 V reference.
    pub(crate) breakdown: ComponentDelays,
    /// Per-phase `(name, seconds, fraction)`.
    pub fractions: Vec<(CyclePhase, f64, f64)>,
    /// The voltage sweep, 0.6-1.1 V.
    pub(crate) sweep: Vec<Fig8Point>,
}

/// Runs the experiment.
pub fn run() -> Fig8Result {
    let breakdown = ComponentDelays::paper_reference();
    let fractions = breakdown
        .fractions()
        .iter()
        .map(|&(p, frac)| (p, breakdown.phase(p), frac))
        .collect();
    let freq = FrequencyModel;
    let tops = TopsModel::paper_calibrated();
    let sweep = FrequencyModel::paper_voltages()
        .into_iter()
        .map(|vdd| Fig8Point {
            vdd,
            fmax_hz: freq.fmax(&Env::nominal().with_vdd(vdd)),
            tops_add: tops.tops_per_watt(Table2Op::Add, Precision::P8, true, vdd),
            tops_mult_sep: tops.tops_per_watt(Table2Op::Mult, Precision::P8, true, vdd),
            tops_mult_nosep: tops.tops_per_watt(Table2Op::Mult, Precision::P8, false, vdd),
        })
        .collect();
    Fig8Result {
        breakdown,
        fractions,
        sweep,
    }
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 8 (left) — one-cycle delay breakdown @ 0.9 V NN")?;
        let mut t = TextTable::new(["phase", "delay", "share"]);
        for (p, d, frac) in &self.fractions {
            t.row([format!("{p:?}"), ps(*d), format!("{:.1} %", frac * 100.0)]);
        }
        t.row([
            "TOTAL".to_string(),
            ps(self.breakdown.total()),
            String::new(),
        ]);
        t.row([
            "cycle (pch hidden)".to_string(),
            ps(self.breakdown.cycle_time()),
            String::new(),
        ]);
        write!(f, "{}", t.render())?;

        writeln!(
            f,
            "\nFig. 8 (right) — Fmax and TOPS/W vs supply (8-bit ops)"
        )?;
        let mut t = TextTable::new([
            "VDD",
            "Fmax",
            "ADD TOPS/W",
            "MULT TOPS/W (w/ sep)",
            "MULT TOPS/W (w/o sep)",
        ]);
        for p in &self.sweep {
            t.row([
                format!("{:.1} V", p.vdd),
                ghz(p.fmax_hz),
                format!("{:.2}", p.tops_add),
                format!("{:.3}", p.tops_mult_sep),
                format!("{:.3}", p.tops_mult_nosep),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_and_sweep_match_paper_anchors() {
        let r = run();
        assert!((r.breakdown.total() - 603e-12).abs() < 1e-15);
        // 1.0 V point: 2.25 GHz.
        let p10 = r.sweep.iter().find(|p| (p.vdd - 1.0).abs() < 1e-9).unwrap();
        assert!((p10.fmax_hz - 2.25e9).abs() / 2.25e9 < 0.02);
        // 0.6 V point: 372 MHz, ADD ~8.09, MULT ~0.68 TOPS/W.
        let p06 = r.sweep.iter().find(|p| (p.vdd - 0.6).abs() < 1e-9).unwrap();
        assert!((p06.fmax_hz - 372e6).abs() / 372e6 < 0.06);
        assert!(
            (p06.tops_add - 8.09).abs() / 8.09 < 0.15,
            "{}",
            p06.tops_add
        );
        assert!(
            (p06.tops_mult_sep - 0.68).abs() / 0.68 < 0.15,
            "{}",
            p06.tops_mult_sep
        );
        crate::experiments::assert_pinned("fig8", &r, 0x3e46_edc9_e84f_7a37);
    }

    #[test]
    fn separator_always_helps_mult_efficiency() {
        let r = run();
        assert!(r.sweep.iter().all(|p| p.tops_mult_sep > p.tops_mult_nosep));
    }

    #[test]
    fn display_renders() {
        assert!(format!("{}", run()).contains("Fmax"));
    }
}
