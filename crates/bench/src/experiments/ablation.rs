//! Ablation studies of the paper's three design choices.
//!
//! Not a figure in the paper, but the evaluation's implicit trade-offs made
//! explicit — each ablation removes one mechanism and measures what it was
//! buying:
//!
//! 1. **WL pulse width** (the 140 ps choice): BL delay and disturb margin
//!    vs pulse width. Short pulses rely on the booster; long pulses creep
//!    back toward the disturb-prone full-WL regime.
//! 2. **BL booster** (on/off at 140 ps): without it the short pulse leaves
//!    the bit-line barely discharged and the SA never trips.
//! 3. **BL separator** (on/off): per-operation energy of SUB/MULT.

use crate::textfmt::{ns, TextTable};
use bpimc_cell::blbench::{BlComputeBench, WlScheme};
use bpimc_cell::boost::BoostDevices;
use bpimc_cell::sram6t::CellDevices;
use bpimc_core::Precision;
use bpimc_device::Env;
use bpimc_metrics::energy::{table2_energy_fj, Table2Op};
use bpimc_metrics::paper_calibrated_params;
use std::fmt;

/// One pulse-width ablation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulsePoint {
    /// WL pulse width, seconds.
    pub(crate) pulse_s: f64,
    /// BL computing delay, seconds (`None` when the SA never trips).
    pub(crate) delay_s: Option<f64>,
    /// Worst nominal disturb margin, volts.
    pub(crate) margin_v: f64,
}

/// One separator ablation row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeparatorPoint {
    /// Operation.
    pub(crate) op: Table2Op,
    /// Precision.
    pub(crate) precision: Precision,
    /// Energy with the separator, femtojoules.
    pub(crate) with_fj: f64,
    /// Energy without, femtojoules.
    pub(crate) without_fj: f64,
}

impl SeparatorPoint {
    /// Fractional energy saving from the separator.
    pub(crate) fn saving(&self) -> f64 {
        1.0 - self.with_fj / self.without_fj
    }
}

/// The full ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Pulse-width sweep (booster enabled).
    pub(crate) pulse_sweep: Vec<PulsePoint>,
    /// The 140 ps point with the booster disabled: final BL voltage (the
    /// swing the cells alone achieved) and whether the SA tripped.
    pub(crate) no_boost_blt_final: f64,
    /// Whether the SA tripped without the booster.
    pub(crate) no_boost_trips: bool,
    /// Separator energy ablation.
    pub(crate) separator: Vec<SeparatorPoint>,
}

/// Runs all three ablations at 0.9 V NN.
pub fn run() -> AblationResult {
    let env = Env::nominal();

    // 1. Pulse-width sweep — one batched solve over the six widths: the
    // sweep points share a topology and differ only in the WL waveform,
    // exactly the shape the SoA engine wants.
    let widths = [80e-12, 110e-12, 140e-12, 200e-12, 300e-12, 400e-12];
    let benches: Vec<BlComputeBench> = widths
        .iter()
        .map(|&pulse_s| BlComputeBench::new(128, env, WlScheme::ShortBoost { pulse_s }))
        .collect();
    let cell = CellDevices::nominal(benches[0].sizing);
    let boost = BoostDevices::nominal(benches[0].boost_sizing);
    let (circuits, node_sets): (Vec<_>, Vec<_>) = benches
        .iter()
        .map(|b| b.build(&cell, &cell, &boost, &boost, false, true))
        .unzip();
    let opts = bpimc_circuit::SimOptions::for_window(benches[0].window());
    let traces = bpimc_circuit::BatchSim::new(&circuits, &opts)
        .expect("sweep points share one topology")
        .run();
    let pulse_sweep = widths
        .iter()
        .zip(&benches)
        .zip(node_sets.iter().zip(&traces))
        .map(|((&pulse_s, bench), (nodes, trace))| {
            let out = bench.measure(trace, nodes, false, true);
            PulsePoint {
                pulse_s,
                delay_s: out.delay_s,
                margin_v: out.worst_margin(),
            }
        })
        .collect();

    // 2. Booster ablation: 140 ps pulse, BSTEN held low. Model by building
    // the FullStatic bench's cells with a pulse WL but no boost blocks:
    // reuse the ShortBoost scheme with zero-width booster devices is not
    // physical; instead use a bench with the boost scheme but measure what
    // the cells alone achieve by disabling via a non-boost scheme of equal
    // pulse: WlScheme::ShortBoost builds boosters, so emulate "no boost"
    // with a FullStatic-derived pulse bench: the Wlud scheme at full VDD
    // would hold the WL; we want a *pulse* without boost. The blbench
    // building blocks support this via a custom scheme: use ShortBoost and
    // then read the BL level just before the booster would fire is not
    // separable -- so approximate with a one-off circuit here.
    let (no_boost_blt_final, no_boost_trips) = no_boost_probe(env);

    // 3. Separator ablation.
    let params = paper_calibrated_params();
    let mut separator = Vec::new();
    for op in [Table2Op::Sub, Table2Op::Mult] {
        for p in [Precision::P2, Precision::P4, Precision::P8] {
            separator.push(SeparatorPoint {
                op,
                precision: p,
                with_fj: table2_energy_fj(op, p, true, &params),
                without_fj: table2_energy_fj(op, p, false, &params),
            });
        }
    }

    AblationResult {
        pulse_sweep,
        no_boost_blt_final,
        no_boost_trips,
        separator,
    }
}

/// A 140 ps pulse driving the standard two-cell column with NO booster:
/// how far do the cells alone get the bit-line?
fn no_boost_probe(env: Env) -> (f64, bool) {
    use bpimc_cell::sram6t::{build_cell, CellDevices, CellSizing};
    use bpimc_circuit::{Circuit, Edge, SimOptions, Waveform};
    let vdd_v = env.vdd;
    let mut ckt = Circuit::new(env);
    let vdd = ckt.add_source("vdd", Waveform::dc(vdd_v));
    let wl = ckt.add_source("wl", Waveform::pulse(0.0, vdd_v, 0.2e-9, 140e-12, 15e-12));
    let c_bl = 126.0 * 0.10e-15;
    let blt = ckt.add_node("blt", c_bl, vdd_v);
    let blb = ckt.add_node("blb", c_bl, vdd_v);
    let devs = CellDevices::nominal(CellSizing::hd28());
    let _a = build_cell(&mut ckt, &devs, "a", blt, blb, wl, vdd, false);
    let _b = build_cell(&mut ckt, &devs, "b", blt, blb, wl, vdd, true);
    let tr = ckt.run(&SimOptions::for_window(3e-9));
    let trips = tr
        .cross_time(blt, 0.5 * vdd_v, Edge::Falling, 0.2e-9)
        .is_ok();
    (tr.last_voltage(blt), trips)
}

impl fmt::Display for AblationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation 1 — WL pulse width (booster enabled, 0.9 V NN)")?;
        let mut t = TextTable::new(["pulse", "BL delay", "disturb margin"]);
        for p in &self.pulse_sweep {
            t.row([
                format!("{:.0} ps", p.pulse_s * 1e12),
                p.delay_s.map_or("no trip".into(), ns),
                format!("{:.0} mV", p.margin_v * 1e3),
            ]);
        }
        write!(f, "{}", t.render())?;

        writeln!(
            f,
            "\nAblation 2 — booster removed @ 140 ps pulse: BLT settles at {:.2} V, SA trips: {}",
            self.no_boost_blt_final, self.no_boost_trips
        )?;

        writeln!(f, "\nAblation 3 — BL separator energy savings")?;
        let mut t = TextTable::new(["op", "precision", "w/ sep [fJ]", "w/o sep [fJ]", "saving"]);
        for s in &self.separator {
            t.row([
                format!("{:?}", s.op),
                s.precision.to_string(),
                format!("{:.1}", s.with_fj),
                format!("{:.1}", s.without_fj),
                format!("{:.1} %", s.saving() * 100.0),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulse_width_trades_margin_for_nothing_beyond_the_knee() {
        let r = run();
        // Margin shrinks monotonically as the pulse lengthens.
        for w in r.pulse_sweep.windows(2) {
            assert!(
                w[1].margin_v <= w[0].margin_v + 1e-6,
                "margin must not grow with pulse width"
            );
        }
        // Every probed width still trips the SA (the booster finishes the
        // job even for an 80 ps pulse).
        assert!(r.pulse_sweep.iter().all(|p| p.delay_s.is_some()));
        crate::experiments::assert_pinned("ablation", &r, 0x16c9_810b_05eb_37bb);
    }

    #[test]
    fn booster_is_load_bearing() {
        let r = run();
        assert!(
            !r.no_boost_trips,
            "without the booster a 140 ps pulse must not trip the SA"
        );
        assert!(
            r.no_boost_blt_final > 0.45,
            "cells alone leave most of the BL charge: {:.2} V",
            r.no_boost_blt_final
        );
    }

    #[test]
    fn separator_savings_match_the_papers_magnitude() {
        let r = run();
        for s in &r.separator {
            // Paper's Table II savings are ~10% (SUB) to ~20% (MULT).
            assert!(
                (0.02..0.35).contains(&s.saving()),
                "{:?} {}: saving {:.2}",
                s.op,
                s.precision,
                s.saving()
            );
        }
    }
}
