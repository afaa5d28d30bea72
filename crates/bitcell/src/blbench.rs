//! The dual-WL bit-line computing test-bench.
//!
//! Two cells (operands A and B) share one column. Both word-lines are
//! activated and the bit-line pair evaluates `BLT = A AND B`,
//! `BLB = NOR(A, B)` — the primitive every operation of the paper is built
//! from. The bench supports the three word-line schemes the paper compares
//! (Fig. 1, Fig. 2, Fig. 7a):
//!
//! * [`WlScheme::FullStatic`] — full-VDD WL held high: fast but disturb-prone,
//! * [`WlScheme::Wlud`] — under-driven WL: safe but slow (the conventional fix),
//! * [`WlScheme::ShortBoost`] — the paper's full-VDD *short pulse* plus BL
//!   boosting: fast *and* safe.

use crate::boost::{boost_controls, build_boost, BoostDevices, BoostSizing};
use crate::senseamp::SenseAmp;
use crate::sram6t::{build_cell, CellDevices, CellNodes, CellSizing};
use bpimc_circuit::{Circuit, CircuitError, Crossing, NodeId, SimOptions, Trace, Waveform};
use bpimc_device::Env;

/// Word-line drive scheme under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WlScheme {
    /// Full-VDD word-line held high for the whole access (conventional,
    /// disturb-prone).
    FullStatic,
    /// Word-line under-drive: the WL is held at `v_wl` (< VDD) for the whole
    /// access. The conventional read-disturb fix.
    Wlud {
        /// The under-driven word-line level in volts.
        v_wl: f64,
    },
    /// The paper's scheme: full-VDD WL pulse of `pulse_s` seconds, with the
    /// BL boosting circuit enabled to finish the swing.
    ShortBoost {
        /// WL pulse width (flat-top), seconds.
        pulse_s: f64,
    },
}

impl WlScheme {
    /// The paper's nominal short-pulse operating point (140 ps).
    pub fn short_boost_140ps() -> Self {
        WlScheme::ShortBoost { pulse_s: 140e-12 }
    }

    /// True when the booster is active in this scheme.
    pub(crate) fn uses_boost(&self) -> bool {
        matches!(self, WlScheme::ShortBoost { .. })
    }
}

/// Per-column capacitance of one row's worth of bit-line (wire + diffusion
/// of an unaccessed cell), farads.
const BL_CAP_PER_ROW: f64 = 0.10e-15;

/// WL activation start time inside the simulated window.
const T_WL: f64 = 0.20e-9;
/// WL rise/fall time.
const T_EDGE: f64 = 15e-12;

/// Everything observable about one bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct BlOutcome {
    /// BL computing delay (WL activation to SA output), seconds. `None` when
    /// the compute result is "high" (no discharge — the SA reads 1).
    pub delay_s: Option<f64>,
    /// Worst instantaneous storage-node separation of cell A during the
    /// access, volts. Negative means the internal nodes crossed (flip).
    pub(crate) margin_a: f64,
    /// Same for cell B.
    pub(crate) margin_b: f64,
    /// Whether either cell ended the window flipped.
    pub flipped: bool,
    /// Final BLT voltage (for debugging/plotting).
    pub(crate) blt_final: f64,
}

impl BlOutcome {
    /// The worst disturb margin across both accessed cells.
    pub fn worst_margin(&self) -> f64 {
        self.margin_a.min(self.margin_b)
    }
}

/// The assembled dual-WL bench configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BlComputeBench {
    /// Number of rows hanging on the bit-line (sets its capacitance).
    pub(crate) rows: usize,
    /// Operating environment.
    pub(crate) env: Env,
    /// Word-line scheme under test.
    pub(crate) scheme: WlScheme,
    /// Cell sizing.
    pub sizing: CellSizing,
    /// Booster sizing (used only by [`WlScheme::ShortBoost`]).
    pub boost_sizing: BoostSizing,
    /// Sense amplifier model.
    pub(crate) sa: SenseAmp,
}

impl BlComputeBench {
    /// Creates a bench with default sizings.
    pub fn new(rows: usize, env: Env, scheme: WlScheme) -> Self {
        Self {
            rows,
            env,
            scheme,
            sizing: CellSizing::hd28(),
            boost_sizing: BoostSizing::default_28nm(),
            sa: SenseAmp::default_28nm(),
        }
    }

    /// The simulation window appropriate for the scheme (WLUD needs more
    /// time than the boosted scheme).
    pub fn window(&self) -> f64 {
        match self.scheme {
            WlScheme::Wlud { .. } => 6e-9,
            _ => 3e-9,
        }
    }

    /// The WL waveform for this scheme.
    fn wl_wave(&self) -> Waveform {
        let vdd = self.env.vdd;
        match self.scheme {
            WlScheme::FullStatic => Waveform::step(0.0, vdd, T_WL, T_EDGE),
            WlScheme::Wlud { v_wl } => Waveform::step(0.0, v_wl, T_WL, T_EDGE),
            WlScheme::ShortBoost { pulse_s } => Waveform::pulse(0.0, vdd, T_WL, pulse_s, T_EDGE),
        }
    }

    /// Builds the full netlist for stored operand values `a` and `b` with
    /// explicit device sets (so Monte-Carlo callers can inject mismatch).
    pub fn build(
        &self,
        cell_a: &CellDevices,
        cell_b: &CellDevices,
        boost_t: &BoostDevices,
        boost_b: &BoostDevices,
        a: bool,
        b: bool,
    ) -> (Circuit, BenchNodes) {
        let vdd_v = self.env.vdd;
        let mut ckt = Circuit::new(self.env);
        let vdd = ckt.add_source("vdd", Waveform::dc(vdd_v));
        let wl = ckt.add_source("wl", self.wl_wave());

        // Bit-line pair. The two accessed cells' diffusion caps are added by
        // their access devices; the remaining rows contribute lumped cap.
        let c_bl = (self.rows.saturating_sub(2)) as f64 * BL_CAP_PER_ROW;
        let blt = ckt.add_node("blt", c_bl.max(1e-15), vdd_v);
        let blb = ckt.add_node("blb", c_bl.max(1e-15), vdd_v);

        let nodes_a = build_cell(&mut ckt, cell_a, "cellA", blt, blb, wl, vdd, a);
        let nodes_b = build_cell(&mut ckt, cell_b, "cellB", blt, blb, wl, vdd, b);

        let (mirror_t, mirror_b) = if self.scheme.uses_boost() {
            let (bstrs_w, bsten_w) = boost_controls(vdd_v, T_WL);
            let bstrs = ckt.add_source("bstrs", bstrs_w);
            let bsten = ckt.add_source("bsten", bsten_w);
            let mt = build_boost(&mut ckt, boost_t, "boostT", blt, bstrs, bsten, vdd);
            let mb = build_boost(&mut ckt, boost_b, "boostB", blb, bstrs, bsten, vdd);
            (Some(mt), Some(mb))
        } else {
            (None, None)
        };

        let nodes = BenchNodes {
            blt,
            blb,
            cell_a: nodes_a,
            cell_b: nodes_b,
            mirror_t,
            mirror_b,
        };
        (ckt, nodes)
    }

    /// Runs the bench and measures the outcome.
    pub fn run(
        &self,
        cell_a: &CellDevices,
        cell_b: &CellDevices,
        boost_t: &BoostDevices,
        boost_b: &BoostDevices,
        a: bool,
        b: bool,
    ) -> Result<BlOutcome, CircuitError> {
        let (ckt, nodes) = self.build(cell_a, cell_b, boost_t, boost_b, a, b);
        let trace = ckt.run(&SimOptions::for_window(self.window()));
        Ok(self.measure(&trace, &nodes, a, b))
    }

    /// The SA trip that [`BlComputeBench::measure`] times `delay_s` to:
    /// BLT falling through the trip level after WL activation. A run that
    /// is only after the delay may stop there.
    pub(crate) fn blt_trip(&self, nodes: &BenchNodes) -> Crossing {
        self.sa.trip(nodes.blt, self.env.vdd, T_WL)
    }

    /// Extracts the outcome from a finished trace.
    pub fn measure(&self, trace: &Trace, nodes: &BenchNodes, a: bool, b: bool) -> BlOutcome {
        let vdd = self.env.vdd;
        // AND on BLT discharges unless both cells store 1.
        let expect_discharge = !(a && b);
        let delay_s = if expect_discharge {
            self.sa.sense_delay(trace, nodes.blt, vdd, T_WL).ok()
        } else {
            None
        };
        let margin = |cell: &CellNodes, stores_one: bool| -> f64 {
            let (hi, lo) = if stores_one {
                (cell.q, cell.qb)
            } else {
                (cell.qb, cell.q)
            };
            // Worst instantaneous separation of the storage nodes during and
            // after the access window.
            let mut worst = f64::INFINITY;
            for (k, &t) in trace.times().iter().enumerate() {
                if t < T_WL {
                    continue;
                }
                let sep = trace.voltage_at_index(hi, k) - trace.voltage_at_index(lo, k);
                worst = worst.min(sep);
            }
            worst
        };
        let margin_a = margin(&nodes.cell_a, a);
        let margin_b = margin(&nodes.cell_b, b);
        let final_state =
            |cell: &CellNodes| trace.last_voltage(cell.q) > trace.last_voltage(cell.qb);
        let flipped = final_state(&nodes.cell_a) != a || final_state(&nodes.cell_b) != b;
        BlOutcome {
            delay_s,
            margin_a,
            margin_b,
            flipped,
            blt_final: trace.last_voltage(nodes.blt),
        }
    }

    /// Convenience: the mismatch-free BL computing delay for operand values
    /// `(a, b)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the BL never trips the SA (e.g. `a AND b = 1`).
    pub fn nominal_delay(&self, a: bool, b: bool) -> Result<f64, CircuitError> {
        let cell = CellDevices::nominal(self.sizing);
        let boost = BoostDevices::nominal(self.boost_sizing);
        let out = self.run(&cell, &cell, &boost, &boost, a, b)?;
        out.delay_s.ok_or(CircuitError::NoCrossing {
            node: "blt".to_string(),
            level: self.sa.trip_voltage(self.env.vdd),
        })
    }
}

/// Observable nodes of a built bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchNodes {
    /// True bit-line (computes `A AND B`).
    pub(crate) blt: NodeId,
    /// Complement bit-line (computes `NOR(A, B)`).
    pub(crate) blb: NodeId,
    /// Storage nodes of operand-A's cell.
    pub(crate) cell_a: CellNodes,
    /// Storage nodes of operand-B's cell.
    pub(crate) cell_b: CellNodes,
    /// BLT booster mirror node (when boosting).
    pub(crate) mirror_t: Option<NodeId>,
    /// BLB booster mirror node (when boosting).
    pub(crate) mirror_b: Option<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal_outcome(scheme: WlScheme, a: bool, b: bool) -> BlOutcome {
        let bench = BlComputeBench::new(128, Env::nominal(), scheme);
        let cell = CellDevices::nominal(bench.sizing);
        let boost = BoostDevices::nominal(bench.boost_sizing);
        bench.run(&cell, &cell, &boost, &boost, a, b).unwrap()
    }

    #[test]
    fn and_truth_table_on_blt() {
        // BLT discharges (SA reads low) for 00, 01, 10; stays high for 11.
        for (a, b) in [(false, false), (false, true), (true, false)] {
            let out = nominal_outcome(WlScheme::short_boost_140ps(), a, b);
            assert!(out.delay_s.is_some(), "expected discharge for ({a},{b})");
        }
        let out = nominal_outcome(WlScheme::short_boost_140ps(), true, true);
        assert!(out.delay_s.is_none(), "BLT must stay high for (1,1)");
        assert!(out.blt_final > 0.7, "blt_final = {}", out.blt_final);
    }

    #[test]
    fn proposed_scheme_is_faster_than_wlud() {
        let wlud = nominal_outcome(WlScheme::Wlud { v_wl: 0.55 }, false, true);
        let prop = nominal_outcome(WlScheme::short_boost_140ps(), false, true);
        let (dw, dp) = (wlud.delay_s.unwrap(), prop.delay_s.unwrap());
        assert!(dp < 0.6 * dw, "proposed {dp:.3e} vs WLUD {dw:.3e}");
    }

    #[test]
    fn nominal_accesses_do_not_flip_cells() {
        for scheme in [WlScheme::Wlud { v_wl: 0.55 }, WlScheme::short_boost_140ps()] {
            let out = nominal_outcome(scheme, false, true);
            assert!(!out.flipped, "{scheme:?} flipped a nominal cell");
            assert!(
                out.worst_margin() > 0.1,
                "{scheme:?} margin {}",
                out.worst_margin()
            );
        }
    }

    #[test]
    fn full_static_wl_stresses_cells_harder_than_short_pulse() {
        let full = nominal_outcome(WlScheme::FullStatic, false, true);
        let short = nominal_outcome(WlScheme::short_boost_140ps(), false, true);
        assert!(
            full.worst_margin() < short.worst_margin(),
            "full {} vs short {}",
            full.worst_margin(),
            short.worst_margin()
        );
    }

    #[test]
    fn boosted_discharge_outruns_unboosted_short_pulse() {
        // Without the booster, a 140 ps pulse leaves the BL barely sagged.
        let bench = BlComputeBench::new(128, Env::nominal(), WlScheme::short_boost_140ps());
        let cell = CellDevices::nominal(bench.sizing);
        let boost = BoostDevices::nominal(bench.boost_sizing);
        let out = bench
            .run(&cell, &cell, &boost, &boost, false, true)
            .unwrap();
        assert!(out.delay_s.is_some(), "boosted scheme completes the swing");
        assert!(
            out.blt_final < 0.2,
            "boost should drive BLT low, got {}",
            out.blt_final
        );
    }
}
