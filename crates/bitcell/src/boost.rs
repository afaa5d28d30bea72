//! The BL boosting circuit of the paper's Fig. 3.
//!
//! Operation: before the WL pulse the mirror node is reset to VSS (BSTRS).
//! The LVT PMOS `P0` watches the bit-line: once the short WL pulse has let
//! the cells sag the BL by roughly an LVT threshold, `P0` conducts and
//! charges the mirror node, which turns on the large LVT `N0`/`N1` stack and
//! finishes the BL discharge far faster than the cells could — positive
//! feedback. If the computation result is "high" (no cell pulls), the BL
//! never sags, `P0` stays off and the booster never fires.

use bpimc_circuit::{Circuit, NodeId, Waveform};
use bpimc_device::{MismatchModel, Mosfet, VtFlavor};
use rand::Rng;

/// Drawn sizes (nanometres) of the booster devices.
///
/// They are deliberately much larger than cell transistors: the paper notes
/// the boost path "has larger discharge path than that of SRAM cell", which
/// is also why its delay *variance* is small (Pelgrom: sigma ~ 1/sqrt(WL)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostSizing {
    /// BL-sensing PMOS `P0` width.
    pub(crate) w_p0_nm: f64,
    /// Pull-down stack widths (`N0` mirror-gated, `N1` enable-gated).
    pub(crate) w_n_nm: f64,
    /// Mirror reset NMOS width.
    pub(crate) w_rst_nm: f64,
    /// Channel length for all booster devices.
    pub(crate) l_nm: f64,
}

impl BoostSizing {
    /// Default booster sizing.
    pub(crate) fn default_28nm() -> Self {
        Self {
            w_p0_nm: 320.0,
            w_n_nm: 400.0,
            w_rst_nm: 100.0,
            l_nm: 30.0,
        }
    }
}

impl Default for BoostSizing {
    fn default() -> Self {
        Self::default_28nm()
    }
}

/// The booster's device set (all LVT, per the paper, except the reset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostDevices {
    /// BL-sensing PMOS.
    pub(crate) p0: Mosfet,
    /// Mirror-gated pull-down.
    pub(crate) n0: Mosfet,
    /// Enable-gated pull-down.
    pub(crate) n1: Mosfet,
    /// Mirror reset device (gated by BSTRS).
    pub(crate) nrst: Mosfet,
}

impl BoostDevices {
    /// Nominal (mismatch-free) booster.
    pub fn nominal(s: BoostSizing) -> Self {
        Self {
            p0: Mosfet::pmos(VtFlavor::Lvt, s.w_p0_nm, s.l_nm),
            n0: Mosfet::nmos(VtFlavor::Lvt, s.w_n_nm, s.l_nm),
            n1: Mosfet::nmos(VtFlavor::Lvt, s.w_n_nm, s.l_nm),
            nrst: Mosfet::nmos(VtFlavor::Rvt, s.w_rst_nm, s.l_nm),
        }
    }

    /// Draws a mismatched instance (the booster varies far less than cells
    /// thanks to its large devices, but it still varies).
    pub(crate) fn sampled<R: Rng + ?Sized>(
        s: BoostSizing,
        mm: &MismatchModel,
        rng: &mut R,
    ) -> Self {
        let n = Self::nominal(s);
        Self {
            p0: mm.sample(&n.p0, rng),
            n0: mm.sample(&n.n0, rng),
            n1: mm.sample(&n.n1, rng),
            nrst: mm.sample(&n.nrst, rng),
        }
    }
}

/// Intrinsic mirror-node capacitance.
const MIRROR_CAP: f64 = 0.20e-15;

/// Instantiates a booster watching bit-line `bl`.
///
/// `bstrs` and `bsten` are the reset and enable control nodes. Returns the
/// mirror node for observation.
pub(crate) fn build_boost(
    ckt: &mut Circuit,
    devs: &BoostDevices,
    label: &str,
    bl: NodeId,
    bstrs: NodeId,
    bsten: NodeId,
    vdd: NodeId,
) -> NodeId {
    let mirror = ckt.add_node(&format!("{label}.mirror"), MIRROR_CAP, 0.0);
    let mid = ckt.add_node(&format!("{label}.mid"), 0.15e-15, 0.0);
    let gnd = ckt.gnd();
    // P0: source = VDD, gate = BL, drain = mirror.
    ckt.add_mosfet(devs.p0, mirror, bl, vdd);
    // Reset: mirror to ground while BSTRS high.
    ckt.add_mosfet(devs.nrst, mirror, bstrs, gnd);
    // Discharge stack: BL -> N0 -> mid -> N1 -> gnd.
    ckt.add_mosfet(devs.n0, bl, mirror, mid);
    ckt.add_mosfet(devs.n1, mid, bsten, gnd);
    mirror
}

/// Standard control waveforms for one computing cycle.
///
/// BSTRS pulses high during precharge (resetting the mirror) and returns low
/// `margin` before the WL pulse; BSTEN rises with the end of the reset and
/// stays high for the evaluation.
pub(crate) fn boost_controls(vdd: f64, t_wl: f64) -> (Waveform, Waveform) {
    let t_edge = 10e-12;
    let reset_end = (t_wl - 30e-12).max(20e-12);
    let bstrs = Waveform::pulse(0.0, vdd, 5e-12, reset_end - 5e-12, t_edge);
    let bsten = Waveform::step(0.0, vdd, reset_end, t_edge);
    (bstrs, bsten)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_circuit::SimOptions;
    use bpimc_device::Env;

    /// Builds a lone booster on a BL with a weak constant pull-down standing
    /// in for a cell, or no pull at all.
    fn boost_bench(cell_pulls: bool) -> (Circuit, NodeId, NodeId) {
        let env = Env::nominal();
        let mut ckt = Circuit::new(env);
        let vdd = ckt.add_source("vdd", Waveform::dc(env.vdd));
        let bl = ckt.add_node("bl", 18e-15, env.vdd);
        let t_wl = 200e-12;
        let (bstrs_w, bsten_w) = boost_controls(env.vdd, t_wl);
        let bstrs = ckt.add_source("bstrs", bstrs_w);
        let bsten = ckt.add_source("bsten", bsten_w);
        let devs = BoostDevices::nominal(BoostSizing::default_28nm());
        let mirror = build_boost(&mut ckt, &devs, "b", bl, bstrs, bsten, vdd);
        if cell_pulls {
            // A cell-strength pull-down active only during a 140 ps "WL pulse".
            let wl = ckt.add_source("wl", Waveform::pulse(0.0, env.vdd, t_wl, 140e-12, 15e-12));
            let cell = Mosfet::nmos(VtFlavor::Rvt, 60.0, 30.0);
            ckt.add_mosfet(cell, bl, wl, ckt.gnd());
        }
        (ckt, bl, mirror)
    }

    #[test]
    fn booster_fires_on_a_sagging_bl() {
        let (ckt, bl, mirror) = boost_bench(true);
        let tr = ckt.run(&SimOptions::for_window(2.5e-9));
        assert!(tr.last_voltage(mirror) > 0.5, "mirror should latch high");
        assert!(
            tr.last_voltage(bl) < 0.1,
            "boost should complete the discharge"
        );
    }

    #[test]
    fn booster_stays_quiet_on_a_high_bl() {
        let (ckt, bl, mirror) = boost_bench(false);
        let tr = ckt.run(&SimOptions::for_window(2.5e-9));
        assert!(
            tr.last_voltage(bl) > 0.8,
            "BL must stay high, got {}",
            tr.last_voltage(bl)
        );
        assert!(
            tr.last_voltage(mirror) < 0.3,
            "mirror must stay low, got {}",
            tr.last_voltage(mirror)
        );
    }

    #[test]
    fn disabled_booster_does_not_complete_the_discharge() {
        // Same sagging-BL bench but with BSTEN held low: the N0/N1 stack is
        // cut off, so the BL keeps whatever sag the cell pulse produced.
        let env = Env::nominal();
        let mut ckt = Circuit::new(env);
        let vdd = ckt.add_source("vdd", Waveform::dc(env.vdd));
        let bl = ckt.add_node("bl", 18e-15, env.vdd);
        let bstrs = ckt.add_source(
            "bstrs",
            Waveform::pulse(0.0, env.vdd, 5e-12, 150e-12, 10e-12),
        );
        let bsten = ckt.add_source("bsten", Waveform::dc(0.0));
        let devs = BoostDevices::nominal(BoostSizing::default_28nm());
        let _mirror = build_boost(&mut ckt, &devs, "b", bl, bstrs, bsten, vdd);
        let wl = ckt.add_source(
            "wl",
            Waveform::pulse(0.0, env.vdd, 200e-12, 140e-12, 15e-12),
        );
        ckt.add_mosfet(Mosfet::nmos(VtFlavor::Rvt, 60.0, 30.0), bl, wl, ckt.gnd());
        let tr = ckt.run(&SimOptions::for_window(2.5e-9));
        let v_bl = tr.last_voltage(bl);
        assert!(
            v_bl > 0.3,
            "without BSTEN the BL should retain most of its charge, got {v_bl}"
        );
    }

    #[test]
    fn control_waveforms_sequence_correctly() {
        let (bstrs, bsten) = boost_controls(0.9, 200e-12);
        // During reset: BSTRS high, BSTEN low.
        assert!(bstrs.at(50e-12) > 0.8);
        assert!(bsten.at(50e-12) < 0.1);
        // At WL time: reset released, enable on.
        assert!(bstrs.at(200e-12) < 0.1);
        assert!(bsten.at(200e-12) > 0.8);
    }
}
