//! The 6T SRAM bit-cell: sizing, device set and netlist construction.

use bpimc_circuit::{Circuit, NodeId};
use bpimc_device::{MismatchModel, Mosfet, VtFlavor};
use rand::Rng;

/// Drawn sizes (nanometres) of the three cell device types.
///
/// Defaults follow a typical 28 nm high-density 6T cell: a read beta ratio
/// (pull-down / access) of 120/90 and a weak pull-up, which is the balance
/// the read-disturb experiments hinge on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSizing {
    /// Pull-down NMOS width.
    pub(crate) w_pd_nm: f64,
    /// Pull-up PMOS width.
    pub(crate) w_pu_nm: f64,
    /// Access NMOS width.
    pub(crate) w_ax_nm: f64,
    /// Channel length for all cell devices.
    pub(crate) l_nm: f64,
}

impl CellSizing {
    /// The default high-density 28 nm cell.
    pub fn hd28() -> Self {
        Self {
            w_pd_nm: 120.0,
            w_pu_nm: 60.0,
            w_ax_nm: 90.0,
            l_nm: 30.0,
        }
    }

    /// Read beta ratio (pull-down strength over access strength).
    pub fn beta(&self) -> f64 {
        self.w_pd_nm / self.w_ax_nm
    }
}

impl Default for CellSizing {
    fn default() -> Self {
        Self::hd28()
    }
}

/// The six transistors of one cell, each possibly carrying a sampled local
/// threshold shift.
///
/// Naming: `_l` devices form the inverter driving node `q` (the BLT side),
/// `_r` the inverter driving `qb` (the BLB side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellDevices {
    /// Left pull-down (drives `q` low when `qb` high).
    pub(crate) pd_l: Mosfet,
    /// Right pull-down.
    pub(crate) pd_r: Mosfet,
    /// Left pull-up.
    pub(crate) pu_l: Mosfet,
    /// Right pull-up.
    pub(crate) pu_r: Mosfet,
    /// Left access (BLT to `q`).
    pub(crate) ax_l: Mosfet,
    /// Right access (BLB to `qb`).
    pub(crate) ax_r: Mosfet,
}

impl CellDevices {
    /// The nominal (mismatch-free) device set for a sizing.
    pub fn nominal(sizing: CellSizing) -> Self {
        Self {
            pd_l: Mosfet::nmos(VtFlavor::Rvt, sizing.w_pd_nm, sizing.l_nm),
            pd_r: Mosfet::nmos(VtFlavor::Rvt, sizing.w_pd_nm, sizing.l_nm),
            pu_l: Mosfet::pmos(VtFlavor::Rvt, sizing.w_pu_nm, sizing.l_nm),
            pu_r: Mosfet::pmos(VtFlavor::Rvt, sizing.w_pu_nm, sizing.l_nm),
            ax_l: Mosfet::nmos(VtFlavor::Rvt, sizing.w_ax_nm, sizing.l_nm),
            ax_r: Mosfet::nmos(VtFlavor::Rvt, sizing.w_ax_nm, sizing.l_nm),
        }
    }

    /// Draws a mismatched instance of every device.
    pub(crate) fn sampled<R: Rng + ?Sized>(
        sizing: CellSizing,
        mm: &MismatchModel,
        rng: &mut R,
    ) -> Self {
        let n = Self::nominal(sizing);
        Self {
            pd_l: mm.sample(&n.pd_l, rng),
            pd_r: mm.sample(&n.pd_r, rng),
            pu_l: mm.sample(&n.pu_l, rng),
            pu_r: mm.sample(&n.pu_r, rng),
            ax_l: mm.sample(&n.ax_l, rng),
            ax_r: mm.sample(&n.ax_r, rng),
        }
    }
}

/// The internal storage nodes of a built cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellNodes {
    /// True-side storage node (connects to BLT through the left access).
    pub(crate) q: NodeId,
    /// Complement-side storage node.
    pub(crate) qb: NodeId,
}

/// Intrinsic storage-node capacitance (beyond the attached device caps).
const CELL_NODE_CAP: f64 = 0.10e-15;

/// Instantiates a 6T cell into `ckt`.
///
/// `stores_one` sets the initial state: `true` puts `q` at VDD (`Q = 1`).
/// The word-line node `wl` gates both access devices; `vdd` supplies the
/// pull-ups.
#[allow(clippy::too_many_arguments)]
pub fn build_cell(
    ckt: &mut Circuit,
    devs: &CellDevices,
    label: &str,
    blt: NodeId,
    blb: NodeId,
    wl: NodeId,
    vdd: NodeId,
    stores_one: bool,
) -> CellNodes {
    let vdd_v = ckt.env().vdd;
    let (q0, qb0) = if stores_one {
        (vdd_v, 0.0)
    } else {
        (0.0, vdd_v)
    };
    let q = ckt.add_node(&format!("{label}.q"), CELL_NODE_CAP, q0);
    let qb = ckt.add_node(&format!("{label}.qb"), CELL_NODE_CAP, qb0);
    let gnd = ckt.gnd();
    // Cross-coupled inverters.
    ckt.add_mosfet(devs.pd_l, q, qb, gnd);
    ckt.add_mosfet(devs.pu_l, q, qb, vdd);
    ckt.add_mosfet(devs.pd_r, qb, q, gnd);
    ckt.add_mosfet(devs.pu_r, qb, q, vdd);
    // Access devices (bidirectional pass).
    ckt.add_mosfet(devs.ax_l, blt, wl, q);
    ckt.add_mosfet(devs.ax_r, blb, wl, qb);
    CellNodes { q, qb }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_circuit::{SimOptions, Waveform};
    use bpimc_device::Env;
    use bpimc_stats::seeded_rng;

    fn read_bench(stores_one: bool, v_wl: f64) -> (Circuit, CellNodes, NodeId, NodeId) {
        let env = Env::nominal();
        let mut ckt = Circuit::new(env);
        let vdd = ckt.add_source("vdd", Waveform::dc(env.vdd));
        let wl = ckt.add_source("wl", Waveform::step(0.0, v_wl, 100e-12, 15e-12));
        let blt = ckt.add_node("blt", 18e-15, env.vdd);
        let blb = ckt.add_node("blb", 18e-15, env.vdd);
        let devs = CellDevices::nominal(CellSizing::hd28());
        let nodes = build_cell(&mut ckt, &devs, "c0", blt, blb, wl, vdd, stores_one);
        (ckt, nodes, blt, blb)
    }

    #[test]
    fn cell_holds_state_without_access() {
        let (ckt, nodes, ..) = read_bench(true, 0.0); // WL never rises (v_wl = 0)
        let tr = ckt.run(&SimOptions::for_window(2e-9));
        assert!(tr.last_voltage(nodes.q) > 0.85);
        assert!(tr.last_voltage(nodes.qb) < 0.05);
    }

    #[test]
    fn read_discharges_the_correct_bitline() {
        // Q = 0: BLT discharges through the left access; BLB stays high.
        let (ckt, _nodes, blt, blb) = read_bench(false, 0.9);
        let tr = ckt.run(&SimOptions::for_window(4e-9));
        assert!(tr.last_voltage(blt) < 0.45, "BLT should discharge");
        assert!(tr.last_voltage(blb) > 0.8, "BLB should stay near VDD");
    }

    #[test]
    fn wlud_read_is_slower() {
        let (ckt_full, _, blt_f, _) = read_bench(false, 0.9);
        let (ckt_ud, _, blt_u, _) = read_bench(false, 0.55);
        let opts = SimOptions::for_window(6e-9);
        let tr_f = ckt_full.run(&opts);
        let tr_u = ckt_ud.run(&opts);
        use bpimc_circuit::Edge;
        let t_f = tr_f.cross_time(blt_f, 0.45, Edge::Falling, 0.0).unwrap();
        let t_u = tr_u.cross_time(blt_u, 0.45, Edge::Falling, 0.0).unwrap();
        assert!(t_u > 2.0 * t_f, "WLUD {t_u} vs full {t_f}");
    }

    #[test]
    fn nominal_cell_survives_a_normal_read() {
        // Reading a cell storing 1 must not flip it at nominal conditions.
        let (ckt, nodes, ..) = read_bench(true, 0.9);
        let tr = ckt.run(&SimOptions::for_window(4e-9));
        assert!(tr.last_voltage(nodes.q) > tr.last_voltage(nodes.qb));
    }

    #[test]
    fn sampled_devices_differ() {
        let mut rng = seeded_rng(4);
        let mm = MismatchModel::nominal();
        let a = CellDevices::sampled(CellSizing::hd28(), &mm, &mut rng);
        let b = CellDevices::sampled(CellSizing::hd28(), &mm, &mut rng);
        assert_ne!(a.pd_l.dvt(), b.pd_l.dvt());
    }

    #[test]
    fn beta_ratio_default() {
        let s = CellSizing::hd28();
        assert!((s.beta() - 120.0 / 90.0).abs() < 1e-12);
    }
}
