//! Property tests for waveforms and the transient solver — including the
//! structure-of-arrays batch engine's bit-identity with the scalar path.

use bpimc_circuit::{BatchSim, Circuit, Crossing, Edge, SimOptions, Waveform};
use bpimc_device::{Corner, Env, Mosfet, VtFlavor};
use proptest::prelude::*;

/// A randomized two-transistor cell-ish circuit: an NMOS pulldown and a
/// PMOS keeper fighting over a bit-line-like node, at a chosen corner,
/// supply and mismatch — enough nonlinearity to exercise every branch of
/// the integrator (stiff damping, corrector retries, source slew walking).
fn contended_node(
    corner: Corner,
    vdd: f64,
    dvt_n: f64,
    dvt_p: f64,
    t0: f64,
) -> (Circuit, bpimc_circuit::NodeId) {
    let env = Env::nominal().with_corner(corner).with_vdd(vdd);
    let mut ckt = Circuit::new(env);
    let supply = ckt.add_source("vdd", Waveform::dc(vdd));
    let gate = ckt.add_source("g", Waveform::pulse(0.0, vdd, t0, 300e-12, 15e-12));
    let bl = ckt.add_node("bl", 15e-15, vdd);
    ckt.add_mosfet(
        Mosfet::nmos(VtFlavor::Rvt, 120.0, 30.0).with_dvt(dvt_n),
        bl,
        gate,
        ckt.gnd(),
    );
    ckt.add_mosfet(
        Mosfet::pmos(VtFlavor::Lvt, 90.0, 30.0).with_dvt(dvt_p),
        bl,
        ckt.gnd(),
        supply,
    );
    (ckt, bl)
}

proptest! {
    /// A pulse never leaves its [low, high] band and returns to `low`.
    #[test]
    fn pulse_stays_in_band(
        low in -1.0f64..0.5,
        amp in 0.1f64..1.5,
        t0 in 0.0f64..1e-9,
        width in 1e-12f64..1e-9,
        t_edge in 1e-12f64..100e-12,
        t in 0.0f64..5e-9,
    ) {
        let high = low + amp;
        let w = Waveform::pulse(low, high, t0, width, t_edge);
        let v = w.at(t);
        prop_assert!(v >= low - 1e-12 && v <= high + 1e-12);
        prop_assert!((w.at(t0 + 2.0 * (width + 2.0 * t_edge) + 1e-12) - low).abs() < 1e-12);
    }

    /// PWL interpolation is bounded by its control points.
    #[test]
    fn pwl_is_bounded(points in prop::collection::vec((0.0f64..1e-9, -1.0f64..1.0), 1..10), t in 0.0f64..2e-9) {
        let mut pts = points.clone();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let w = Waveform::pwl(pts.clone());
        let v = w.at(t);
        let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    /// RC discharge through any sane R/C lands within 2% of the closed form
    /// at one time constant.
    #[test]
    fn rc_matches_closed_form(r_kohm in 1.0f64..100.0, c_ff in 1.0f64..100.0) {
        let r = r_kohm * 1e3;
        let c = c_ff * 1e-15;
        let tau = r * c;
        let mut ckt = Circuit::new(Env::nominal());
        let node = ckt.add_node("n", c, 1.0);
        ckt.add_resistor(node, ckt.gnd(), r);
        let trace = ckt.run(&SimOptions::for_window(3.0 * tau));
        let got = trace.voltage_at(node, tau).expect("inside window");
        let expect = (-1.0f64).exp();
        prop_assert!((got - expect).abs() < 0.02, "tau={tau:.3e} got={got}");
    }

    /// Two capacitors joined by a resistor conserve total charge.
    #[test]
    fn charge_conservation(c1 in 1.0f64..50.0, c2 in 1.0f64..50.0, v1 in 0.0f64..1.0) {
        let (c1, c2) = (c1 * 1e-15, c2 * 1e-15);
        let mut ckt = Circuit::new(Env::nominal());
        let a = ckt.add_node("a", c1, v1);
        let b = ckt.add_node("b", c2, 0.0);
        ckt.add_resistor(a, b, 20e3);
        let trace = ckt.run(&SimOptions::for_window(5e-9));
        let q0 = c1 * v1;
        let q1 = c1 * trace.last_voltage(a) + c2 * trace.last_voltage(b);
        prop_assert!((q1 - q0).abs() <= 0.01 * q0.max(1e-18), "q0={q0:.3e} q1={q1:.3e}");
    }

    /// The batch engine reproduces the scalar solver bit for bit — every
    /// stored time point and voltage — across process corners, supplies,
    /// mismatch draws and batch sizes: 1–40 instances fill one, two or
    /// three 16-lane chunks, whole or padded with copies of the last
    /// instance. Each run returns exactly one trace per instance, so a pad
    /// that stepped or leaked a trace would show; the run stopped at the
    /// bit line's half-swing crossing returns prefixes of the scalar
    /// traces that measure the same crossing time.
    #[test]
    fn batch_is_bit_identical_across_corners_and_cohort_sizes(
        corner_ix in 0usize..5,
        vdd in 0.6f64..1.1,
        dvts in prop::collection::vec((-0.05f64..0.05, -0.05f64..0.05, 50e-12f64..200e-12), 1..41),
    ) {
        let corner = Corner::ALL[corner_ix];
        let circuits: Vec<Circuit> = dvts
            .iter()
            .map(|&(dn, dp, t0)| contended_node(corner, vdd, dn, dp, t0).0)
            .collect();
        let (_, bl) = contended_node(corner, vdd, 0.0, 0.0, 100e-12);
        let stop = Crossing { node: bl, level: 0.5 * vdd, edge: Edge::Falling, t_from: 0.0 };
        let opts = SimOptions::for_window(1.5e-9);
        let sim = BatchSim::new(&circuits, &opts).unwrap();
        let (traces, cut) = (sim.run(), sim.run_until(Some(stop)));
        prop_assert_eq!(traces.len(), circuits.len());
        prop_assert_eq!(cut.len(), circuits.len());
        for ((c, tr), cut) in circuits.iter().zip(&traces).zip(&cut) {
            let scalar = c.run(&opts);
            prop_assert_eq!(tr.times().len(), scalar.times().len());
            for (a, b) in tr.times().iter().zip(scalar.times()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(tr, &scalar);
            prop_assert_eq!(cut.times(), &scalar.times()[..cut.len()]);
            let (tc, ts) = (stop.time_in(cut), stop.time_in(&scalar));
            prop_assert_eq!(tc.map(f64::to_bits).ok(), ts.map(f64::to_bits).ok());
        }
    }

    /// Cohort partitioning is invisible: a sample's measured value does not
    /// depend on which batch it rode in. `n` ranges across the
    /// `BATCH_COHORT = 16` boundary, so the same early samples run both as
    /// members of a lone partial cohort and as members of a full cohort
    /// followed by a remainder — and always match the scalar path.
    #[test]
    fn batched_montecarlo_is_cohort_invariant(seed in 0u64..1000, n in 1usize..36) {
        use bpimc_circuit::mc;
        let opts = SimOptions::for_window(1e-9);
        let build = |_i: usize, rng: &mut rand::rngs::StdRng| {
            use rand::Rng;
            let dn = 0.04 * (rng.random::<f64>() - 0.5);
            let dp = 0.04 * (rng.random::<f64>() - 0.5);
            contended_node(Corner::Nn, 0.9, dn, dp, 100e-12).0
        };
        // Node handles are positional; a template build names them.
        let (_, bl) = contended_node(Corner::Nn, 0.9, 0.0, 0.0, 100e-12);
        let measure = |_i: usize, t: &bpimc_circuit::Trace| t.last_voltage(bl);
        let batched = mc::montecarlo_batch(n, seed, &opts, None, build, measure);
        let scalar = mc::montecarlo_map(n, seed, |i, rng| {
            let ckt = build(i, rng);
            ckt.run(&opts).last_voltage(bl)
        });
        prop_assert_eq!(batched.len(), scalar.len());
        for (a, b) in batched.iter().zip(&scalar) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
