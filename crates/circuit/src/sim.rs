//! The explicit transient integrator.

use crate::netlist::{Circuit, NodeKind};
use crate::trace::Trace;
use bpimc_device::{DeviceKind, MosParams};

/// Options controlling a transient run.
///
/// The integrator is adaptive: each step is sized so no state node moves
/// more than `dv_max`, shrinking into fast transients (down to
/// `dt / 2^max_depth`) and growing through quiet regions (up to
/// `dt * max_growth`). The 20 mV guard matches the original fixed-step
/// integrator's sub-stepping criterion, so accuracy in active regions is
/// unchanged while quiescent tails cost almost nothing.
/// [`SimOptions::for_window`] is the common entry point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// End of the simulated window, seconds.
    pub t_stop: f64,
    /// Base integration step, seconds.
    pub dt: f64,
    /// Trace storage interval, seconds (decimation of the raw steps).
    pub store_dt: f64,
    /// Maximum allowed per-node voltage change per step before the step is
    /// shrunk (volts). Also bounds the accepted Heun corrector error.
    pub dv_max: f64,
    /// Maximum halving depth below the base step for fast transients.
    pub max_depth: u32,
    /// Maximum step growth factor above the base step in quiet regions.
    /// `1.0` reproduces the original fixed-step behaviour.
    pub max_growth: f64,
}

impl SimOptions {
    /// Sensible defaults for a window of `t_stop` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` is not positive.
    pub fn for_window(t_stop: f64) -> Self {
        assert!(t_stop > 0.0, "simulation window must be positive");
        Self {
            t_stop,
            dt: 0.5e-12,
            store_dt: 1.0e-12,
            dv_max: 0.02,
            max_depth: 10,
            max_growth: 64.0,
        }
    }

    /// Returns a copy with a different base step.
    pub fn with_dt(mut self, dt: f64) -> Self {
        assert!(dt > 0.0, "dt must be positive");
        self.dt = dt;
        self
    }

    /// Returns a copy with a different quiet-region growth cap.
    pub fn with_max_growth(mut self, g: f64) -> Self {
        assert!(g >= 1.0, "growth cap must be at least 1");
        self.max_growth = g;
        self
    }
}

/// A compiled MOSFET bound to its node indices, for the scalar inner loop.
///
/// The electrical kernel lives in [`MosParams`] (shared with the batched
/// engine in [`crate::batch`], which evaluates the identical arithmetic over
/// parameter arrays — the two paths agree bit for bit).
#[derive(Debug, Clone, Copy)]
struct CompiledMos {
    kind: DeviceKind,
    d: usize,
    g: usize,
    s: usize,
    p: MosParams,
}

/// One prepared transient run over a circuit.
pub(crate) struct Transient<'a> {
    ckt: &'a Circuit,
    opts: SimOptions,
    caps: Vec<f64>,
    mosfets: Vec<CompiledMos>,
    /// (a, b, conductance)
    conductors: Vec<(usize, usize, f64)>,
}

impl<'a> Transient<'a> {
    pub(crate) fn new(ckt: &'a Circuit, opts: &SimOptions) -> Self {
        let caps = ckt
            .kinds
            .iter()
            .map(|k| match k {
                NodeKind::State { cap } => *cap,
                _ => f64::INFINITY,
            })
            .collect();
        let mosfets = ckt
            .mosfets
            .iter()
            .map(|m| CompiledMos {
                kind: m.dev.kind(),
                d: m.d.0,
                g: m.g.0,
                s: m.s.0,
                p: MosParams::compile(&m.dev, ckt.env()),
            })
            .collect();
        let conductors = ckt
            .resistors
            .iter()
            .map(|&(a, b, r)| (a.0, b.0, 1.0 / r))
            .collect();
        Self {
            ckt,
            opts: *opts,
            caps,
            mosfets,
            conductors,
        }
    }

    /// Element currents as dV/dt only (no conductance bookkeeping): the
    /// corrector stage needs just the slopes.
    fn derivatives(&self, v: &[f64], dvdt: &mut [f64]) {
        dvdt.fill(0.0);
        for &(a, b, gcond) in &self.conductors {
            let i = (v[a] - v[b]) * gcond;
            dvdt[a] -= i;
            dvdt[b] += i;
        }
        for m in &self.mosfets {
            let (hi, lo) = if v[m.d] >= v[m.s] {
                (m.d, m.s)
            } else {
                (m.s, m.d)
            };
            let vds = v[hi] - v[lo];
            let vgs = match m.kind {
                DeviceKind::Nmos => v[m.g] - v[lo],
                DeviceKind::Pmos => v[hi] - v[m.g],
            };
            let (i, _) = m.p.id_g(vgs, vds);
            dvdt[hi] -= i;
            dvdt[lo] += i;
        }
        for (i, c) in self.caps.iter().enumerate() {
            if c.is_finite() {
                dvdt[i] /= c;
            } else {
                dvdt[i] = 0.0;
            }
        }
    }

    /// Accumulates each node's derivative and also its
    /// local stiffness rate `gc[i] = G_i / C_i` (1/s), where `G_i` is the
    /// summed small-signal conductance hanging on node `i`. The integrator
    /// uses it to damp nodes whose time constant is far below the step.
    fn derivatives_g(&self, v: &[f64], dvdt: &mut [f64], gc: &mut [f64]) {
        dvdt.fill(0.0);
        gc.fill(0.0);
        for &(a, b, gcond) in &self.conductors {
            let i = (v[a] - v[b]) * gcond;
            dvdt[a] -= i;
            dvdt[b] += i;
            gc[a] += gcond;
            gc[b] += gcond;
        }
        for m in &self.mosfets {
            let (hi, lo) = if v[m.d] >= v[m.s] {
                (m.d, m.s)
            } else {
                (m.s, m.d)
            };
            let vds = v[hi] - v[lo];
            let vgs = match m.kind {
                DeviceKind::Nmos => v[m.g] - v[lo],
                DeviceKind::Pmos => v[hi] - v[m.g],
            };
            let (i, g) = m.p.id_g(vgs, vds);
            // Conventional current flows hi -> lo through the channel.
            dvdt[hi] -= i;
            dvdt[lo] += i;
            gc[hi] += g;
            gc[lo] += g;
        }
        for (i, c) in self.caps.iter().enumerate() {
            if c.is_finite() {
                dvdt[i] /= c;
                gc[i] /= c;
            } else {
                dvdt[i] = 0.0;
                gc[i] = 0.0;
            }
        }
    }

    /// Sets driven node voltages for time `t`.
    fn apply_sources(&self, t: f64, v: &mut [f64]) {
        for (i, k) in self.ckt.kinds.iter().enumerate() {
            match k {
                NodeKind::Driven { wave } => v[i] = wave.at(t),
                NodeKind::Ground => v[i] = 0.0,
                NodeKind::State { .. } => {}
            }
        }
    }

    /// The fastest any driven node moves across `[t, t + dt]`, volts.
    /// Sampled at the midpoint too, so a grown step cannot leap over a
    /// whole pulse whose endpoints happen to match (pulses shorter than
    /// `dt / 2` could still be missed; the integrator caps growth well
    /// below the shortest waveform feature the benches use).
    fn source_slew(&self, t: f64, dt: f64, v: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for (i, k) in self.ckt.kinds.iter().enumerate() {
            if let NodeKind::Driven { wave } = k {
                for q in [0.5, 1.0] {
                    worst = worst.max((wave.at(t + q * dt) - v[i]).abs());
                }
            }
        }
        worst
    }

    pub(crate) fn run(&self) -> Trace {
        let n = self.ckt.node_count();
        let mut v = self.ckt.v0.clone();
        self.apply_sources(0.0, &mut v);
        let mut k1 = vec![0.0; n];
        let mut k2 = vec![0.0; n];
        let mut tmp = vec![0.0; n];

        let mut trace = Trace::new(self.ckt.names.clone());
        trace.push(0.0, &v);

        let dv_max = self.opts.dv_max;
        let dt_min = self.opts.dt / f64::from(1u32 << self.opts.max_depth.min(30));
        let dt_max = self.opts.dt * self.opts.max_growth.max(1.0);
        // Driven edges (e.g. a 15 ps WL edge) must be walked through, not
        // leapt over; allow a little more swing per step than state nodes
        // get since sources are exact by construction.
        let src_dv_max = 2.0 * dv_max;

        let mut gc = vec![0.0; n];
        let mut t = 0.0f64;
        let mut dt_next = self.opts.dt;
        let mut next_store = self.opts.store_dt;
        while t < self.opts.t_stop - 1e-18 {
            self.derivatives_g(&v, &mut k1, &mut gc);
            // Accuracy/stability guard: the same `dv_max` per-step movement
            // criterion the fixed-step integrator enforced by recursive
            // halving, but solved for dt. A node damped by its own local
            // conductance moves `|k1| * dt / (1 + dt * gc)`, which stays
            // below dv_max for ANY dt once `|k1| / gc <= dv_max` — such
            // nodes (stiff, near their local equilibrium) do not limit the
            // step at all.
            let mut dt_step = dt_next.min(self.opts.t_stop - t);
            for i in 0..n {
                let denom = k1[i].abs() - dv_max * gc[i];
                if denom > 0.0 {
                    dt_step = dt_step.min(dv_max / denom);
                }
            }
            dt_step = dt_step.max(dt_min).min(self.opts.t_stop - t);
            while dt_step > self.opts.dt && self.source_slew(t, dt_step, &v) > src_dv_max {
                dt_step *= 0.5;
            }

            // Predictor at t+dt (stiff nodes damped), then trapezoidal
            // correction for the smooth nodes.
            tmp.copy_from_slice(&v);
            for i in 0..n {
                tmp[i] += k1[i] * dt_step / (1.0 + gc[i] * dt_step);
            }
            self.apply_sources(t + dt_step, &mut tmp);
            self.derivatives(&tmp, &mut k2);
            let mut err = 0.0f64;
            for i in 0..n {
                if gc[i] * dt_step <= 1.0 {
                    err = err.max((k2[i] - k1[i]).abs() * dt_step * 0.5);
                }
            }
            if err > dv_max && dt_step > dt_min * 1.5 {
                // Corrector disagrees hard on a smooth node: retry smaller.
                dt_next = (dt_step * 0.5).max(dt_min);
                continue;
            }
            for i in 0..n {
                let r = gc[i] * dt_step;
                if r > 1.0 {
                    // Stiff: diagonally-implicit Euler — unconditionally
                    // stable, converges to the node's local equilibrium.
                    v[i] += k1[i] * dt_step / (1.0 + r);
                } else {
                    v[i] += 0.5 * (k1[i] + k2[i]) * dt_step;
                }
            }
            self.apply_sources(t + dt_step, &mut v);
            t += dt_step;

            if t + 1e-18 >= next_store {
                trace.push(t, &v);
                next_store = t + self.opts.store_dt;
            }
            // Grow through quiet stretches, hold steady otherwise.
            dt_next = if err < 0.25 * dv_max {
                (dt_step * 2.0).min(dt_max)
            } else {
                dt_step.min(dt_max)
            };
        }
        if trace.times().last().copied() != Some(t) {
            trace.push(t, &v);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wave::Waveform;
    use bpimc_device::{Env, Mosfet, VtFlavor};

    #[test]
    fn rc_discharge_matches_closed_form() {
        let mut ckt = Circuit::new(Env::nominal());
        let out = ckt.add_node("out", 10e-15, 1.0);
        ckt.add_resistor(out, ckt.gnd(), 10_000.0); // tau = 100 ps
        let trace = ckt.run(&SimOptions::for_window(0.5e-9));
        for &(t, expect) in &[(100e-12, (-1.0_f64).exp()), (200e-12, (-2.0_f64).exp())] {
            let got = trace.voltage_at(out, t).unwrap();
            assert!(
                (got - expect).abs() < 0.01,
                "t={t}: got {got}, want {expect}"
            );
        }
    }

    #[test]
    fn rc_charge_through_resistor_from_source() {
        let mut ckt = Circuit::new(Env::nominal());
        let vdd = ckt.add_source("vdd", Waveform::dc(0.9));
        let out = ckt.add_node("out", 20e-15, 0.0);
        ckt.add_resistor(vdd, out, 5_000.0); // tau = 100 ps
        let trace = ckt.run(&SimOptions::for_window(1e-9));
        let got = trace.voltage_at(out, 100e-12).unwrap();
        let expect = 0.9 * (1.0 - (-1.0_f64).exp());
        assert!((got - expect).abs() < 0.01, "got {got} want {expect}");
        assert!(trace.last_voltage(out) > 0.89);
    }

    #[test]
    fn nmos_discharges_a_capacitor() {
        // A single NMOS pulling a 20 fF bit-line-ish node low when gated.
        let mut ckt = Circuit::new(Env::nominal());
        let gate = ckt.add_source("g", Waveform::step(0.0, 0.9, 100e-12, 20e-12));
        let bl = ckt.add_node("bl", 20e-15, 0.9);
        ckt.add_mosfet(Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0), bl, gate, ckt.gnd());
        let trace = ckt.run(&SimOptions::for_window(2e-9));
        assert!(
            trace.voltage_at(bl, 90e-12).unwrap() > 0.89,
            "no discharge before gate"
        );
        assert!(trace.last_voltage(bl) < 0.05, "discharged at the end");
    }

    #[test]
    fn pmos_pulls_up() {
        let mut ckt = Circuit::new(Env::nominal());
        let vdd = ckt.add_source("vdd", Waveform::dc(0.9));
        let gate = ckt.add_source("g", Waveform::dc(0.0)); // PMOS on
        let out = ckt.add_node("out", 5e-15, 0.0);
        ckt.add_mosfet(Mosfet::pmos(VtFlavor::Rvt, 200.0, 30.0), out, gate, vdd);
        let trace = ckt.run(&SimOptions::for_window(1e-9));
        assert!(trace.last_voltage(out) > 0.85);
    }

    #[test]
    fn charge_is_conserved_between_two_floating_caps() {
        // Two equal caps joined by a resistor settle at the average voltage.
        let mut ckt = Circuit::new(Env::nominal());
        let a = ckt.add_node("a", 10e-15, 1.0);
        let b = ckt.add_node("b", 10e-15, 0.0);
        ckt.add_resistor(a, b, 10_000.0);
        let trace = ckt.run(&SimOptions::for_window(2e-9));
        let va = trace.last_voltage(a);
        let vb = trace.last_voltage(b);
        assert!((va - 0.5).abs() < 0.005, "va {va}");
        assert!((vb - 0.5).abs() < 0.005, "vb {vb}");
    }
}
