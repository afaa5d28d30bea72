//! Structure-of-arrays batched transient solving.
//!
//! Monte-Carlo sweeps (and parameter sweeps like the pulse-width ablation)
//! simulate the *same netlist topology* hundreds to thousands of times with
//! different device parameters, waveforms or environments. The scalar
//! solver ([`crate::sim`]) walks one instance at a time, which leaves the
//! device-model arithmetic — four transcendental kernels per MOSFET per
//! step — stuck in a serial dependency chain.
//!
//! [`BatchSim`] compiles the topology **once** and lays the per-instance
//! state out as contiguous per-field arrays (`voltages[node][instance]`,
//! `vt[mosfet][instance]`, …). Each integration round evaluates every
//! element's currents across all instances with
//! [`bpimc_device::Mosfet::ids_batch`], whose branch-free
//! [`bpimc_device::fastmath`] body auto-vectorizes across the instance axis.
//!
//! **This is a data-layout change, not a numerics change.** Every instance
//! keeps its own adaptive time step and makes exactly the step decisions
//! the scalar solver would make; the per-instance arithmetic is the same
//! IEEE operations in the same order, so traces and measurements are
//! **bit-identical** to running [`crate::netlist::Circuit::run`] per
//! instance (pinned by property tests in `tests/prop.rs`). Instances that
//! finish early simply stop advancing while the rest of the cohort runs on.
//!
//! A measurement that only needs one threshold crossing — a Monte-Carlo
//! delay — does not need the rest of the window. [`BatchSim::run_until`]
//! stops each instance right after the first stored row that completes a
//! [`Crossing`], the same rule [`Trace::cross_time`] measures with, so the
//! shortened trace is a prefix of the full one and measures the same time
//! bit for bit; instances that never cross run to `t_stop` as before.
//!
//! # Examples
//!
//! ```
//! use bpimc_circuit::{BatchSim, Circuit, SimOptions, Waveform};
//! use bpimc_device::Env;
//!
//! // Three RC discharges with different resistances, one batched solve.
//! let circuits: Vec<Circuit> = [5e3, 10e3, 20e3]
//!     .iter()
//!     .map(|&r| {
//!         let mut ckt = Circuit::new(Env::nominal());
//!         let out = ckt.add_node("out", 10e-15, 0.9);
//!         ckt.add_resistor(out, ckt.gnd(), r);
//!         ckt
//!     })
//!     .collect();
//! let opts = SimOptions::for_window(1e-9);
//! let traces = BatchSim::new(&circuits, &opts).unwrap().run();
//! assert_eq!(traces.len(), 3);
//! // Identical to the scalar solver, bit for bit.
//! assert_eq!(traces[1], circuits[1].run(&opts));
//! ```

use crate::netlist::{Circuit, NodeKind};
use crate::sim::SimOptions;
use crate::trace::{Crossing, Trace};
use crate::wave::Waveform;
use crate::CircuitError;
use bpimc_device::{DeviceKind, MosParams, MosParamsLanes, Mosfet};

/// A batch of structurally identical circuits prepared for one
/// structure-of-arrays transient solve. See the module docs.
#[derive(Debug)]
pub struct BatchSim<'a> {
    insts: &'a [Circuit],
    opts: SimOptions,
    /// Nodes per instance (including ground).
    nodes: usize,
    /// Per-node capacitance, `[node * batch + j]`; `INFINITY` marks
    /// driven/ground nodes exactly like the scalar solver.
    caps: Vec<f64>,
    /// Whether a node is a state node (same for every instance).
    is_state: Vec<bool>,
    /// Resistor endpoints (shared topology).
    cond_ends: Vec<(usize, usize)>,
    /// Per-resistor conductance lanes, `[res * batch + j]`.
    cond_g: Vec<f64>,
    /// MOSFET topology: polarity and drain/gate/source node indices.
    mos_topo: Vec<(DeviceKind, usize, usize, usize)>,
    /// Per-mosfet parameter lanes, `[mos * batch + j]` each.
    vt: Vec<f64>,
    phi: Vec<f64>,
    keff: Vec<f64>,
    alpha: Vec<f64>,
    lambda: Vec<f64>,
    sat_frac: Vec<f64>,
    vdsat_min: Vec<f64>,
    /// Initial voltages, `[node * batch + j]`.
    v0: Vec<f64>,
    /// Driven nodes in ascending node order, with one waveform per
    /// instance.
    driven: Vec<(usize, Vec<&'a Waveform>)>,
    /// Ground nodes (held at 0 V).
    grounds: Vec<usize>,
}

impl<'a> BatchSim<'a> {
    /// Compiles `circuits` into one batched solve with options `opts`.
    ///
    /// All circuits must share instance 0's *structure*: node count, the
    /// kind of every node, resistor endpoints, and every MOSFET's polarity
    /// and terminal wiring. Electrical content — device parameters,
    /// capacitances, resistances, waveforms, initial voltages, operating
    /// environment — is free to differ per instance; that is the point.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::BatchMismatch`] naming the first instance
    /// (and difference) that breaks the shared topology.
    ///
    /// # Panics
    ///
    /// Panics if `circuits` is empty — there is no template to define the
    /// topology (callers sweep or shard a known-non-empty sample set).
    pub fn new(circuits: &'a [Circuit], opts: &SimOptions) -> Result<Self, CircuitError> {
        assert!(!circuits.is_empty(), "a batch needs at least one instance");
        let t0 = &circuits[0];
        for (idx, c) in circuits.iter().enumerate().skip(1) {
            check_topology(t0, c, idx)?;
        }
        let batch = circuits.len();
        let nodes = t0.node_count();

        let mut caps = vec![0.0; nodes * batch];
        let mut v0 = vec![0.0; nodes * batch];
        for (j, c) in circuits.iter().enumerate() {
            for (i, k) in c.kinds.iter().enumerate() {
                caps[i * batch + j] = match k {
                    NodeKind::State { cap } => *cap,
                    _ => f64::INFINITY,
                };
                v0[i * batch + j] = c.v0[i];
            }
        }
        let is_state = t0
            .kinds
            .iter()
            .map(|k| matches!(k, NodeKind::State { .. }))
            .collect();

        let cond_ends: Vec<(usize, usize)> =
            t0.resistors.iter().map(|&(a, b, _)| (a.0, b.0)).collect();
        let mut cond_g = vec![0.0; cond_ends.len() * batch];
        for (j, c) in circuits.iter().enumerate() {
            for (r, &(_, _, ohms)) in c.resistors.iter().enumerate() {
                cond_g[r * batch + j] = 1.0 / ohms;
            }
        }

        let mos_topo: Vec<(DeviceKind, usize, usize, usize)> = t0
            .mosfets
            .iter()
            .map(|m| (m.dev.kind(), m.d.0, m.g.0, m.s.0))
            .collect();
        let lanes = mos_topo.len() * batch;
        let (mut vt, mut phi, mut keff, mut alpha, mut lambda, mut sat_frac, mut vdsat_min) = (
            vec![0.0; lanes],
            vec![0.0; lanes],
            vec![0.0; lanes],
            vec![0.0; lanes],
            vec![0.0; lanes],
            vec![0.0; lanes],
            vec![0.0; lanes],
        );
        for (j, c) in circuits.iter().enumerate() {
            for (m, inst) in c.mosfets.iter().enumerate() {
                let p = MosParams::compile(&inst.dev, c.env());
                let at = m * batch + j;
                vt[at] = p.vt;
                phi[at] = p.phi;
                keff[at] = p.keff;
                alpha[at] = p.alpha;
                lambda[at] = p.lambda;
                sat_frac[at] = p.sat_frac;
                vdsat_min[at] = p.vdsat_min;
            }
        }

        let mut driven: Vec<(usize, Vec<&'a Waveform>)> = Vec::new();
        let mut grounds = Vec::new();
        for (i, k) in t0.kinds.iter().enumerate() {
            match k {
                NodeKind::Driven { .. } => {
                    let waves = circuits
                        .iter()
                        .map(|c| match &c.kinds[i] {
                            NodeKind::Driven { wave } => wave,
                            _ => unreachable!("topology checked above"),
                        })
                        .collect();
                    driven.push((i, waves));
                }
                NodeKind::Ground => grounds.push(i),
                NodeKind::State { .. } => {}
            }
        }

        Ok(Self {
            insts: circuits,
            opts: *opts,
            nodes,
            caps,
            is_state,
            cond_ends,
            cond_g,
            mos_topo,
            vt,
            phi,
            keff,
            alpha,
            lambda,
            sat_frac,
            vdsat_min,
            v0,
            driven,
            grounds,
        })
    }

    /// Number of instances in the batch.
    pub(crate) fn batch(&self) -> usize {
        self.insts.len()
    }

    /// Parameter lanes of mosfet `m`.
    fn lanes_of(&self, m: usize) -> MosParamsLanes<'_> {
        let b = self.batch();
        let r = m * b..(m + 1) * b;
        MosParamsLanes {
            vt: &self.vt[r.clone()],
            phi: &self.phi[r.clone()],
            keff: &self.keff[r.clone()],
            alpha: &self.alpha[r.clone()],
            lambda: &self.lambda[r.clone()],
            sat_frac: &self.sat_frac[r.clone()],
            vdsat_min: &self.vdsat_min[r],
        }
    }

    /// Element currents into `dvdt` and, when `gc` is given, the per-node
    /// stiffness rates — the batched twin of the scalar solver's
    /// `derivatives` / `derivatives_g`, same element order, same
    /// per-instance arithmetic.
    fn derivatives(
        &self,
        v: &[f64],
        dvdt: &mut [f64],
        mut gc: Option<&mut [f64]>,
        s: &mut Scratch,
    ) {
        let b = self.batch();
        dvdt.fill(0.0);
        if let Some(g) = gc.as_deref_mut() {
            g.fill(0.0);
        }
        for (r, &(a, bn)) in self.cond_ends.iter().enumerate() {
            let gl = &self.cond_g[r * b..(r + 1) * b];
            let (av, bv) = (a * b, bn * b);
            for j in 0..b {
                s.cur[j] = (v[av + j] - v[bv + j]) * gl[j];
            }
            for j in 0..b {
                dvdt[av + j] -= s.cur[j];
            }
            for j in 0..b {
                dvdt[bv + j] += s.cur[j];
            }
            if let Some(g) = gc.as_deref_mut() {
                for j in 0..b {
                    g[av + j] += gl[j];
                }
                for j in 0..b {
                    g[bv + j] += gl[j];
                }
            }
        }
        for (m, &(kind, d, gnode, src)) in self.mos_topo.iter().enumerate() {
            let (dv, gv, sv) = (d * b, gnode * b, src * b);
            // Terminal orientation exactly as the scalar solver decides it:
            // `(hi, lo) = if v[d] >= v[s] { (d, s) } else { (s, d) }`.
            match kind {
                DeviceKind::Nmos => {
                    for j in 0..b {
                        let (vd, vs) = (v[dv + j], v[sv + j]);
                        let fwd = vd >= vs;
                        let (hi, lo) = if fwd { (vd, vs) } else { (vs, vd) };
                        s.vds[j] = hi - lo;
                        s.vgs[j] = v[gv + j] - lo;
                        s.sgn[j] = if fwd { 1.0 } else { -1.0 };
                    }
                }
                DeviceKind::Pmos => {
                    for j in 0..b {
                        let (vd, vs) = (v[dv + j], v[sv + j]);
                        let fwd = vd >= vs;
                        let (hi, lo) = if fwd { (vd, vs) } else { (vs, vd) };
                        s.vds[j] = hi - lo;
                        s.vgs[j] = hi - v[gv + j];
                        s.sgn[j] = if fwd { 1.0 } else { -1.0 };
                    }
                }
            }
            Mosfet::ids_batch(&self.lanes_of(m), &s.vgs, &s.vds, &mut s.cur, &mut s.gds);
            // Signed current in drain->source orientation; `x -= -i` and
            // `x += i` are the same IEEE operation, so per-instance results
            // match the scalar solver's hi/lo formulation bit for bit.
            for j in 0..b {
                s.cur[j] *= s.sgn[j];
            }
            for j in 0..b {
                dvdt[dv + j] -= s.cur[j];
            }
            for j in 0..b {
                dvdt[sv + j] += s.cur[j];
            }
            if let Some(g) = gc.as_deref_mut() {
                for j in 0..b {
                    g[dv + j] += s.gds[j];
                }
                for j in 0..b {
                    g[sv + j] += s.gds[j];
                }
            }
        }
        for i in 0..self.nodes {
            let at = i * b;
            if self.is_state[i] {
                for j in 0..b {
                    dvdt[at + j] /= self.caps[at + j];
                }
                if let Some(g) = gc.as_deref_mut() {
                    for j in 0..b {
                        g[at + j] /= self.caps[at + j];
                    }
                }
            } else {
                dvdt[at..at + b].fill(0.0);
                if let Some(g) = gc.as_deref_mut() {
                    g[at..at + b].fill(0.0);
                }
            }
        }
    }

    /// Sets instance `j`'s driven and ground nodes for time `t`.
    fn apply_sources(&self, j: usize, t: f64, v: &mut [f64]) {
        let b = self.batch();
        for (node, waves) in &self.driven {
            v[node * b + j] = waves[j].at(t);
        }
        for &node in &self.grounds {
            v[node * b + j] = 0.0;
        }
    }

    /// Instance `j`'s fastest driven-node movement across `[t, t + dt]` —
    /// the scalar solver's `source_slew`, same sampling, same fold order.
    fn source_slew(&self, j: usize, t: f64, dt: f64, v: &[f64]) -> f64 {
        let b = self.batch();
        let mut worst = 0.0f64;
        for (node, waves) in &self.driven {
            for q in [0.5, 1.0] {
                worst = worst.max((waves[j].at(t + q * dt) - v[node * b + j]).abs());
            }
        }
        worst
    }

    /// Runs every instance to `t_stop` and returns one trace per instance,
    /// in batch order — each bit-identical to the scalar solver's trace
    /// for that instance. The no-stop case of `BatchSim::run_until`.
    pub fn run(&self) -> Vec<Trace> {
        self.run_until(None)
    }

    /// [`BatchSim::run`], except that with `stop` given each instance stops
    /// right after the first stored row that completes that crossing (or at
    /// `t_stop` if it never crosses).
    ///
    /// A stopped lane has made exactly the step decisions of the full run
    /// up to that row, and lanes never read one another, so each trace is
    /// a prefix of the instance's [`BatchSim::run`] trace that already
    /// holds the crossing: [`Crossing::time_in`] measures the same time on
    /// it, bit for bit. The cohort loop ends once its slowest lane stops.
    pub(crate) fn run_until(&self, stop: Option<Crossing>) -> Vec<Trace> {
        let b = self.batch();
        let n = self.nodes;
        let opts = &self.opts;
        let dv_max = opts.dv_max;
        let dt_min = opts.dt / f64::from(1u32 << opts.max_depth.min(30));
        let dt_max = opts.dt * opts.max_growth.max(1.0);
        let src_dv_max = 2.0 * dv_max;

        let mut v = self.v0.clone();
        for j in 0..b {
            self.apply_sources(j, 0.0, &mut v);
        }
        let mut k1 = vec![0.0; n * b];
        let mut k2 = vec![0.0; n * b];
        let mut tmp = vec![0.0; n * b];
        let mut gc = vec![0.0; n * b];
        let mut scratch = Scratch::new(b);
        let mut row = vec![0.0; n];

        let mut traces: Vec<Trace> = self
            .insts
            .iter()
            .map(|c| Trace::new(c.names.clone()))
            .collect();
        let mut t = vec![0.0f64; b];
        let mut dt_next = vec![opts.dt; b];
        let mut next_store = vec![opts.store_dt; b];
        let mut dts = vec![0.0f64; b];
        let mut active = vec![true; b];
        for (j, tr) in traces.iter_mut().enumerate() {
            gather_row(&v, b, j, &mut row);
            tr.push(0.0, &row);
        }

        let mut n_active = b;
        while n_active > 0 {
            self.derivatives(&v, &mut k1, Some(&mut gc), &mut scratch);
            // Per-instance step sizing — the scalar solver's decisions,
            // instance by instance.
            for (j, dt_slot) in dts.iter_mut().enumerate() {
                if !active[j] {
                    *dt_slot = 0.0;
                    continue;
                }
                let mut dt_step = dt_next[j].min(opts.t_stop - t[j]);
                for i in 0..n {
                    let at = i * b + j;
                    let denom = k1[at].abs() - dv_max * gc[at];
                    if denom > 0.0 {
                        dt_step = dt_step.min(dv_max / denom);
                    }
                }
                dt_step = dt_step.max(dt_min).min(opts.t_stop - t[j]);
                while dt_step > opts.dt && self.source_slew(j, t[j], dt_step, &v) > src_dv_max {
                    dt_step *= 0.5;
                }
                *dt_slot = dt_step;
            }
            // Damped predictor for every lane at once (inactive lanes get
            // `dt = 0`, i.e. scratch values that are never read back).
            for i in 0..n {
                let at = i * b;
                for j in 0..b {
                    let dt = dts[j];
                    tmp[at + j] = v[at + j] + k1[at + j] * dt / (1.0 + gc[at + j] * dt);
                }
            }
            for j in 0..b {
                if active[j] {
                    self.apply_sources(j, t[j] + dts[j], &mut tmp);
                }
            }
            self.derivatives(&tmp, &mut k2, None, &mut scratch);
            // Accept or retry, per instance.
            for j in 0..b {
                if !active[j] {
                    continue;
                }
                let dt_step = dts[j];
                let mut err = 0.0f64;
                for i in 0..n {
                    let at = i * b + j;
                    if gc[at] * dt_step <= 1.0 {
                        err = err.max((k2[at] - k1[at]).abs() * dt_step * 0.5);
                    }
                }
                if err > dv_max && dt_step > dt_min * 1.5 {
                    dt_next[j] = (dt_step * 0.5).max(dt_min);
                    continue;
                }
                for i in 0..n {
                    let at = i * b + j;
                    let r = gc[at] * dt_step;
                    if r > 1.0 {
                        v[at] += k1[at] * dt_step / (1.0 + r);
                    } else {
                        v[at] += 0.5 * (k1[at] + k2[at]) * dt_step;
                    }
                }
                self.apply_sources(j, t[j] + dt_step, &mut v);
                t[j] += dt_step;
                let mut crossed = false;
                if t[j] + 1e-18 >= next_store[j] {
                    gather_row(&v, b, j, &mut row);
                    traces[j].push(t[j], &row);
                    next_store[j] = t[j] + opts.store_dt;
                    crossed = stop.is_some_and(|c| c.ends(&traces[j]));
                }
                dt_next[j] = if err < 0.25 * dv_max {
                    (dt_step * 2.0).min(dt_max)
                } else {
                    dt_step.min(dt_max)
                };
                if crossed || t[j] >= opts.t_stop - 1e-18 {
                    active[j] = false;
                    n_active -= 1;
                    if traces[j].times().last().copied() != Some(t[j]) {
                        gather_row(&v, b, j, &mut row);
                        traces[j].push(t[j], &row);
                    }
                }
            }
        }
        traces
    }
}

/// Per-mosfet evaluation scratch, reused across rounds.
struct Scratch {
    vgs: Vec<f64>,
    vds: Vec<f64>,
    sgn: Vec<f64>,
    cur: Vec<f64>,
    gds: Vec<f64>,
}

impl Scratch {
    fn new(b: usize) -> Self {
        Self {
            vgs: vec![0.0; b],
            vds: vec![0.0; b],
            sgn: vec![0.0; b],
            cur: vec![0.0; b],
            gds: vec![0.0; b],
        }
    }
}

/// Copies instance `j`'s voltages out of the SoA layout.
fn gather_row(v: &[f64], b: usize, j: usize, row: &mut [f64]) {
    for (i, slot) in row.iter_mut().enumerate() {
        *slot = v[i * b + j];
    }
}

/// Structural equality of instance `idx` against the template.
fn check_topology(t0: &Circuit, c: &Circuit, idx: usize) -> Result<(), CircuitError> {
    let fail = |reason: String| {
        Err(CircuitError::BatchMismatch {
            instance: idx,
            reason,
        })
    };
    if c.node_count() != t0.node_count() {
        return fail(format!("{} nodes vs {}", c.node_count(), t0.node_count()));
    }
    for (i, (ka, kb)) in t0.kinds.iter().zip(&c.kinds).enumerate() {
        let same = matches!(
            (ka, kb),
            (NodeKind::State { .. }, NodeKind::State { .. })
                | (NodeKind::Driven { .. }, NodeKind::Driven { .. })
                | (NodeKind::Ground, NodeKind::Ground)
        );
        if !same {
            return fail(format!("node {i} kind differs"));
        }
    }
    if c.resistors.len() != t0.resistors.len() {
        return fail(format!(
            "{} resistors vs {}",
            c.resistors.len(),
            t0.resistors.len()
        ));
    }
    for (r, (ra, rb)) in t0.resistors.iter().zip(&c.resistors).enumerate() {
        if (ra.0, ra.1) != (rb.0, rb.1) {
            return fail(format!("resistor {r} endpoints differ"));
        }
    }
    if c.mosfets.len() != t0.mosfets.len() {
        return fail(format!(
            "{} mosfets vs {}",
            c.mosfets.len(),
            t0.mosfets.len()
        ));
    }
    for (m, (ma, mb)) in t0.mosfets.iter().zip(&c.mosfets).enumerate() {
        if ma.dev.kind() != mb.dev.kind() {
            return fail(format!("mosfet {m} polarity differs"));
        }
        if (ma.d, ma.g, ma.s) != (mb.d, mb.g, mb.s) {
            return fail(format!("mosfet {m} wiring differs"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Edge, NodeId};
    use bpimc_device::{Env, VtFlavor};

    fn rc(r: f64) -> Circuit {
        let mut ckt = Circuit::new(Env::nominal());
        let out = ckt.add_node("out", 10e-15, 0.9);
        ckt.add_resistor(out, ckt.gnd(), r);
        ckt
    }

    fn nmos_pulldown(dvt: f64, vdd: f64) -> Circuit {
        let mut ckt = Circuit::new(Env::nominal());
        let gate = ckt.add_source("g", Waveform::step(0.0, vdd, 100e-12, 20e-12));
        let bl = ckt.add_node("bl", 20e-15, vdd);
        ckt.add_mosfet(
            Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0).with_dvt(dvt),
            bl,
            gate,
            ckt.gnd(),
        );
        ckt
    }

    #[test]
    fn batch_of_rcs_matches_scalar_bit_for_bit() {
        let circuits: Vec<Circuit> = [2e3, 5e3, 10e3, 20e3, 50e3].map(rc).into_iter().collect();
        let opts = SimOptions::for_window(1e-9);
        let traces = BatchSim::new(&circuits, &opts).unwrap().run();
        for (c, tr) in circuits.iter().zip(&traces) {
            assert_eq!(*tr, c.run(&opts));
        }
    }

    #[test]
    fn batch_of_mosfet_discharges_matches_scalar_bit_for_bit() {
        let circuits: Vec<Circuit> = (0..7)
            .map(|i| nmos_pulldown(i as f64 * 0.01 - 0.03, 0.9))
            .collect();
        let opts = SimOptions::for_window(2e-9);
        let traces = BatchSim::new(&circuits, &opts).unwrap().run();
        for (c, tr) in circuits.iter().zip(&traces) {
            let scalar = c.run(&opts);
            assert_eq!(tr.times(), scalar.times());
            assert_eq!(*tr, scalar);
        }
    }

    #[test]
    fn per_instance_waveforms_and_supplies_are_allowed() {
        // Different gate step times AND different VDD per instance: the
        // ablation/vrange sweep shape.
        let circuits: Vec<Circuit> = [(0.8, 50e-12), (0.9, 100e-12), (1.0, 200e-12)]
            .iter()
            .map(|&(vdd, t0)| {
                let mut ckt = Circuit::new(Env::nominal().with_vdd(vdd));
                let gate = ckt.add_source("g", Waveform::step(0.0, vdd, t0, 20e-12));
                let bl = ckt.add_node("bl", 20e-15, vdd);
                ckt.add_mosfet(Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0), bl, gate, ckt.gnd());
                ckt
            })
            .collect();
        let opts = SimOptions::for_window(2e-9);
        let traces = BatchSim::new(&circuits, &opts).unwrap().run();
        for (c, tr) in circuits.iter().zip(&traces) {
            assert_eq!(*tr, c.run(&opts));
        }
    }

    #[test]
    fn single_instance_batch_matches_scalar() {
        let circuits = vec![nmos_pulldown(0.0, 0.9)];
        let opts = SimOptions::for_window(1e-9);
        let traces = BatchSim::new(&circuits, &opts).unwrap().run();
        assert_eq!(traces[0], circuits[0].run(&opts));
    }

    #[test]
    fn stopped_lanes_are_prefixes_of_the_full_run_ending_at_the_first_crossing_row() {
        // Strong to weak pulldowns: the weakest never reach the level inside
        // the window, so stopped and full-window lanes share one cohort.
        let circuits: Vec<Circuit> = [-0.03, -0.01, 0.0, 0.02, 0.04, 0.35, 0.5]
            .map(|dvt| nmos_pulldown(dvt, 0.9))
            .into_iter()
            .collect();
        let bl = NodeId(2); // nmos_pulldown adds gnd, gate, then bl
        let stop = Crossing {
            node: bl,
            level: 0.45,
            edge: Edge::Falling,
            t_from: 100e-12,
        };
        let sim = BatchSim::new(&circuits, &SimOptions::for_window(2e-9)).unwrap();
        let (full, cut) = (sim.run(), sim.run_until(Some(stop)));
        let mut stopped = 0;
        for (j, (f, c)) in full.iter().zip(&cut).enumerate() {
            let n = c.len();
            assert_eq!(c.times(), &f.times()[..n], "lane {j} times");
            for k in 0..n {
                for node in 0..circuits[j].node_count() {
                    let (a, b) = (
                        c.voltage_at_index(NodeId(node), k),
                        f.voltage_at_index(NodeId(node), k),
                    );
                    assert_eq!(a.to_bits(), b.to_bits(), "lane {j} row {k} node {node}");
                }
            }
            // The first stored falling crossing at or after t_from, found
            // independently of the integrator's stop test.
            let first = (1..f.len()).find(|&k| {
                f.times()[k - 1] >= stop.t_from
                    && f.voltage_at_index(bl, k - 1) > stop.level
                    && f.voltage_at_index(bl, k) <= stop.level
            });
            match first {
                Some(k) => {
                    stopped += 1;
                    assert_eq!(n, k + 1, "lane {j} must end at its crossing row");
                    let (tc, tf) = (stop.time_in(c).unwrap(), stop.time_in(f).unwrap());
                    assert_eq!(tc.to_bits(), tf.to_bits(), "lane {j} crossing time");
                }
                None => assert_eq!(c, f, "lane {j} never crosses: full window"),
            }
        }
        assert!(
            stopped > 0 && stopped < circuits.len(),
            "{stopped} of {} lanes crossed; the test needs both kinds",
            circuits.len()
        );
    }

    #[test]
    fn mismatched_topology_is_rejected() {
        let a = rc(1e4);
        let b = nmos_pulldown(0.0, 0.9);
        let err = BatchSim::new(&[a, b], &SimOptions::for_window(1e-9)).unwrap_err();
        assert!(matches!(
            err,
            CircuitError::BatchMismatch { instance: 1, .. }
        ));
    }
}
