//! Structure-of-arrays batched transient solving.
//!
//! Monte-Carlo sweeps (and parameter sweeps like the pulse-width ablation)
//! simulate the *same netlist topology* hundreds to thousands of times with
//! different device parameters, waveforms or environments. The scalar
//! solver ([`crate::sim`]) walks one instance at a time, which leaves the
//! device-model arithmetic — three `exp` and two `ln` per MOSFET per
//! derivative pass, two passes per step — stuck in one serial dependency
//! chain per instance.
//!
//! [`BatchSim`] compiles the topology **once** and lays the per-instance
//! state out as contiguous per-field arrays (`voltages[node][instance]`,
//! `vt[mosfet][instance]`, …) in whole 16-lane chunks of instances
//! ([`crate::mc::BATCH_COHORT`], so a full Monte-Carlo cohort is one
//! chunk). A batch that is not a multiple of 16 is padded with copies of
//! its last instance; the pads never step and yield no trace.
//!
//! A derivative pass walks each chunk in three phases, each a loop over
//! the elements with every operation across the chunk's 16 lanes.
//! *Orient* loads each MOSFET's drain, gate and source voltages, orients
//! the terminals and writes its `vgs`, `vds` and current direction, and
//! each resistor's current. *Kernel* evaluates the device kernel
//! ([`bpimc_device::MosParamsLanes::id_g`]: branch-free `fastmath`
//! arithmetic, each operation across all 16 lanes before the next, which
//! the compiler turns into four independent vector chains) on every
//! MOSFET. *Stamp* sums each node's currents, and on the predictor's pass
//! its conductances, in the scalar solver's element order, and scales them
//! by the node's capacitance. Both passes run the same three loops; the
//! corrector's skips the conductances.
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

use crate::mc::BATCH_COHORT;
use crate::netlist::{Circuit, NodeKind};
use crate::sim::SimOptions;
use crate::trace::{Crossing, Trace};
use crate::wave::Waveform;
use crate::CircuitError;
use bpimc_device::{DeviceKind, MosParams, MosParamsLanes};
use std::array::from_fn;

/// One chunk's worth of lanes: a value at each of [`BATCH_COHORT`]
/// instances.
type Lanes = [f64; BATCH_COHORT];

/// A batch of structurally identical circuits prepared for one
/// structure-of-arrays transient solve. See the module docs.
#[derive(Debug)]
pub struct BatchSim<'a> {
    insts: &'a [Circuit],
    opts: SimOptions,
    /// Nodes per instance (including ground).
    nodes: usize,
    /// Lanes per row of every per-lane array: the batch rounded up to
    /// whole [`BATCH_COHORT`]-wide chunks. Lanes past the batch are pads,
    /// copies of the last instance that never step.
    width: usize,
    /// Per-node capacitance, `[node * width + j]`; `INFINITY` marks
    /// driven/ground nodes exactly like the scalar solver.
    caps: Vec<f64>,
    /// Whether a node is a state node (same for every instance).
    is_state: Vec<bool>,
    /// Resistor endpoints (shared topology).
    cond_ends: Vec<(usize, usize)>,
    /// Per-resistor conductance lanes, `[res * width + j]`.
    cond_g: Vec<f64>,
    /// MOSFET topology: polarity and drain/gate/source node indices.
    mos_topo: Vec<(DeviceKind, usize, usize, usize)>,
    /// Per node, the current terms the scalar solver adds to it, in its
    /// element order (resistors, then MOSFETs, each element's first
    /// terminal before its second): the element, numbered resistors
    /// first, and whether its current flows into the node (`+=`) or out
    /// of it (`-=`). Only state nodes read theirs.
    stamps: Vec<Vec<(usize, bool)>>,
    /// Per-mosfet parameter lanes, `[mos * width + j]` each.
    vt: Vec<f64>,
    phi: Vec<f64>,
    keff: Vec<f64>,
    alpha: Vec<f64>,
    lambda: Vec<f64>,
    sat_frac: Vec<f64>,
    vdsat_min: Vec<f64>,
    /// Initial voltages, `[node * width + j]`.
    v0: Vec<f64>,
    /// Driven nodes in ascending node order, with one waveform per lane.
    driven: Vec<(usize, Vec<&'a Waveform>)>,
    /// Ground nodes (held at 0 V).
    grounds: Vec<usize>,
}

/// The derivative walk's lane arrays for one chunk: each MOSFET's
/// oriented biases, written by the orient phase, and each element's
/// current and conductance, read by the stamp phase.
/// [`BatchSim::run_until`] allocates them once per run.
struct Scratch {
    vgs: Vec<Lanes>,
    vds: Vec<Lanes>,
    /// `1.0` where the drain is the high terminal, `-1.0` where the source
    /// is: the sign of the current in drain-to-source orientation.
    dir: Vec<Lanes>,
    /// Per element, resistors first: the current from its first terminal
    /// to its second (drain to source for a MOSFET).
    cur: Vec<Lanes>,
    /// Per element, resistors first: its conductance (`G` passes only).
    g: Vec<Lanes>,
}

impl Scratch {
    fn new(resistors: usize, mosfets: usize) -> Self {
        let lanes = |n| vec![[0.0; BATCH_COHORT]; n];
        Self {
            vgs: lanes(mosfets),
            vds: lanes(mosfets),
            dir: lanes(mosfets),
            cur: lanes(resistors + mosfets),
            g: lanes(resistors + mosfets),
        }
    }
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
        let width = circuits.len().next_multiple_of(BATCH_COHORT);
        let nodes = t0.node_count();
        // Each lane's instance: pads repeat the last one.
        let lane_insts = || (0..width).map(|j| &circuits[j.min(circuits.len() - 1)]);

        let mut caps = vec![0.0; nodes * width];
        let mut v0 = vec![0.0; nodes * width];
        for (j, c) in lane_insts().enumerate() {
            for (i, k) in c.kinds.iter().enumerate() {
                caps[i * width + j] = match k {
                    NodeKind::State { cap } => *cap,
                    _ => f64::INFINITY,
                };
                v0[i * width + j] = c.v0[i];
            }
        }
        let is_state = t0
            .kinds
            .iter()
            .map(|k| matches!(k, NodeKind::State { .. }))
            .collect();

        let cond_ends: Vec<(usize, usize)> =
            t0.resistors.iter().map(|&(a, b, _)| (a.0, b.0)).collect();
        let mut cond_g = vec![0.0; cond_ends.len() * width];
        for (j, c) in lane_insts().enumerate() {
            for (r, &(_, _, ohms)) in c.resistors.iter().enumerate() {
                cond_g[r * width + j] = 1.0 / ohms;
            }
        }

        let mos_topo: Vec<(DeviceKind, usize, usize, usize)> = t0
            .mosfets
            .iter()
            .map(|m| (m.dev.kind(), m.d.0, m.g.0, m.s.0))
            .collect();
        let len = mos_topo.len() * width;
        let (mut vt, mut phi, mut keff, mut alpha, mut lambda, mut sat_frac, mut vdsat_min) = (
            vec![0.0; len],
            vec![0.0; len],
            vec![0.0; len],
            vec![0.0; len],
            vec![0.0; len],
            vec![0.0; len],
            vec![0.0; len],
        );
        for (j, c) in lane_insts().enumerate() {
            for (m, inst) in c.mosfets.iter().enumerate() {
                let p = MosParams::compile(&inst.dev, c.env());
                let at = m * width + j;
                vt[at] = p.vt;
                phi[at] = p.phi;
                keff[at] = p.keff;
                alpha[at] = p.alpha;
                lambda[at] = p.lambda;
                sat_frac[at] = p.sat_frac;
                vdsat_min[at] = p.vdsat_min;
            }
        }

        let mut stamps = vec![Vec::new(); nodes];
        let ends = cond_ends.iter().copied();
        let mos_ends = mos_topo.iter().map(|&(_, d, _, s)| (d, s));
        for (e, (from, to)) in ends.chain(mos_ends).enumerate() {
            stamps[from].push((e, false));
            stamps[to].push((e, true));
        }

        let mut driven: Vec<(usize, Vec<&'a Waveform>)> = Vec::new();
        let mut grounds = Vec::new();
        for (i, k) in t0.kinds.iter().enumerate() {
            match k {
                NodeKind::Driven { .. } => {
                    let waves = lane_insts()
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
            width,
            caps,
            is_state,
            cond_ends,
            cond_g,
            mos_topo,
            stamps,
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

    /// Element currents into `dvdt` and, on the `G` pass (the predictor's
    /// k1), the per-node stiffness rates into `gc` — the batched twin of
    /// the scalar solver's `derivatives_g` (`G`) and `derivatives`, same
    /// element order, same per-instance arithmetic. Without `G`, `gc` keeps
    /// what the last `G` pass wrote.
    ///
    /// Every lane, pads included, goes through one [`BATCH_COHORT`]-wide
    /// walk of the netlist per chunk ([`BatchSim::walk`]).
    fn derivatives<const G: bool>(
        &self,
        v: &[f64],
        dvdt: &mut [f64],
        gc: &mut [f64],
        scratch: &mut Scratch,
    ) {
        let mos = MosParamsLanes {
            vt: &self.vt,
            phi: &self.phi,
            keff: &self.keff,
            alpha: &self.alpha,
            lambda: &self.lambda,
            sat_frac: &self.sat_frac,
            vdsat_min: &self.vdsat_min,
        };
        for j0 in (0..self.width).step_by(BATCH_COHORT) {
            self.walk::<G>(&mos, j0, v, dvdt, gc, scratch);
        }
    }

    /// [`BatchSim::derivatives`] on the chunk of lanes from `j0`: orient,
    /// kernel and stamp (see the module docs). Each state node's sums
    /// start from zero and take its terms in the scalar solver's order, so
    /// every lane adds the same IEEE operations in the same order; every
    /// other node gets zero.
    fn walk<const G: bool>(
        &self,
        mos: &MosParamsLanes<'_>,
        j0: usize,
        v: &[f64],
        dvdt: &mut [f64],
        gc: &mut [f64],
        s: &mut Scratch,
    ) {
        let w = self.width;
        let res = self.cond_ends.len();
        for (r, (&(a, bn), (cur, g))) in self
            .cond_ends
            .iter()
            .zip(s.cur.iter_mut().zip(&mut s.g))
            .enumerate()
        {
            let gr = lanes(&self.cond_g, r * w + j0);
            let (va, vb) = (lanes(v, a * w + j0), lanes(v, bn * w + j0));
            *cur = from_fn(|j| (va[j] - vb[j]) * gr[j]);
            if G {
                *g = gr;
            }
        }
        let topo = self.mos_topo.iter();
        for ((&(kind, d, gnode, src), (vgs, vds)), dir) in
            topo.zip(s.vgs.iter_mut().zip(&mut s.vds)).zip(&mut s.dir)
        {
            let (vd, vg, vs) = (
                lanes(v, d * w + j0),
                lanes(v, gnode * w + j0),
                lanes(v, src * w + j0),
            );
            // Terminal orientation exactly as the scalar solver decides it:
            // `(hi, lo) = if v[d] >= v[s] { (d, s) } else { (s, d) }`.
            let fwd: [bool; BATCH_COHORT] = from_fn(|j| vd[j] >= vs[j]);
            let hi: Lanes = from_fn(|j| if fwd[j] { vd[j] } else { vs[j] });
            let lo: Lanes = from_fn(|j| if fwd[j] { vs[j] } else { vd[j] });
            *vds = from_fn(|j| hi[j] - lo[j]);
            *vgs = match kind {
                DeviceKind::Nmos => from_fn(|j| vg[j] - lo[j]),
                DeviceKind::Pmos => from_fn(|j| hi[j] - vg[j]),
            };
            *dir = from_fn(|j| if fwd[j] { 1.0 } else { -1.0 });
        }
        for (m, ((cur, g), ((vgs, vds), dir))) in s.cur[res..]
            .iter_mut()
            .zip(&mut s.g[res..])
            .zip(s.vgs.iter().zip(&s.vds).zip(&s.dir))
            .enumerate()
        {
            let (id, gds) = mos.id_g::<BATCH_COHORT, G>(m * w + j0, *vgs, *vds);
            // Signed current in drain->source orientation; `x -= -i` and
            // `x += i` are the same IEEE operation, so per-instance results
            // match the scalar solver's hi/lo formulation bit for bit.
            *cur = from_fn(|j| id[j] * dir[j]);
            if G {
                *g = gds;
            }
        }
        for (i, (terms, &state)) in self.stamps.iter().zip(&self.is_state).enumerate() {
            let at = i * w + j0;
            if !state {
                *lanes_mut(dvdt, at) = [0.0; BATCH_COHORT];
                if G {
                    *lanes_mut(gc, at) = [0.0; BATCH_COHORT];
                }
                continue;
            }
            let (mut dv, mut gsum) = ([0.0; BATCH_COHORT], [0.0; BATCH_COHORT]);
            for &(e, into) in terms {
                let c = &s.cur[e];
                dv = if into {
                    from_fn(|j| dv[j] + c[j])
                } else {
                    from_fn(|j| dv[j] - c[j])
                };
                if G {
                    let g = &s.g[e];
                    gsum = from_fn(|j| gsum[j] + g[j]);
                }
            }
            let cap = lanes(&self.caps, at);
            *lanes_mut(dvdt, at) = from_fn(|j| dv[j] / cap[j]);
            if G {
                *lanes_mut(gc, at) = from_fn(|j| gsum[j] / cap[j]);
            }
        }
    }

    /// Sets lane `j`'s driven and ground nodes for time `t`.
    fn apply_sources(&self, j: usize, t: f64, v: &mut [f64]) {
        let w = self.width;
        for (node, waves) in &self.driven {
            v[node * w + j] = waves[j].at(t);
        }
        for &node in &self.grounds {
            v[node * w + j] = 0.0;
        }
    }

    /// Lane `j`'s fastest driven-node movement across `[t, t + dt]` — the
    /// scalar solver's `source_slew`, same sampling, same fold order.
    fn source_slew(&self, j: usize, t: f64, dt: f64, v: &[f64]) -> f64 {
        let w = self.width;
        let mut worst = 0.0f64;
        for (node, waves) in &self.driven {
            for q in [0.5, 1.0] {
                worst = worst.max((waves[j].at(t + q * dt) - v[node * w + j]).abs());
            }
        }
        worst
    }

    /// Runs every instance to `t_stop` and returns one trace per instance,
    /// in batch order — each bit-identical to the scalar solver's trace
    /// for that instance. The no-stop case of [`BatchSim::run_until`].
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
    pub fn run_until(&self, stop: Option<Crossing>) -> Vec<Trace> {
        let (b, w, n) = (self.batch(), self.width, self.nodes);
        let opts = &self.opts;
        let dv_max = opts.dv_max;
        let dt_min = opts.dt / f64::from(1u32 << opts.max_depth.min(30));
        let dt_max = opts.dt * opts.max_growth.max(1.0);
        let src_dv_max = 2.0 * dv_max;

        let mut v = self.v0.clone();
        for j in 0..w {
            self.apply_sources(j, 0.0, &mut v);
        }
        let mut k1 = vec![0.0; n * w];
        let mut k2 = vec![0.0; n * w];
        let mut tmp = vec![0.0; n * w];
        let mut gc = vec![0.0; n * w];
        let mut scratch = Scratch::new(self.cond_ends.len(), self.mos_topo.len());
        let mut row = vec![0.0; n];

        let mut traces: Vec<Trace> = self
            .insts
            .iter()
            .map(|c| Trace::new(c.names.clone()))
            .collect();
        for (j, tr) in traces.iter_mut().enumerate() {
            gather_row(&v, w, j, &mut row);
            tr.push(0.0, &row);
        }
        // Per-lane state. Pads are never active: their `dts` stay 0, so
        // the predictor leaves them where they started.
        let mut t = vec![0.0f64; w];
        let mut dt_next = vec![opts.dt; w];
        let mut next_store = vec![opts.store_dt; b];
        let mut dts = vec![0.0f64; w];
        let mut errs = vec![0.0f64; w];
        let mut active: Vec<bool> = (0..w).map(|j| j < b).collect();

        let mut n_active = b;
        while n_active > 0 {
            self.derivatives::<true>(&v, &mut k1, &mut gc, &mut scratch);
            // Per-lane step sizing: the scalar solver's decisions, lane by
            // lane. The node bound is a `min` over non-NaN values, which
            // does not depend on order, so it runs node by node across all
            // lanes.
            for j in 0..w {
                dts[j] = dt_next[j].min(opts.t_stop - t[j]);
            }
            for (k1, gc) in k1.chunks_exact(w).zip(gc.chunks_exact(w)) {
                for j in 0..w {
                    let denom = k1[j].abs() - dv_max * gc[j];
                    if denom > 0.0 {
                        dts[j] = dts[j].min(dv_max / denom);
                    }
                }
            }
            for j in 0..w {
                if !active[j] {
                    dts[j] = 0.0;
                    continue;
                }
                let mut dt_step = dts[j].max(dt_min).min(opts.t_stop - t[j]);
                while dt_step > opts.dt && self.source_slew(j, t[j], dt_step, &v) > src_dv_max {
                    dt_step *= 0.5;
                }
                dts[j] = dt_step;
            }
            // Damped predictor for every lane at once (inactive lanes get
            // `dt = 0`, i.e. scratch values that are never read back).
            for i in 0..n {
                let at = i * w;
                for j in 0..w {
                    let dt = dts[j];
                    tmp[at + j] = v[at + j] + k1[at + j] * dt / (1.0 + gc[at + j] * dt);
                }
            }
            for j in 0..b {
                if active[j] {
                    self.apply_sources(j, t[j] + dts[j], &mut tmp);
                }
            }
            self.derivatives::<false>(&tmp, &mut k2, &mut gc, &mut scratch);
            // Corrector error per lane, node by node across all lanes (a
            // `max` over non-NaN values, as order-free as the bound).
            errs.fill(0.0);
            for ((k1, k2), gc) in k1
                .chunks_exact(w)
                .zip(k2.chunks_exact(w))
                .zip(gc.chunks_exact(w))
            {
                for j in 0..w {
                    if gc[j] * dts[j] <= 1.0 {
                        errs[j] = errs[j].max((k2[j] - k1[j]).abs() * dts[j] * 0.5);
                    }
                }
            }
            // Accept or retry, per lane.
            for j in 0..b {
                if !active[j] {
                    continue;
                }
                let (dt_step, err) = (dts[j], errs[j]);
                if err > dv_max && dt_step > dt_min * 1.5 {
                    dt_next[j] = (dt_step * 0.5).max(dt_min);
                    continue;
                }
                for i in 0..n {
                    let at = i * w + j;
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
                    gather_row(&v, w, j, &mut row);
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
                        gather_row(&v, w, j, &mut row);
                        traces[j].push(t[j], &row);
                    }
                }
            }
        }
        traces
    }
}

/// Lanes `at..at + BATCH_COHORT` of a `[row * width + lane]` array.
#[inline(always)]
fn lanes(xs: &[f64], at: usize) -> Lanes {
    *xs[at..].first_chunk().expect("lane range inside the array")
}

/// Lanes `at..at + BATCH_COHORT` of a `[row * width + lane]` array, in
/// place.
#[inline(always)]
fn lanes_mut(xs: &mut [f64], at: usize) -> &mut Lanes {
    xs[at..]
        .first_chunk_mut()
        .expect("lane range inside the array")
}

/// Copies lane `j`'s voltages out of the SoA layout of row width `w`.
fn gather_row(v: &[f64], w: usize, j: usize, row: &mut [f64]) {
    for (i, slot) in row.iter_mut().enumerate() {
        *slot = v[i * w + j];
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
    use bpimc_device::{Env, Mosfet, VtFlavor};

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
