//! The served workloads: seeded request pools with host-computed expected
//! results, in-process server set-up, closed-loop client phases, the
//! per-session cost-model oracle, and durable crash images with timed
//! recovery boots.

use crate::util::{copy_dir, dir_bytes, median, mix64, secs, Hist, Report};
use crate::Workload;
use bpimc_bench::shapes::{program_request, SHAPE_COUNT};
use bpimc_core::prog::{Instr, Program, ProgramBuilder};
use bpimc_core::{
    LaneOp, LogicOp, MacroConfig, Precision, RequestBody, Response, ResponseBody, StoredTarget,
};
use bpimc_nn::{classify_program, dot_program};
use bpimc_server::{inspect, Client, FsyncPolicy, Server, ServerConfig, ServerHandle, StateConfig};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests in each client's pool; phases cycle through it. A multiple of
/// five, so the five-op mix holds exactly.
pub const POOL: usize = 1000;
/// Untimed warm-up requests per client, the last step of set-up.
const WARMUP: usize = 200;
/// Requests per client in the durable crash-image phase.
const IMAGE_OPS: usize = 800;
/// Features and classes of the stored workload's classifier.
const MODEL_DIM: usize = 16;
const MODEL_CLASSES: usize = 4;
/// Width of the slices the request rate is measured over.
const SLICE_S: f64 = 0.05;
/// Consecutive correct responses of one client whose median and p90 are one
/// sample each of `latency_p50_us` and `latency_p90_us`.
const CHUNK: usize = 1024;

/// Row width of the served macros.
pub fn cols() -> usize {
    MacroConfig::default().geometry.cols
}

/// A response that counts as correct.
#[derive(Debug, Clone)]
pub enum Expect {
    Scalar(u64),
    Words(Vec<u64>),
    /// Program outputs and the static per-instruction cycles.
    Report(Vec<Vec<u64>>, Vec<u64>),
    Class(usize),
}

/// What the server executes for a request, as the trace replays it.
#[derive(Debug, Clone)]
pub enum Exec {
    /// `bpimc_nn::imc_dot`.
    Dot {
        precision: Precision,
        x: Vec<u64>,
        w: Vec<u64>,
    },
    /// `Program::run` on the server's lowering of a lane-wise op.
    Program(Program),
    /// `CompiledProgram::run_with_inputs` on stored shape `variant`.
    Stored {
        variant: usize,
        inputs: Vec<Vec<u64>>,
    },
    /// The classify template plus `classify_from_outputs`.
    Classify(Vec<u64>),
}

/// One pooled request with its oracle.
#[derive(Debug, Clone)]
pub struct Req {
    pub body: RequestBody,
    pub expect: Expect,
    /// Cycles the static cost model bills for it.
    pub cycles: u64,
    pub exec: Exec,
}

/// The stored workload's 4-class P8 nearest-prototype model.
pub struct Model {
    pub prototypes: Vec<Vec<u64>>,
    pub norms: Vec<u64>,
    /// Static cycles of the `load_model` norm precompute.
    pub load_cycles: u64,
    /// Static cycles of one classification.
    pub classify_cycles: u64,
}

impl Model {
    pub fn new(seed: u64) -> Model {
        let prototypes: Vec<Vec<u64>> = (0..MODEL_CLASSES as u64)
            .map(|c| {
                (0..MODEL_DIM as u64)
                    .map(|i| mix64(seed ^ 0xC1A5_5000 ^ (c << 16 | i)) % 256)
                    .collect()
            })
            .collect();
        let norms = prototypes
            .iter()
            .map(|w| w.iter().map(|v| v * v).sum())
            .collect();
        let load_cycles = prototypes
            .iter()
            .map(|w| dot_program(Precision::P8, w, w, cols()).cycles())
            .sum();
        let classify_cycles =
            classify_program(Precision::P8, &prototypes, &[0; MODEL_DIM], cols()).cycles();
        Model {
            prototypes,
            norms,
            load_cycles,
            classify_cycles,
        }
    }

    /// The host's nearest-prototype answer, with the server's tie rule
    /// (the lowest class wins).
    fn classify(&self, x: &[u64]) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (c, (w, &ww)) in self.prototypes.iter().zip(&self.norms).enumerate() {
            let xw: u64 = x.iter().zip(w).map(|(a, b)| a * b).sum();
            let score = xw as f64 - ww as f64 / 2.0;
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((c, score));
            }
        }
        best.expect("the model has classes").0
    }
}

/// The server's lowering of a lane-wise op (one write pair, op and read
/// per lane chunk over three recycled registers), mirrored so the oracle
/// knows its static cycles and the trace can replay it.
fn lanes_program(op: LaneOp, p: Precision, a: &[u64], b: &[u64]) -> Program {
    let lanes = match op {
        LaneOp::Mult => p.product_lanes(cols()),
        _ => p.lanes(cols()),
    };
    let mut bld = ProgramBuilder::new();
    let (ra, rb, rd) = (bld.alloc(), bld.alloc(), bld.alloc());
    for (ac, bc) in a.chunks(lanes).zip(b.chunks(lanes)) {
        if op == LaneOp::Mult {
            bld.write_mult_to(ra, p, ac.to_vec());
            bld.write_mult_to(rb, p, bc.to_vec());
            bld.push(Instr::Mult {
                a: ra,
                b: rb,
                dst: rd,
                precision: p,
            });
            bld.read_products(rd, p, ac.len());
            continue;
        }
        bld.write_to(ra, p, ac.to_vec());
        bld.write_to(rb, p, bc.to_vec());
        bld.push(match op {
            LaneOp::Add => Instr::Add {
                a: ra,
                b: rb,
                dst: rd,
                precision: p,
            },
            LaneOp::Sub => Instr::Sub {
                a: ra,
                b: rb,
                dst: rd,
                precision: p,
            },
            LaneOp::Logic(l) => Instr::Logic {
                op: l,
                a: ra,
                b: rb,
                dst: rd,
            },
            LaneOp::Mult => unreachable!("handled above"),
        });
        bld.read(rd, p, ac.len());
    }
    bld.finish()
}

/// One request of the five-op mix `load_gen` drives (dot P8x12, add
/// P8x16, mult P4x8, sub P16x4, xor P2x32), operands keyed by `k`.
fn per_op_request(k: u64, r: usize) -> Req {
    if r.is_multiple_of(5) {
        let x: Vec<u64> = (0..12).map(|i| (k + i * 3) % 256).collect();
        let w: Vec<u64> = (0..12).map(|i| (k + i * 5 + 1) % 256).collect();
        let dot = x.iter().zip(&w).map(|(a, b)| a * b).sum();
        let p = Precision::P8;
        return Req {
            cycles: dot_program(p, &x, &w, cols()).cycles(),
            body: RequestBody::Dot {
                precision: p,
                x: x.clone(),
                w: w.clone(),
            },
            expect: Expect::Scalar(dot),
            exec: Exec::Dot { precision: p, x, w },
        };
    }
    let (op, p, a, b): (LaneOp, Precision, Vec<u64>, Vec<u64>) = match r % 5 {
        1 => (
            LaneOp::Add,
            Precision::P8,
            (0..16).map(|i| (k + i) % 256).collect(),
            (0..16).map(|i| (k * 3 + i) % 256).collect(),
        ),
        2 => (
            LaneOp::Mult,
            Precision::P4,
            (0..8).map(|i| (k + i) % 16).collect(),
            (0..8).map(|i| (k * 5 + i) % 16).collect(),
        ),
        3 => (
            LaneOp::Sub,
            Precision::P16,
            (0..4).map(|i| (k * 251 + i) % 65536).collect(),
            (0..4).map(|i| (k * 509 + i) % 65536).collect(),
        ),
        _ => (
            LaneOp::Logic(LogicOp::Xor),
            Precision::P2,
            (0..32).map(|i| (k + i * 3) % 4).collect(),
            (0..32).map(|i| (k * 7 + i) % 4).collect(),
        ),
    };
    let mask = p.max_value();
    let want = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| match op {
            LaneOp::Add => (x + y) & mask,
            LaneOp::Sub => x.wrapping_sub(y) & mask,
            LaneOp::Mult => x * y,
            _ => x ^ y,
        })
        .collect();
    let prog = lanes_program(op, p, &a, &b);
    Req {
        cycles: prog.cycles(),
        body: RequestBody::Lanes {
            op,
            precision: p,
            a,
            b,
        },
        expect: Expect::Words(want),
        exec: Exec::Program(prog),
    }
}

/// The write values of a program in submitted order: its full binding.
fn write_values(prog: &Program) -> Vec<Vec<u64>> {
    prog.instrs()
        .iter()
        .filter_map(|i| match i {
            Instr::Write { values, .. } | Instr::WriteMult { values, .. } => Some(values.clone()),
            _ => None,
        })
        .collect()
}

/// One request of the stored workload: `run_stored` of shape `r % 5`
/// with rebound inputs, or (`r % 5 == 4`) a classification.
fn stored_request(k: u64, r: usize, model: &Model) -> Req {
    let variant = r % 5;
    if variant == SHAPE_COUNT as usize {
        let x: Vec<u64> = (0..MODEL_DIM as u64)
            .map(|i| mix64(k ^ i << 40) % 256)
            .collect();
        return Req {
            body: RequestBody::Classify { x: x.clone() },
            expect: Expect::Class(model.classify(&x)),
            cycles: model.classify_cycles,
            exec: Exec::Classify(x),
        };
    }
    let (prog, outputs) = program_request(k, variant as u64);
    let values = write_values(&prog);
    let cycles = prog.instr_cycles();
    Req {
        body: RequestBody::RunStored {
            // Patched to the session's pid once the shape is stored.
            target: StoredTarget::Pid(0),
            inputs: values.iter().cloned().map(Some).collect(),
        },
        cycles: cycles.iter().sum(),
        expect: Expect::Report(outputs, cycles),
        exec: Exec::Stored {
            variant,
            inputs: values,
        },
    }
}

/// Client `client`'s request pool for a workload; operands derive from
/// `seed` alone.
pub fn pool(workload: Workload, seed: u64, client: usize, model: &Model) -> Vec<Req> {
    (0..POOL)
        .map(|r| {
            let k = mix64(seed ^ mix64((client as u64) << 32 | r as u64)) & 0xFFFF_FFFF;
            match workload {
                Workload::StoredW16 => stored_request(k, r, model),
                _ => per_op_request(k, r),
            }
        })
        .collect()
}

/// Whether `body` is the answer `expect` describes.
pub fn check(expect: &Expect, body: &ResponseBody) -> bool {
    match (expect, body) {
        (Expect::Scalar(n), ResponseBody::Scalar(got)) => n == got,
        (Expect::Words(ws), ResponseBody::Words(got)) => ws == got,
        (Expect::Report(outputs, cycles), ResponseBody::Program(r)) => {
            &r.outputs == outputs && &r.cycles == cycles && r.energy_fj.len() == cycles.len()
        }
        (Expect::Class(c), ResponseBody::Class(got)) => c == got,
        _ => false,
    }
}

/// One client connection with its pool and the account its session must
/// show: every successful request, billed at its static cycles.
pub struct Conn {
    pub client: Client,
    pub pool: Vec<Req>,
    next: usize,
    pub billed_requests: u64,
    pub billed_cycles: u64,
    token: Option<String>,
    /// The seq the next request carries (durable sessions only).
    next_seq: Option<u64>,
}

impl Conn {
    fn new(client: Client, pool: Vec<Req>) -> Conn {
        Conn {
            client,
            pool,
            next: 0,
            billed_requests: 0,
            billed_cycles: 0,
            token: None,
            next_seq: None,
        }
    }

    fn take_seq(&mut self) -> Option<u64> {
        let seq = self.next_seq;
        if let Some(s) = &mut self.next_seq {
            *s += 1;
        }
        seq
    }

    /// The session's `stats` must equal the static cost model summed over
    /// every request the session executed.
    pub fn check_account(&mut self, report: &mut Report) -> Option<(u64, u64)> {
        report.attempt(1);
        self.take_seq();
        match self.client.stats() {
            Ok(s) => {
                let want = (self.billed_requests, self.billed_cycles);
                if (s.requests, s.cycles) != want {
                    report.fail(format!(
                        "session account {} requests / {} cycles, cost model says {} / {}",
                        s.requests, s.cycles, want.0, want.1
                    ));
                }
                // `stats` itself is billed as a zero-cycle request.
                self.billed_requests += 1;
                Some((s.requests, s.cycles))
            }
            Err(e) => {
                report.fail(format!("stats failed: {e}"));
                None
            }
        }
    }
}

/// A set-up server and its connected, warmed clients.
pub struct Served {
    pub handle: ServerHandle,
    pub conns: Vec<Conn>,
    pub state_dir: Option<PathBuf>,
    pub setup_s: f64,
    /// `Client::open_session` times, microseconds.
    pub open_us: Vec<f64>,
}

impl Served {
    pub fn shutdown(self) {
        drop(self.conns);
        self.handle.shutdown();
        if let Some(dir) = self.state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The served configuration: the defaults, plus durable state in
/// `state_dir` when given. The journal is written but never fsynced: on a
/// 2-vCPU VM the virtual disk's flush latency swung the durable workload's
/// p99 by 30-35 % from run to run at `FsyncPolicy::Always`, past any usable
/// bound, while the journal's own encoding, writes, compacting snapshots
/// and recovery all still run under `Never`. A process crash loses nothing
/// under this policy, so the crash image stays exact.
fn config(state_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        state: state_dir.map(|dir| StateConfig {
            fsync: FsyncPolicy::Never,
            ..StateConfig::new(dir)
        }),
        ..ServerConfig::default()
    }
}

fn err(what: &str) -> impl Fn(bpimc_server::ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Binds a server, connects the clients, prepares their sessions (durable
/// open, stored programs, model) and warms up. Only the server-facing
/// work is timed into `setup_s`; pools are generated before the clock
/// starts.
pub fn set_up(
    workload: Workload,
    seed: u64,
    state_dir: Option<PathBuf>,
    model: &Model,
    report: &mut Report,
) -> Result<Served, String> {
    let pools: Vec<Vec<Req>> = (0..workload.clients())
        .map(|c| pool(workload, seed, c, model))
        .collect();
    if let Some(dir) = &state_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let t0 = Instant::now();
    let handle = Server::bind("127.0.0.1:0", config(state_dir.as_deref()))
        .map_err(|e| format!("bind: {e}"))?;
    let mut conns = Vec::with_capacity(pools.len());
    let mut open_us = Vec::new();
    for pool in pools {
        let client = Client::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let mut conn = Conn::new(client, pool);
        if workload == Workload::DurableSync {
            report.attempt(1);
            let t = Instant::now();
            let info = conn.client.open_session().map_err(err("open_session"))?;
            open_us.push(secs(t) * 1e6);
            conn.next_seq = Some(info.last_seq.map_or(0, |s| s + 1));
            conn.token = Some(info.token);
        }
        if workload == Workload::StoredW16 {
            for variant in 0..SHAPE_COUNT as usize {
                report.attempt(1);
                let (shape, _) = program_request(0, variant as u64);
                let meta = conn.client.store_program(&shape).map_err(err("store"))?;
                conn.billed_requests += 1;
                for (r, req) in conn.pool.iter_mut().enumerate() {
                    if let RequestBody::RunStored { target, .. } = &mut req.body {
                        if r % 5 == variant {
                            *target = StoredTarget::Pid(meta.pid);
                        }
                    }
                }
            }
            report.attempt(1);
            conn.client
                .load_model(Precision::P8, &model.prototypes)
                .map_err(err("load_model"))?;
            conn.billed_requests += 1;
            conn.billed_cycles += model.load_cycles;
        }
        conns.push(conn);
    }
    let lanes = run_phase(&mut conns, workload.window(), Stop::Count(WARMUP), false);
    tally(&lanes, report);
    Ok(Served {
        handle,
        conns,
        state_dir,
        setup_s: secs(t0),
        open_us,
    })
}

/// When a client stops sending.
#[derive(Clone, Copy)]
pub enum Stop {
    Count(usize),
    Deadline(Instant),
}

/// One request as the traced phase saw it: client span send→recv and, for
/// every `REPLAY_STRIDE`-th request, the response to replay.
pub struct Span {
    pub id: u64,
    pub seq: Option<u64>,
    pub idx: usize,
    pub send_ns: u64,
    pub recv_ns: u64,
    pub resp: Option<Response>,
}

/// Every this-many completed requests of a traced phase are replayed.
const REPLAY_STRIDE: usize = 8;
/// At most this many replays per client and phase.
const REPLAY_CAP: usize = 1024;

/// One client's record of a phase.
#[derive(Default)]
pub struct Lane {
    /// Send→recv latency of each correct response.
    pub hist: Hist,
    /// Correct responses completed in each `SLICE_S` slice since the
    /// phase origin.
    pub slices: Vec<u64>,
    /// Median and p90 latency (ns) of each full `CHUNK` of correct
    /// responses.
    pub chunk_p50_ns: Vec<u64>,
    pub chunk_p90_ns: Vec<u64>,
    /// The latencies of the chunk being filled.
    chunk: Vec<u64>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub errors: Vec<String>,
}

impl Lane {
    /// Correct responses.
    pub fn ok(&self) -> u64 {
        self.hist.count()
    }
}

/// Closed-loop client: keeps up to `window` requests in flight, verifies
/// each response in order, and records its latency.
fn drive(conn: &mut Conn, window: usize, origin: Instant, stop: Stop, traced: bool) -> Lane {
    let mut lane = Lane {
        chunk: Vec::with_capacity(CHUNK),
        ..Lane::default()
    };
    let mut pending: VecDeque<(u64, Option<u64>, usize, Instant)> = VecDeque::new();
    let mut sent = 0usize;
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    loop {
        while pending.len() < window
            && match stop {
                Stop::Count(n) => sent < n,
                Stop::Deadline(d) => Instant::now() < d,
            }
        {
            let idx = conn.next;
            conn.next = (conn.next + 1) % conn.pool.len();
            let body = conn.pool[idx].body.clone();
            let seq = conn.take_seq();
            let t = Instant::now();
            lane.attempted += 1;
            sent += 1;
            match conn.client.send(body) {
                Ok(id) => pending.push_back((id, seq, idx, t)),
                Err(e) => {
                    lane.errors.push(format!("send failed: {e}"));
                    return lane;
                }
            }
        }
        let Some((id, seq, idx, t)) = pending.pop_front() else {
            return lane;
        };
        match conn.client.recv() {
            Ok(resp) => {
                let now = Instant::now();
                let req = &conn.pool[idx];
                if resp.id == id && check(&req.expect, &resp.body) {
                    conn.billed_requests += 1;
                    conn.billed_cycles += req.cycles;
                    let lat = (now - t).as_nanos() as u64;
                    lane.hist.record(lat);
                    lane.chunk.push(lat);
                    if lane.chunk.len() == CHUNK {
                        // Nearest-rank percentiles of the chunk.
                        let (_, &mut p90, _) = lane.chunk.select_nth_unstable(CHUNK * 9 / 10);
                        lane.chunk_p90_ns.push(p90);
                        let (_, &mut p50, _) = lane.chunk.select_nth_unstable(CHUNK / 2);
                        lane.chunk_p50_ns.push(p50);
                        lane.chunk.clear();
                    }
                    let slice = (ns(now) as f64 / 1e9 / SLICE_S) as usize;
                    if lane.slices.len() <= slice {
                        lane.slices.resize(slice + 1, 0);
                    }
                    lane.slices[slice] += 1;
                } else {
                    lane.errors.push(format!(
                        "request {id} ({:?}) answered {:?}",
                        req.body, resp.body
                    ));
                }
                if traced {
                    let keep = lane.spans.len().is_multiple_of(REPLAY_STRIDE)
                        && lane.spans.len() / REPLAY_STRIDE < REPLAY_CAP;
                    lane.spans.push(Span {
                        id,
                        seq,
                        idx,
                        send_ns: ns(t),
                        recv_ns: ns(now),
                        resp: keep.then_some(resp),
                    });
                }
            }
            Err(e) => {
                lane.errors.push(format!("recv failed: {e}"));
                return lane;
            }
        }
    }
}

/// Runs every connection's client on its own thread until `stop`.
pub fn run_phase(conns: &mut [Conn], window: usize, stop: Stop, traced: bool) -> Vec<Lane> {
    let origin = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| s.spawn(move || drive(c, window, origin, stop, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A timed phase of `seconds` from now.
pub fn timed_phase(conns: &mut [Conn], window: usize, seconds: f64, traced: bool) -> Vec<Lane> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    run_phase(conns, window, Stop::Deadline(deadline), traced)
}

/// Adds a phase's requests and failures to the report.
pub fn tally(lanes: &[Lane], report: &mut Report) {
    for lane in lanes {
        report.attempt(lane.attempted);
        let ok = lane.ok();
        for e in &lane.errors {
            report.fail(e.clone());
        }
        // A request neither answered correctly nor reported above (cut
        // off by a transport error) still failed.
        let unexplained = lane.attempted.saturating_sub(ok + lane.errors.len() as u64);
        for _ in 0..unexplained {
            report.fail("request lost");
        }
    }
}

/// The end-to-end figures of one or more phases of equal length.
pub struct PhaseStats {
    pub requests: u64,
    /// Median over every phase's full `SLICE_S` slices of completed
    /// requests per second.
    pub req_per_s: f64,
    pub slices: usize,
    /// Median over every client's `CHUNK`s of the chunk's median latency.
    pub p50_us: f64,
    /// Median over every client's `CHUNK`s of the chunk's p90 latency.
    pub p90_us: f64,
    /// Over every request of every phase; printed, not a metric.
    pub pooled_p99_us: f64,
    pub chunks: usize,
}

/// Every metric is a median over short windows of the run: 50 ms slices
/// for the rate, runs of `CHUNK` consecutive responses of one client for
/// the latencies. On a shared host a run can pass through episodes of
/// outside load lasting seconds, which stretch the latency tail several
/// fold and stall whole slices. A median over windows ignores episodes that
/// cover less than half of the run, while a change that slows every
/// request moves it fully. The tail is taken at p90: episodes of frequent
/// short preemptions, which can last minutes, doubled the window-1 p99
/// while leaving p90 unchanged. Phases too short to fill a chunk fall back
/// to the pooled percentiles.
pub fn phase_stats(phases: &[&[Lane]], seconds: f64) -> PhaseStats {
    let full = ((seconds / SLICE_S).floor() as usize).max(1);
    // A phase shorter than a slice is one partial slice.
    let width = SLICE_S.min(seconds);
    let (mut rates, mut p50s, mut p90s, mut all) =
        (Vec::new(), Vec::new(), Vec::new(), Hist::default());
    for lanes in phases {
        let mut counts = vec![0u64; full];
        for lane in lanes.iter() {
            all.merge(&lane.hist);
            for (c, n) in counts.iter_mut().zip(&lane.slices) {
                *c += n;
            }
            p50s.extend(lane.chunk_p50_ns.iter().map(|&n| n as f64 / 1e3));
            p90s.extend(lane.chunk_p90_ns.iter().map(|&n| n as f64 / 1e3));
        }
        rates.extend(counts.iter().map(|&c| c as f64 / width));
    }
    let over_chunks = |v: &[f64], q: f64| {
        if v.is_empty() {
            all.quantile_us(q)
        } else {
            median(v)
        }
    };
    PhaseStats {
        requests: all.count(),
        req_per_s: median(&rates),
        slices: rates.len(),
        p50_us: over_chunks(&p50s, 0.5),
        p90_us: over_chunks(&p90s, 0.9),
        pooled_p99_us: all.quantile_us(0.99),
        chunks: p50s.len(),
    }
}

/// What the durable crash image and its recovery boots measured.
pub struct ImageOut {
    /// State-dir growth per executed op over the image phase, bytes.
    pub journal_bytes_per_op: f64,
    /// Journal events recovery replays from the image.
    pub events: u64,
    /// `inspect` times on the image, seconds.
    pub inspect_s: Vec<f64>,
    /// Boot-to-first-answer times on copies of the image, seconds.
    pub boots: Vec<f64>,
}

/// After a durable phase: shut the server down gracefully, reboot it on
/// its state dir, resume every session, run a fixed `IMAGE_OPS` requests
/// per client, and copy the live state dir as the crash image (every
/// journaled byte has been written once the client holds the response, and
/// a process crash keeps the page cache, so the copy is what a `kill -9`
/// would leave). A fixed op count
/// after a fresh generation gives every run the same journal tail, which
/// an image taken at an arbitrary instant (0 to 4096 events since the last
/// compacting snapshot) would not. Then audit the image and time `boots`
/// recoveries on fresh copies of it.
pub fn durable_image(
    served: Served,
    work: &Path,
    boots: usize,
    report: &mut Report,
) -> Result<ImageOut, String> {
    let Served {
        handle,
        mut conns,
        state_dir,
        ..
    } = served;
    let dir = state_dir.ok_or("durable phase without a state dir")?;
    handle.shutdown();
    let live =
        Server::bind("127.0.0.1:0", config(Some(&dir))).map_err(|e| format!("warm reboot: {e}"))?;
    for conn in &mut conns {
        conn.client = Client::connect(live.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let token = conn
            .token
            .clone()
            .ok_or("durable session without a token")?;
        report.attempt(1);
        let info = conn.client.resume_session(token).map_err(err("resume"))?;
        conn.next_seq = Some(info.last_seq.map_or(0, |s| s + 1));
    }
    let before = dir_bytes(&dir).map_err(|e| e.to_string())?;
    let lanes = run_phase(&mut conns, 1, Stop::Count(IMAGE_OPS), false);
    tally(&lanes, report);
    let after = dir_bytes(&dir).map_err(|e| e.to_string())?;
    let image = work.join("image");
    copy_dir(&dir, &image).map_err(|e| format!("crash image: {e}"))?;
    let accounts: Vec<(u64, u64)> = conns
        .iter()
        .map(|c| (c.billed_requests, c.billed_cycles))
        .collect();
    for conn in &mut conns {
        conn.check_account(report);
    }
    drop(conns);
    live.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let mut inspect_s = Vec::new();
    let mut events = 0;
    for _ in 0..5 {
        let t = Instant::now();
        let audit = inspect(&image).map_err(|e| format!("inspect: {e}"))?;
        inspect_s.push(secs(t));
        events = audit.replayed_events;
        // Recovery must rebuild every account byte-exactly, cold.
        let mut got: Vec<(u64, u64)> = audit
            .sessions
            .iter()
            .map(|s| (s.stats.requests, s.stats.cycles))
            .collect();
        got.sort_unstable();
        let mut want = accounts.clone();
        want.sort_unstable();
        report.check(!audit.corrupt() && !audit.warm && got == want, || {
            format!(
                "crash image audit: corrupt {}, warm {}, accounts {got:?} vs live {want:?}",
                audit.corrupt(),
                audit.warm
            )
        });
    }
    let ops = lanes.iter().map(Lane::ok).sum::<u64>().max(1);
    Ok(ImageOut {
        journal_bytes_per_op: after.saturating_sub(before) as f64 / ops as f64,
        events,
        inspect_s,
        boots: boot_times(&image, work, boots, report)?,
    })
}

/// Times `reps` cold boots to a first answer on fresh copies of a crash
/// image: `Server::bind` (which recovers the state before it returns) plus
/// connect and ping.
pub fn boot_times(
    image: &Path,
    work: &Path,
    reps: usize,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let dir = work.join(format!("boot-{rep}"));
        copy_dir(image, &dir).map_err(|e| format!("copy image: {e}"))?;
        report.attempt(1);
        let t = Instant::now();
        let handle =
            Server::bind("127.0.0.1:0", config(Some(&dir))).map_err(|e| format!("boot: {e}"))?;
        let mut client =
            Client::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
        client.ping().map_err(err("ping"))?;
        times.push(secs(t));
        drop(client);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(times)
}
