//! The traced run's per-layer measurements: replays of recorded requests
//! through the lower layers' public functions (one span per call, keyed by
//! the request id), the span self-test, and fixed-input probes of the
//! layers a workload does not reach on its own.

use crate::serve::{self, Exec, Lane, Model, Req, Span};
use crate::util::{median, secs, Report};
use bpimc_bench::shapes::{program_request, SHAPE_COUNT};
use bpimc_core::prog::CompiledProgram;
use bpimc_core::{
    ImcMacro, MacroBank, MacroConfig, Precision, ProgramReport, Request, Response, ResponseBody,
};
use bpimc_device::{Env, MosParams, MosParamsLanes, Mosfet, VtFlavor};
use bpimc_nn::{chunks_per_class, classify_bindings, classify_from_outputs, classify_program};
use bpimc_server::ServerConfig;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// What the replays run requests against: the stored shapes and the
/// classify template compiled exactly as the server compiles them.
pub struct Compiled<'a> {
    stored: Vec<CompiledProgram>,
    template: CompiledProgram,
    model: &'a Model,
}

impl<'a> Compiled<'a> {
    pub fn new(model: &'a Model) -> Compiled<'a> {
        let config = MacroConfig::default();
        let stored = (0..SHAPE_COUNT)
            .map(|v| {
                program_request(0, v)
                    .0
                    .compile(&config)
                    .expect("the benchmark shapes compile")
            })
            .collect();
        let dim = model.prototypes[0].len();
        let template = classify_program(
            Precision::P8,
            &model.prototypes,
            &vec![0; dim],
            serve::cols(),
        )
        .compile(&config)
        .expect("the classify template compiles");
        Compiled {
            stored,
            template,
            model,
        }
    }

    /// Runs what the server runs for one compute request and returns the
    /// body it would answer (program reports carry zero energies: the
    /// replay does not redo the energy accounting).
    pub fn exec(&self, mac: &mut ImcMacro, exec: &Exec) -> ResponseBody {
        let body = match exec {
            Exec::Dot { precision, x, w } => {
                ResponseBody::Scalar(bpimc_nn::imc_dot(mac, *precision, x, w))
            }
            Exec::Program(prog) => {
                ResponseBody::Words(prog.run(mac).expect("lane program runs").outputs.concat())
            }
            Exec::Stored { variant, inputs } => {
                let bindings: Vec<Option<&[u64]>> =
                    inputs.iter().map(|v| Some(v.as_slice())).collect();
                let run = self.stored[*variant]
                    .run_with_inputs(mac, &bindings)
                    .expect("stored shape runs");
                ResponseBody::Program(ProgramReport {
                    energy_fj: vec![0.0; run.instr_cycles.len()],
                    outputs: run.outputs,
                    cycles: run.instr_cycles,
                })
            }
            Exec::Classify(x) => {
                let classes = self.model.prototypes.len();
                let cols = mac.cols();
                let inputs = classify_bindings(Precision::P8, classes, x, cols);
                let outputs = self
                    .template
                    .run_outputs(mac, &inputs)
                    .expect("classify template runs");
                let chunks = chunks_per_class(Precision::P8, x.len(), cols);
                ResponseBody::Class(classify_from_outputs(&outputs, chunks, &self.model.norms))
            }
        };
        mac.clear_activity();
        body
    }
}

/// The metric a replayed execution span belongs to.
fn exec_layer(exec: &Exec) -> &'static str {
    match exec {
        Exec::Dot { .. } | Exec::Program(_) => "core.prog.run",
        Exec::Stored { .. } => "core.prog.run_stored",
        Exec::Classify(_) => "nn.classify",
    }
}

/// Layer spans in memory, written out as JSON lines at the end.
#[derive(Default)]
pub struct SpanLog {
    out: String,
    origin: Option<Instant>,
}

impl SpanLog {
    fn ns(&mut self, t: Instant) -> u128 {
        t.duration_since(*self.origin.get_or_insert(t)).as_nanos()
    }

    /// Records one span of `layer` caused by request `id` of `phase`.
    fn span(&mut self, phase: &str, id: u64, layer: &str, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        let _ = writeln!(
            self.out,
            "{{\"phase\": \"{phase}\", \"id\": {id}, \"layer\": \"{layer}\", \"parent\": \"client\", \"start_ns\": {s}, \"end_ns\": {e}}}"
        );
    }

    /// Records a client span (send→recv, on the phase's own clock).
    fn client(&mut self, phase: &str, client: usize, s: &Span) {
        let _ = writeln!(
            self.out,
            "{{\"phase\": \"{phase}\", \"id\": {}, \"client\": {client}, \"layer\": \"client\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.send_ns, s.recv_ns
        );
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &self.out)
    }
}

/// Per-layer samples from replaying one traced serve phase.
#[derive(Default)]
pub struct Replayed {
    pub req_parse_ns: Vec<f64>,
    pub resp_serialize_ns: Vec<f64>,
    pub resp_parse_ns: Vec<f64>,
    pub req_bytes: Vec<f64>,
    pub resp_bytes: Vec<f64>,
    pub run_us: Vec<f64>,
    pub run_stored_us: Vec<f64>,
    pub classify_us: Vec<f64>,
}

impl Replayed {
    fn exec_samples(&mut self, layer: &str) -> &mut Vec<f64> {
        match layer {
            "core.prog.run" => &mut self.run_us,
            "core.prog.run_stored" => &mut self.run_stored_us,
            _ => &mut self.classify_us,
        }
    }

    /// The sum of the replayed layers' medians, us.
    pub fn layer_sum_us(&self) -> f64 {
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let exec: Vec<f64> = [&self.run_us, &self.run_stored_us, &self.classify_us]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        (med(&self.req_parse_ns) + med(&self.resp_serialize_ns) + med(&self.resp_parse_ns)) / 1e3
            + med(&exec)
    }
}

/// Replays every kept response of a traced phase: the request line as the
/// client wrote it is parsed (`core.wire`), the request is executed
/// (`core.prog` / `nn`), and the response is serialized and parsed again.
/// Checks that each step reproduces what the server answered, and the
/// span self-test: per request, the layer spans plus the residual equal
/// the client span exactly, and the layers fit inside the client span.
pub fn replay_phase(
    phase: &str,
    lanes: &[Lane],
    pools: &[Vec<Req>],
    ctx: &Compiled,
    log: &mut SpanLog,
    report: &mut Report,
) -> Replayed {
    let mut out = Replayed::default();
    let mut mac = ImcMacro::new(MacroConfig::default());
    let (mut n, mut checked, mut negative) = (0usize, 0usize, 0usize);
    for (c, lane) in lanes.iter().enumerate() {
        for span in &lane.spans {
            let Some(resp) = &span.resp else { continue };
            log.client(phase, c, span);
            let req = &pools[c][span.idx];
            let line = Request {
                id: span.id,
                timeout_ms: None,
                seq: span.seq,
                body: req.body.clone(),
            }
            .to_json_line();
            out.req_bytes.push((line.len() + 1) as f64);
            let t0 = Instant::now();
            let parsed = Request::parse(black_box(&line));
            let t1 = Instant::now();
            let body = ctx.exec(&mut mac, &req.exec);
            let t2 = Instant::now();
            let resp_line = black_box(resp).to_json_line();
            let t3 = Instant::now();
            let back = Response::parse(black_box(&resp_line));
            let t4 = Instant::now();
            out.resp_bytes.push((resp_line.len() + 1) as f64);
            report.check(
                parsed.is_ok_and(|p| p.body == req.body)
                    && serve::check(&req.expect, &body)
                    && back.as_ref() == Ok(resp),
                || {
                    format!(
                        "replay of request {} diverged from the served answer",
                        span.id
                    )
                },
            );
            let layer = exec_layer(&req.exec);
            log.span(phase, span.id, "core.wire.req_parse", t0, t1);
            log.span(phase, span.id, layer, t1, t2);
            log.span(phase, span.id, "core.wire.resp_serialize", t2, t3);
            log.span(phase, span.id, "core.wire.resp_parse", t3, t4);
            let d = |a: Instant, b: Instant| (b - a).as_nanos() as i64;
            let layers = [d(t0, t1), d(t1, t2), d(t2, t3), d(t3, t4)];
            let client = (span.recv_ns - span.send_ns) as i64;
            let residual = client - layers.iter().sum::<i64>();
            // The reconstruction identity, in integer nanoseconds.
            checked += usize::from(layers.iter().sum::<i64>() + residual == client);
            negative += usize::from(residual < 0);
            out.req_parse_ns.push(layers[0] as f64);
            out.exec_samples(layer).push(layers[1] as f64 / 1e3);
            out.resp_serialize_ns.push(layers[2] as f64);
            out.resp_parse_ns.push(layers[3] as f64);
            n += 1;
        }
    }
    report.check(
        n > 0 && checked == n && negative * 20 <= n,
        || format!("span self-test: {n} requests, {checked} reconstructed, {negative} with layers longer than the client span"),
    );
    out
}

/// Replays a request pool locally (no server): the per-request execution
/// spans of the layers a workload does not reach on its own.
pub fn replay_pool(pool: &[Req], ctx: &Compiled, report: &mut Report) -> Replayed {
    let mut out = Replayed::default();
    let mut mac = ImcMacro::new(MacroConfig::default());
    for req in pool {
        let t = Instant::now();
        let body = ctx.exec(&mut mac, &req.exec);
        let us = secs(t) * 1e6;
        out.exec_samples(exec_layer(&req.exec)).push(us);
        report.check(serve::check(&req.expect, &body), || {
            format!("local replay of {:?} gave {body:?}", req.body)
        });
    }
    out
}

/// `MacroBank::try_run_batch` on `batch_max` jobs of a pool, against the
/// same jobs run one after another on one macro. Returns the median batch
/// time (us) and the share of the bank's lane time not spent on job work.
pub fn macrobank_probe(pool: &[Req], ctx: &Compiled, report: &mut Report) -> (f64, f64) {
    let config = ServerConfig::default();
    let macros = config.macros.max(1);
    let jobs: Vec<&Req> = pool.iter().cycle().take(config.batch_max).collect();
    let mut bank = MacroBank::new(macros, MacroConfig::default());
    let (mut batch, mut serial) = (Vec::new(), Vec::new());
    for _ in 0..30 {
        let t = Instant::now();
        let out = bank.try_run_batch(&jobs, |mac, job| ctx.exec(mac, &job.exec));
        batch.push(secs(t) * 1e6);
        let ok = out
            .iter()
            .zip(&jobs)
            .all(|(r, job)| r.as_ref().is_ok_and(|b| serve::check(&job.expect, b)));
        report.check(ok, || {
            "a batched job diverged from its expected answer".into()
        });
        let t = Instant::now();
        for job in &jobs {
            black_box(ctx.exec(bank.macro_at(0), &job.exec));
        }
        serial.push(secs(t) * 1e6);
    }
    let (b, s) = (median(&batch), median(&serial));
    (b, 1.0 - s / (macros as f64 * b))
}

/// `Mosfet::ids_batch` over 16-lane slices of mismatch-shifted devices,
/// ns per element.
pub fn device_probe(seed: u64) -> f64 {
    const LANES: usize = 16;
    const CALLS: usize = 20_000;
    let env = Env::nominal();
    let u = |i: usize, salt: u64| {
        (crate::util::mix64(seed ^ salt ^ i as u64) >> 11) as f64 / (1u64 << 53) as f64
    };
    let params: Vec<MosParams> = (0..LANES)
        .map(|i| {
            let dev = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0).with_dvt(0.06 * (u(i, 1) - 0.5));
            MosParams::compile(&dev, &env)
        })
        .collect();
    let field = |f: fn(&MosParams) -> f64| params.iter().map(f).collect::<Vec<f64>>();
    let (vt, phi, keff) = (field(|p| p.vt), field(|p| p.phi), field(|p| p.keff));
    let (alpha, lambda) = (field(|p| p.alpha), field(|p| p.lambda));
    let (sat_frac, vdsat_min) = (field(|p| p.sat_frac), field(|p| p.vdsat_min));
    let lanes = MosParamsLanes {
        vt: &vt,
        phi: &phi,
        keff: &keff,
        alpha: &alpha,
        lambda: &lambda,
        sat_frac: &sat_frac,
        vdsat_min: &vdsat_min,
    };
    let vgs: Vec<f64> = (0..LANES).map(|i| 0.4 + 0.5 * u(i, 2)).collect();
    let vds: Vec<f64> = (0..LANES).map(|i| 0.05 + 0.85 * u(i, 3)).collect();
    let (mut ids, mut gs) = (vec![0.0; LANES], vec![0.0; LANES]);
    let per_elem: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                Mosfet::ids_batch(black_box(&lanes), black_box(&vgs), &vds, &mut ids, &mut gs);
                black_box((&ids, &gs));
            }
            secs(t) * 1e9 / (CALLS * LANES) as f64
        })
        .collect();
    median(&per_elem)
}

/// `ImcMacro::mult` at P8 and an 8-row `reduce_add` at P8, ns per call;
/// both results are checked once.
pub fn macroblock_probe(seed: u64, report: &mut Report) -> (f64, f64) {
    const CALLS: usize = 200;
    let p = Precision::P8;
    let mut mac = ImcMacro::new(MacroConfig::default());
    let val = |i: u64| crate::util::mix64(seed ^ 0x3AC0 ^ i) % 256;
    let a: Vec<u64> = (0..8).map(val).collect();
    let b: Vec<u64> = (8..16).map(val).collect();
    let rows: Vec<Vec<u64>> = (0..8u64)
        .map(|r| (0..16).map(|i| val(100 + r * 16 + i)).collect())
        .collect();
    let setup = mac
        .write_mult_operands(10, p, &a)
        .and(mac.write_mult_operands(11, p, &b));
    let setup = rows
        .iter()
        .enumerate()
        .fold(setup, |acc, (r, v)| acc.and(mac.write_words(20 + r, p, v)));
    let srcs: Vec<usize> = (20..28).collect();
    let mut time = |op: &mut dyn FnMut(&mut ImcMacro)| {
        let per_call: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..CALLS {
                    op(&mut mac);
                }
                let ns = secs(t) * 1e9 / CALLS as f64;
                mac.clear_activity();
                ns
            })
            .collect();
        median(&per_call)
    };
    let mult_ns = time(&mut |m| {
        black_box(m.mult(10, 11, 12, p).expect("mult runs"));
    });
    let reduce_ns = time(&mut |m| {
        black_box(m.reduce_add(&srcs, 28, p).expect("reduce_add runs"));
    });
    let prod: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
    let sum: Vec<u64> = (0..16)
        .map(|i| rows.iter().map(|r| r[i]).sum::<u64>() & 0xFF)
        .collect();
    let ok = setup.is_ok()
        && mac.read_products(12, p, 8).is_ok_and(|v| v == prod)
        && mac.read_words(28, p, 16).is_ok_and(|v| v == sum);
    report.check(ok, || "macroblock probe results are wrong".into());
    (mult_ns, reduce_ns)
}
