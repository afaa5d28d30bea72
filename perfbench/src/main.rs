//! Seeded benchmark of the bpimc workspace: one command runs a named
//! workload, checks every output, and prints each metric by name with its
//! unit, then a JSON result object as the last line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that reports the per-layer metrics. See `perfbench/README.md`.

mod layers;
mod mc;
mod serve;
mod util;

use layers::{Compiled, Replayed, SpanLog};
use serve::{Lane, Model};
use std::path::{Path, PathBuf};
use util::{median, quantile, Report, WorkDir};

/// The named workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// One client at window 1 on an ephemeral session, five-op mix.
    SyncMixed,
    /// Two clients at window 16: `run_stored` on four stored shapes, and
    /// one `classify` in five.
    StoredW16,
    /// The `SyncMixed` stream on durable sessions, journalled.
    DurableSync,
    /// In-process `fig2::run(2000, seed)`.
    Fig2Mc,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SyncMixed,
        Workload::StoredW16,
        Workload::DurableSync,
        Workload::Fig2Mc,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SyncMixed => "serve_sync_mixed",
            Workload::StoredW16 => "serve_stored_w16",
            Workload::DurableSync => "serve_durable_sync",
            Workload::Fig2Mc => "fig2_mc",
        }
    }

    /// Client connections, each driven by its own thread. The window-1
    /// streams run one: with two, seven server and client threads contend
    /// for two CPUs, and the latency tail measured the scheduler's run
    /// queues (p99 spread 0.19 over runs of the same code).
    pub fn clients(self) -> usize {
        match self {
            Workload::StoredW16 => 2,
            _ => 1,
        }
    }

    /// Requests each client keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Workload::StoredW16 => 16,
            _ => 1,
        }
    }
}

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 20;
/// Timed recovery boots on a durable crash image.
const BOOT_REPS: usize = 15;
/// Seconds of each serve probe a traced run adds for the layers its
/// workload does not reach.
const PROBE_S: f64 = 1.0;
/// Alternating untraced/traced phase pairs in a traced run.
const TRACE_PAIRS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds needs a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        eprintln!(
            "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            names.join("|")
        );
        std::process::exit(2);
    });
    let work = WorkDir::create().unwrap_or_else(|e| {
        eprintln!("error: creating the work directory: {e}");
        std::process::exit(2);
    });
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", util::host_context());
    let mut report = Report::default();
    let outcome = if args.trace {
        traced(&args, work.path(), &mut report)
    } else {
        timed(&args, work.path(), &mut report)
    };
    if let Err(e) = outcome {
        report.attempt(1);
        report.fail(e);
    }
    drop(work);
    report.print();
    std::process::exit(if report.correct() { 0 } else { 1 });
}

/// The durable workload's state dir for set-up `rep`.
fn state_dir(w: Workload, work: &Path, rep: usize) -> Option<PathBuf> {
    (w == Workload::DurableSync).then(|| work.join(format!("state-{rep}")))
}

/// A timed run: the end-to-end metrics.
fn timed(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let (w, seed) = (args.workload, args.seed);
    let setups = if w == Workload::Fig2Mc {
        let setups = mc::set_up(seed, SETUP_REPS);
        let calls = mc::calls(seed, args.seconds, None, report);
        if let Some(h) = calls.hash {
            println!("fig2 delay hash {h:#018x} (seed {seed})");
        }
        let us: Vec<f64> = calls.walls.iter().map(|s| s * 1e6).collect();
        let basis = format!("{} fig2::run({}) calls", us.len(), mc::SAMPLES);
        report.metric("req_per_s", 1e6 / median(&us), "1/s", basis.clone());
        report.metric("latency_p50_us", median(&us), "us", basis.clone());
        report.metric("latency_p90_us", quantile(&us, 0.9), "us", basis);
        setups
    } else {
        // Each set-up gets its own share of the timed phase, so one run
        // samples several servers' thread placements, not just one.
        let model = Model::new(seed);
        let share = args.seconds / SETUP_REPS as f64;
        let (mut phases, mut setups) = (Vec::new(), Vec::new());
        for rep in 0..SETUP_REPS {
            let mut served = serve::set_up(w, seed, state_dir(w, work, rep), &model, report)?;
            setups.push(served.setup_s);
            let lanes = serve::timed_phase(&mut served.conns, w.window(), share, false);
            serve::tally(&lanes, report);
            for conn in &mut served.conns {
                conn.check_account(report);
            }
            phases.push(lanes);
            if w == Workload::DurableSync && rep + 1 == SETUP_REPS {
                // The crash image is part of the oracle: it must recover
                // every account exactly. Its boot time is printed, not
                // gated (see perfbench/README.md).
                let image = serve::durable_image(served, work, BOOT_REPS, report)?;
                println!(
                    "crash image: {} journal events, {:.1} journal bytes per op, \
                     recovery {:.6} s (median of {} boots)",
                    image.events,
                    image.journal_bytes_per_op,
                    median(&image.boots),
                    image.boots.len()
                );
            } else {
                served.shutdown();
            }
        }
        let refs: Vec<&[Lane]> = phases.iter().map(Vec::as_slice).collect();
        let st = serve::phase_stats(&refs, share);
        let basis = format!("{} requests in {SETUP_REPS} phases", st.requests);
        report.metric(
            "req_per_s",
            st.req_per_s,
            "1/s",
            format!("median of {} slices, {basis}", st.slices),
        );
        let chunks = format!("median of {} chunk", st.chunks);
        report.metric(
            "latency_p50_us",
            st.p50_us,
            "us",
            format!("{chunks} medians, {basis}"),
        );
        report.metric(
            "latency_p90_us",
            st.p90_us,
            "us",
            format!("{chunks} p90s, {basis}"),
        );
        // Not a metric: preemption episodes on a shared host move it by up
        // to a factor of two (see perfbench/README.md).
        println!(
            "latency_p99_us (pooled, not gated) = {} us",
            st.pooled_p99_us
        );
        setups
    };
    report.metric(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    let rss = util::peak_rss_mib().ok_or("VmHWM unavailable")?;
    report.metric("peak_rss_mb", rss, "MiB", "VmHWM".into());
    Ok(())
}

/// One traced serve phase and what its replay measured.
struct ServeTrace {
    lanes: Vec<Lane>,
    pools: Vec<Vec<serve::Req>>,
    replayed: Replayed,
    p50_us: f64,
    traced_rps: f64,
    /// Requests per second of the untraced phases, if any ran.
    untraced_rps: Option<f64>,
    /// Sum of session cycles over sum of session requests, from `stats`.
    cycles_per_req: f64,
    /// `Client::open_session` times (durable sessions), us.
    open_us: Vec<f64>,
    /// The durable stream's crash image and recovery boots.
    image: Option<serve::ImageOut>,
}

/// Sets up workload `w` once, runs `untraced_s` untraced (skipped at 0)
/// and `traced_s` traced, in alternating phases, checks the accounts,
/// replays the traced phase's kept requests layer by layer, and (durable
/// stream) takes the crash image and times recovery.
fn serve_trace(
    w: Workload,
    seed: u64,
    (untraced_s, traced_s): (f64, f64),
    (model, ctx): (&Model, &Compiled),
    work: &Path,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<ServeTrace, String> {
    let mut served = serve::set_up(w, seed, state_dir(w, work, 0), model, report)?;
    // Untraced and traced phases alternate, so the tracing overhead
    // compares phases run in like host states.
    let pairs = if untraced_s > 0.0 { TRACE_PAIRS } else { 1 };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        for (seconds, phases, on) in [
            (untraced_s, &mut untraced, false),
            (traced_s, &mut traced, true),
        ] {
            if seconds > 0.0 {
                let lanes =
                    serve::timed_phase(&mut served.conns, w.window(), seconds / pairs as f64, on);
                serve::tally(&lanes, report);
                phases.push(lanes);
            }
        }
    }
    fn refs(v: &[Vec<Lane>]) -> Vec<&[Lane]> {
        v.iter().map(Vec::as_slice).collect()
    }
    let untraced_rps = (!untraced.is_empty())
        .then(|| serve::phase_stats(&refs(&untraced), untraced_s / pairs as f64).req_per_s);
    let st = serve::phase_stats(&refs(&traced), traced_s / pairs as f64);
    // One lane per client holding all of its traced requests.
    let lanes = traced
        .into_iter()
        .reduce(|mut acc, next| {
            for (a, n) in acc.iter_mut().zip(next) {
                a.hist.merge(&n.hist);
                a.spans.extend(n.spans);
            }
            acc
        })
        .unwrap_or_default();
    println!(
        "{} traced phase: {} requests, {:.0} req/s (untraced {:.0}), p50 {:.1} us",
        w.name(),
        st.requests,
        st.req_per_s,
        untraced_rps.unwrap_or(f64::NAN),
        st.p50_us
    );
    let (mut requests, mut cycles) = (0, 0);
    for conn in &mut served.conns {
        if let Some((r, c)) = conn.check_account(report) {
            requests += r;
            cycles += c;
        }
    }
    let pools: Vec<Vec<serve::Req>> = served.conns.iter().map(|c| c.pool.clone()).collect();
    let open_us = served.open_us.clone();
    let image = if w == Workload::DurableSync {
        Some(serve::durable_image(served, work, BOOT_REPS, report)?)
    } else {
        served.shutdown();
        None
    };
    let replayed = layers::replay_phase(w.name(), &lanes, &pools, ctx, log, report);
    Ok(ServeTrace {
        lanes,
        pools,
        replayed,
        p50_us: st.p50_us,
        traced_rps: st.req_per_s,
        untraced_rps,
        cycles_per_req: cycles as f64 / requests.max(1) as f64,
        open_us,
        image,
    })
}

/// Correct responses in a phase.
fn ops_ok(lanes: &[Lane]) -> f64 {
    lanes.iter().map(Lane::ok).sum::<u64>() as f64
}

/// Mean of a non-empty sample, else NaN (reported as incorrect).
fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// A traced run: the per-layer metrics. The workload runs half of
/// `--seconds` untraced and half traced (the difference is the tracing
/// overhead);
/// its kept requests are replayed through the layers below the server.
/// Layers the workload does not reach are measured by short probes with
/// the same seed, so every traced run reports every layer.
fn traced(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let (w, seed) = (args.workload, args.seed);
    let half = args.seconds / 2.0;
    let model = Model::new(seed);
    let ctx = Compiled::new(&model);
    let mut log = SpanLog::default();
    let trace = |w: Workload, phases, log: &mut SpanLog, report: &mut Report| {
        serve_trace(w, seed, phases, (&model, &ctx), work, log, report)
    };
    let own = match w {
        Workload::Fig2Mc => None,
        _ => Some(trace(w, (half, half), &mut log, report)?),
    };
    // The sync-mixed and durable streams: the workload itself, or a probe.
    let probe = |kind: Workload, log: &mut SpanLog, report: &mut Report| {
        (w != kind)
            .then(|| trace(kind, (0.0, PROBE_S), log, report))
            .transpose()
    };
    let sync_probe = probe(Workload::SyncMixed, &mut log, report)?;
    let durable_probe = probe(Workload::DurableSync, &mut log, report)?;
    let sync = sync_probe
        .as_ref()
        .or(own.as_ref())
        .expect("sync stream ran");
    let durable = durable_probe
        .as_ref()
        .or(own.as_ref())
        .expect("durable stream ran");
    let image = durable
        .image
        .as_ref()
        .expect("the durable stream takes an image");
    // The workload's own requests; fig2_mc has none and uses the sync probe's.
    let main = own.as_ref().unwrap_or(sync);
    let stored_local = (w != Workload::StoredW16).then(|| {
        let pool = serve::pool(Workload::StoredW16, seed, 0, &model);
        (layers::replay_pool(&pool, &ctx, report), pool)
    });
    let (stored, stored_pool) = match &stored_local {
        Some((r, p)) => (r, p),
        None => (&main.replayed, &main.pools[0]),
    };
    let bank_pool = if w == Workload::Fig2Mc {
        stored_pool
    } else {
        &main.pools[0]
    };
    let (batch_us, overhead_frac) = layers::macrobank_probe(bank_pool, &ctx, report);
    let (mult_ns, reduce_ns) = layers::macroblock_probe(seed, report);
    let ids_ns = layers::device_probe(seed);
    // fig2's sub-calls, replayed: on fig2_mc the layer spans of its own
    // request, elsewhere a probe of the same inputs.
    let mc = mc::replay(seed, report);

    let (overhead, residual_us) = match &own {
        Some(own) => {
            let untraced = own.untraced_rps.expect("the own phase ran untraced first");
            (
                1.0 - own.traced_rps / untraced,
                own.p50_us - own.replayed.layer_sum_us(),
            )
        }
        None => {
            let untraced = mc::calls(seed, half, None, report);
            let traced = mc::calls(seed, half, untraced.hash, report);
            report.check(traced.hash == Some(mc.hash), || {
                "the replayed fig2 sub-calls hash differently from the traced calls".into()
            });
            // Self-test: the first traced call's span against its
            // replayed sub-call spans plus the residual.
            let client_ms = traced.walls[0] * 1e3;
            let layers_ms: f64 = mc.delays_ms.iter().chain(&mc.fit_ms).sum();
            let residual_ms = client_ms - layers_ms;
            report.check(
                (layers_ms + residual_ms - client_ms).abs() < 1e-9 && layers_ms < 2.0 * client_ms,
                || format!("fig2 span self-test: call {client_ms} ms, sub-calls {layers_ms} ms"),
            );
            let rate = |walls: &[f64]| walls.len() as f64 / walls.iter().sum::<f64>();
            (
                1.0 - rate(&traced.walls) / rate(&untraced.walls),
                sync.p50_us - sync.replayed.layer_sum_us(),
            )
        }
    };

    let r = &main.replayed;
    let per_op = if matches!(w, Workload::SyncMixed | Workload::DurableSync) {
        &main.replayed
    } else {
        &sync.replayed
    };
    let spans = |v: &[f64]| format!("{} spans", v.len());
    let events = image.events.max(1) as f64;
    let cohorts = format!("{} cohorts", mc.cohort_ms.len());
    let rows: Vec<(&'static str, f64, &'static str, String)> = vec![
        (
            "device.ids_batch_ns",
            ids_ns,
            "ns",
            "per element, median of 7 x 20000 calls".into(),
        ),
        (
            "circuit.cohort_ms",
            median(&mc.cohort_ms),
            "ms",
            cohorts.clone(),
        ),
        (
            "circuit.steps_per_sample",
            mc.steps_per_sample,
            "count",
            format!("{} samples", mc::SAMPLES),
        ),
        ("circuit.lane_util", mc.lane_util, "ratio", cohorts),
        (
            "cell.delays_ms",
            median(&mc.delays_ms),
            "ms",
            "2 calls".into(),
        ),
        (
            "cell.failure_fit_ms",
            median(&mc.fit_ms),
            "ms",
            "2 calls".into(),
        ),
        (
            "stats.mc_par_speedup",
            mc.serial_ms / mc.delays_ms[0],
            "ratio",
            "serial cohorts / parallel delays".into(),
        ),
        (
            "core.macroblock.mult_p8_ns",
            mult_ns,
            "ns",
            "median of 9 x 200 calls".into(),
        ),
        (
            "core.macroblock.reduce_add8_ns",
            reduce_ns,
            "ns",
            "8 rows, median of 9 x 200 calls".into(),
        ),
        (
            "core.prog.run_us",
            median(&per_op.run_us),
            "us",
            spans(&per_op.run_us),
        ),
        (
            "core.prog.run_stored_us",
            median(&stored.run_stored_us),
            "us",
            spans(&stored.run_stored_us),
        ),
        (
            "nn.classify_us",
            median(&stored.classify_us),
            "us",
            spans(&stored.classify_us),
        ),
        (
            "core.macrobank.batch_us",
            batch_us,
            "us",
            "median of 30 batches".into(),
        ),
        (
            "core.macrobank.overhead_frac",
            overhead_frac,
            "ratio",
            "30 batches vs serial".into(),
        ),
        (
            "core.wire.req_parse_ns",
            median(&r.req_parse_ns),
            "ns",
            spans(&r.req_parse_ns),
        ),
        (
            "core.wire.resp_serialize_ns",
            median(&r.resp_serialize_ns),
            "ns",
            spans(&r.resp_serialize_ns),
        ),
        (
            "core.wire.resp_parse_ns",
            median(&r.resp_parse_ns),
            "ns",
            spans(&r.resp_parse_ns),
        ),
        (
            "core.wire.req_bytes",
            mean(&r.req_bytes),
            "bytes",
            spans(&r.req_bytes),
        ),
        (
            "core.wire.resp_bytes",
            mean(&r.resp_bytes),
            "bytes",
            spans(&r.resp_bytes),
        ),
        (
            "server.residual_us",
            residual_us,
            "us",
            "client p50 - replayed layer medians".into(),
        ),
        (
            "server.ops_ok",
            ops_ok(&main.lanes),
            "count",
            "traced phase".into(),
        ),
        (
            "server.session.open_us",
            median(&durable.open_us),
            "us",
            format!("{} opens", durable.open_us.len()),
        ),
        (
            "server.persist.journal_bytes_per_op",
            image.journal_bytes_per_op,
            "bytes",
            "image phase".into(),
        ),
        (
            "server.persist.durable_extra_us",
            durable.p50_us - sync.p50_us,
            "us",
            "durable p50 - sync p50".into(),
        ),
        (
            "server.persist.inspect_us_per_event",
            median(&image.inspect_s) * 1e6 / events,
            "us",
            format!("{} events", image.events),
        ),
        (
            "server.persist.recover_us_per_event",
            median(&image.boots) * 1e6 / events,
            "us",
            format!("{} boots", image.boots.len()),
        ),
        (
            "sim.cycles_per_req",
            main.cycles_per_req,
            "count",
            "session stats".into(),
        ),
        (
            "trace.overhead_frac",
            overhead,
            "ratio",
            "1 - traced / untraced rate".into(),
        ),
    ];
    for (name, value, unit, basis) in rows {
        report.metric(name, value, unit, basis);
    }
    let path = Path::new(".perfbench_spans").join(format!("{}-seed{}.jsonl", w.name(), seed));
    log.write(&path)
        .map_err(|e| format!("writing spans: {e}"))?;
    println!("spans written to {}", path.display());
    Ok(())
}
