//! `repro` — regenerate the paper's figures and tables from the simulators.
//!
//! ```text
//! repro all                 # everything (fig2 with default sample count)
//! repro fig2 --samples 2000
//! repro fig7a fig7b fig8 fig9 table1 table2 table3
//! repro all --json          # also write BENCH_repro.json with wall-clock
//!                           # and simulated-cycle numbers
//! repro serve               # run the multi-client compute service
//!     [--addr 127.0.0.1:7171] [--macros N] [--write-timeout-ms MS]
//!     [--max-cycles-per-sec N] [--max-energy-fj-per-sec N]
//!     [--max-inflight N] [--max-program-instrs N] [--max-stored-programs N]
//!     [--chaos-seed S] [--chaos-panic-pm N] [--chaos-delay-pm N]
//!     [--chaos-delay-ms MS] [--chaos-stall-pm N] [--chaos-stall-ms MS]
//!     [--chaos-drop-pm N]
//!     [--state-dir DIR]     # crash-safe durable state: write-ahead
//!     [--fsync always|interval:<ms>|never]  # journal + snapshots in DIR
//! repro state --state-dir DIR   # inspect/verify a state directory:
//!                           # record counts, CRC failures, truncation
//!                           # point, per-session summary; non-zero exit
//!                           # on corruption
//! repro check-bench         # regression gate: compare current cycles and
//!     [--baseline FILE]     # micro-timings against BENCH_repro.json
//! repro lint --builtin      # static program-quality gate: lint the
//!     [FILE|-]              # canonical load_gen shapes + nn templates,
//!                           # and/or programs in wire request lines;
//!                           # non-zero exit on error/warn diagnostics
//! ```

use bpimc_bench::experiments::{
    ablation, fig2, fig7a, fig7b, fig8, fig9, table1, table2, table3, vrange,
};
use bpimc_core::{ImcMacro, MacroConfig, Precision};
use bpimc_nn::{
    chunks_per_class, classify_bindings, classify_from_outputs, classify_program, dot_program,
};
use std::fmt::Write as _;
use std::time::Instant;

/// The serving throughput PR 2 committed (~5k requests/sec with 8
/// synchronous clients on the 2-core CI container). The check-bench gate
/// requires the current pipelined measurement to stay at least
/// [`SERVED_SPEEDUP_FLOOR`] times above it.
const PR2_SERVED_REQ_PER_S: f64 = 5000.0;
/// Required speedup of `served_req_per_s` over the PR-2 baseline.
const SERVED_SPEEDUP_FLOOR: f64 = 2.0;
/// Perf-history sidecar: `repro --json` appends one record per run;
/// `check-bench` prints the trend against the latest entries.
const HISTORY_PATH: &str = "BENCH_history.jsonl";

/// Wall-clock + simulated-cycle numbers this PR and future perf PRs are
/// measured by. Written to `BENCH_repro.json` by `--json`.
struct BenchReport {
    samples: usize,
    seed: u64,
    /// True when fig2 ran, i.e. `samples`/`seed` describe a real run.
    ran_fig2: bool,
    experiments: Vec<(String, f64)>,
}

/// The pre-refactor (seed, commit 85e31a3) numbers, measured on the same
/// host as this PR's rewrite so the speedup claims in the PR are anchored
/// in the artefact itself. See CHANGES.md for the methodology.
const BASELINE_JSON: &str = r#"{
    "commit": "85e31a3 (seed, per-bit engine, fixed-step integrator)",
    "fig2_samples2000_wall_s": 53.5,
    "nn_eval_400x64_p8_wall_s": 2.300,
    "mult_p8_128col_us": 12.98,
    "reduce_add_8rows_us": 7.15
  }"#;

impl BenchReport {
    fn record<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.experiments
            .push((name.to_string(), t0.elapsed().as_secs_f64()));
        out
    }

    /// Simulated per-op cycle counts (Table I ground truth, precision-swept)
    /// plus the supplied host measurements. Pure serialization: the caller
    /// measures (`micro_timings`) and records history.
    fn to_json(&self, report: &MicroReport) -> String {
        let mut s = String::from("{\n  \"schema\": 1,\n");
        if self.ran_fig2 {
            // Only a run that included fig2 has meaningful sample counts.
            let _ = writeln!(s, "  \"samples\": {},", self.samples);
            let _ = writeln!(s, "  \"seed\": {},", self.seed);
        }
        s.push_str("  \"experiments_wall_s\": {\n");
        for (i, (name, secs)) in self.experiments.iter().enumerate() {
            let comma = if i + 1 < self.experiments.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(s, "    \"{name}\": {secs:.4}{comma}");
        }
        s.push_str("  },\n  \"simulated_cycles\": {\n");
        let cycles = simulated_cycles();
        for (i, (name, c)) in cycles.iter().enumerate() {
            let comma = if i + 1 < cycles.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{name}\": {c}{comma}");
        }
        s.push_str("  },\n  \"micro_us\": {\n");
        for (i, (name, us)) in report.micro.iter().enumerate() {
            let comma = if i + 1 < report.micro.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{name}\": {us:.3}{comma}");
        }
        s.push_str("  },\n  \"throughput\": {\n");
        let _ = writeln!(
            s,
            "    \"served_req_per_s\": {:.0}",
            report.served_req_per_s
        );
        let _ = writeln!(s, "  }},\n  \"baseline_pre_refactor\": {BASELINE_JSON}\n}}");
        s
    }
}

/// One line per `repro --json` run, appended to `BENCH_history.jsonl` — the
/// criterion-free perf history `check-bench` prints trends from. Each
/// record is a standalone JSON object (timestamp, micro timings,
/// throughput), so the file is greppable and survives baseline rewrites.
fn append_history(samples: usize, ran_fig2: bool, report: &MicroReport) {
    use std::io::Write as _;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut line = format!("{{\"ts\":{ts}");
    if ran_fig2 {
        let _ = write!(line, ",\"samples\":{samples}");
    }
    line.push_str(",\"micro_us\":{");
    for (i, (name, us)) in report.micro.iter().enumerate() {
        let comma = if i + 1 < report.micro.len() { "," } else { "" };
        let _ = write!(line, "\"{name}\":{us:.3}{comma}");
    }
    let _ = write!(
        line,
        "}},\"served_req_per_s\":{:.0}}}",
        report.served_req_per_s
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY_PATH)
        .and_then(|mut f| writeln!(f, "{line}"));
    match appended {
        Ok(()) => eprintln!("appended perf record to {HISTORY_PATH}"),
        Err(e) => eprintln!("warning: could not append to {HISTORY_PATH}: {e}"),
    }
}

/// Prints each current metric against the median of the last `n` history
/// records (purely informational — the hard gates are the baseline
/// comparisons). Silent when no history exists yet.
fn print_history_trend(report: &MicroReport, n: usize) {
    let Ok(text) = std::fs::read_to_string(HISTORY_PATH) else {
        println!("history no {HISTORY_PATH} yet (run `repro all --json` to start one)");
        return;
    };
    let records: Vec<bpimc_core::json::Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| bpimc_core::json::Json::parse(l).ok())
        .collect();
    if records.is_empty() {
        return;
    }
    let recent = &records[records.len().saturating_sub(n)..];
    println!(
        "history trend vs the last {} record(s) in {HISTORY_PATH}:",
        recent.len()
    );
    let median_of = |pick: &dyn Fn(&bpimc_core::json::Json) -> Option<f64>| -> Option<f64> {
        let mut vals: Vec<f64> = recent.iter().filter_map(pick).collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(f64::total_cmp);
        Some(vals[vals.len() / 2])
    };
    for (name, current) in &report.micro {
        let key = name.clone();
        if let Some(med) = median_of(&move |r: &bpimc_core::json::Json| {
            r.get("micro_us")
                .and_then(|m| m.get(&key))
                .and_then(|v| v.as_f64())
        }) {
            let delta = if med > 0.0 {
                100.0 * (current - med) / med
            } else {
                0.0
            };
            println!("history {name:<22} {current:.3} us vs median {med:.3} ({delta:+.0}%)");
        }
    }
    if let Some(med) =
        median_of(&|r: &bpimc_core::json::Json| r.get("served_req_per_s").and_then(|v| v.as_f64()))
    {
        let cur = report.served_req_per_s;
        let delta = if med > 0.0 {
            100.0 * (cur - med) / med
        } else {
            0.0
        };
        println!("history served_req_per_s       {cur:.0} vs median {med:.0} ({delta:+.0}%)");
    }
}

/// Runs each Table I op once and reports its hardware cycle count.
fn simulated_cycles() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for p in [Precision::P2, Precision::P4, Precision::P8, Precision::P16] {
        let mut mac = ImcMacro::new(MacroConfig::paper_macro());
        mac.write_words(0, p, &[1]).expect("fits");
        mac.write_words(1, p, &[2]).expect("fits");
        let add = mac.add(0, 1, 2, p).expect("add");
        let sub = mac.sub(0, 1, 3, p).expect("sub");
        let mut mm = ImcMacro::new(MacroConfig::paper_macro());
        mm.write_mult_operands(0, p, &[1]).expect("fits");
        mm.write_mult_operands(1, p, &[2]).expect("fits");
        let mult = mm.mult(0, 1, 2, p).expect("mult");
        let bits = p.bits();
        out.push((format!("add_p{bits}"), add));
        out.push((format!("sub_p{bits}"), sub));
        out.push((format!("mult_p{bits}"), mult));
    }
    // The program executor's static cost model for a 16-feature P8 dot
    // pipeline (2 chunks of write/write/mult/read) — hardware ground
    // truth for the `exec_program` path, asserted against the activity
    // log by executing it.
    let x: Vec<u64> = (0..16).collect();
    let prog = dot_program(Precision::P8, &x, &x, 128);
    let mut pm = ImcMacro::new(MacroConfig::paper_macro());
    let run = prog.run(&mut pm).expect("dot program runs");
    assert_eq!(run.total_cycles(), prog.cycles(), "cost model diverged");
    out.push(("program_dot16_p8".to_string(), run.total_cycles()));
    out
}

/// Host-side measurements `check-bench` gates: micro timings of the hot
/// ops/pipelines, the relative executor-overhead ratios (medians over
/// interleaved rounds), and the served request throughput.
struct MicroReport {
    micro: Vec<(String, f64)>,
    /// Compiled-program / raw-method-call pipeline time (16-feature dot).
    compiled_ratio: f64,
    /// Classify-via-compiled-template / raw-method-call classify time.
    classify_ratio: f64,
    /// Pipelined mixed-stream requests/sec against an in-process server.
    served_req_per_s: f64,
}

/// Quick host-side timings of the hot macro ops and pipelines
/// (microseconds per op; small sample, indicative rather than statistical
/// — `cargo bench` has the criterion versions). Ratios are medians over
/// interleaved measurement rounds, so host frequency drift and
/// noisy-neighbor bursts land on both sides equally.
fn micro_timings() -> MicroReport {
    let p = Precision::P8;
    let mut mac = ImcMacro::new(MacroConfig::paper_macro());
    mac.write_mult_operands(0, p, &[123; 8]).expect("fits");
    mac.write_mult_operands(1, p, &[45; 8]).expect("fits");
    let n = 2000;
    let t0 = Instant::now();
    for _ in 0..n {
        mac.mult(0, 1, 2, p).expect("mult");
        mac.clear_activity();
    }
    let mult_us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
    for r in 0..8 {
        mac.write_words(3 + r, p, &[(r as u64 * 31) % 256; 16])
            .expect("fits");
    }
    let rows: Vec<usize> = (3..11).collect();
    let t0 = Instant::now();
    for _ in 0..n {
        mac.reduce_add(&rows, 12, p).expect("reduce");
        mac.clear_activity();
    }
    let reduce_us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
    // The program-executor overhead gate: the same 16-feature dot pipeline
    // once as a validated+lowered Program run, once as raw method calls.
    // Regression-gated (10x) so the executor's bookkeeping (validation,
    // lowering, span accounting) never grows into the hot path's budget.
    let x: Vec<u64> = (0..16).map(|i| (i * 37) % 256).collect();
    let w: Vec<u64> = (0..16).map(|i| (i * 53) % 256).collect();
    let prog = dot_program(p, &x, &w, mac.cols());
    // The validate-once-run-many fast path: the same pipeline pre-resolved
    // into a flat op array, so repeat runs skip validation and lowering
    // entirely.
    let compiled = prog.compile(mac.config()).expect("pipeline validates");
    let lanes = p.product_lanes(mac.cols());
    // The three pipeline variants are measured in interleaved rounds so
    // host frequency drift (common on shared CI machines) lands on all of
    // them equally. check-bench gates the compiled/raw ratio as the
    // *median over rounds* — a noisy-neighbor burst that lands on a few
    // rounds shifts the mean but not the median.
    let rounds = 16;
    let per_round = n / rounds;
    let mut program_s = 0.0f64;
    let mut compiled_rounds = Vec::with_capacity(rounds);
    let mut raw_rounds = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..per_round {
            prog.run(&mut mac).expect("program runs");
            mac.clear_activity();
        }
        program_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..per_round {
            compiled.run(&mut mac).expect("compiled program runs");
            mac.clear_activity();
        }
        compiled_rounds.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for _ in 0..per_round {
            for (xc, wc) in x.chunks(lanes).zip(w.chunks(lanes)) {
                mac.write_mult_operands(0, p, xc).expect("fits");
                mac.write_mult_operands(1, p, wc).expect("fits");
                mac.mult(0, 1, 2, p).expect("mult");
                mac.read_products(2, p, xc.len()).expect("read");
            }
            mac.clear_activity();
        }
        raw_rounds.push(t0.elapsed().as_secs_f64());
    }
    let denom = (rounds * per_round) as f64;
    let program_us = program_s * 1e6 / denom;
    let compiled_us = compiled_rounds.iter().sum::<f64>() * 1e6 / denom;
    let raw_us = raw_rounds.iter().sum::<f64>() * 1e6 / denom;
    let median_ratio = |a: &[f64], b: &[f64]| -> f64 {
        let mut ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    };
    let ratio_median = median_ratio(&compiled_rounds, &raw_rounds);

    // The serving hot path: one whole classification (all C prototype
    // dots) through the per-model compiled template with the sample's
    // chunks rebound, against the same work as raw ImcMacro method calls
    // with host scoring. This is exactly what a `classify` request runs.
    let protos: Vec<Vec<u64>> = (0..4)
        .map(|c| (0..16).map(|i| (c * 37 + i * 11 + 3) % 256).collect())
        .collect();
    let norms = bpimc_nn::prototype_norms(&mut mac, p, &protos);
    mac.clear_activity();
    let dim = 16usize;
    let template = classify_program(p, &protos, &vec![0u64; dim], mac.cols())
        .compile(mac.config())
        .expect("classify template compiles");
    let chunks = chunks_per_class(p, dim, mac.cols());
    let xq: Vec<u64> = (0..dim as u64).map(|i| (i * 29 + 5) % 256).collect();
    let cls_n = 400usize;
    let cls_per_round = cls_n / rounds;
    let mut cls_prog_rounds = Vec::with_capacity(rounds);
    let mut cls_raw_rounds = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..cls_per_round {
            let inputs = classify_bindings(p, protos.len(), &xq, mac.cols());
            let outputs = template
                .run_outputs(&mut mac, &inputs)
                .expect("template runs");
            let got = classify_from_outputs(&outputs, chunks, &norms);
            assert!(got < protos.len());
            mac.clear_activity();
        }
        cls_prog_rounds.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for _ in 0..cls_per_round {
            let mut best: Option<(usize, f64)> = None;
            for (c, (w_q, &ww)) in protos.iter().zip(&norms).enumerate() {
                let mut xw = 0u64;
                for (xc, wc) in xq.chunks(lanes).zip(w_q.chunks(lanes)) {
                    mac.write_mult_operands(0, p, xc).expect("fits");
                    mac.write_mult_operands(1, p, wc).expect("fits");
                    mac.mult(0, 1, 2, p).expect("mult");
                    xw += mac
                        .read_products(2, p, xc.len())
                        .expect("read")
                        .iter()
                        .sum::<u64>();
                }
                let score = xw as f64 - ww as f64 / 2.0;
                if best.is_none() || score > best.expect("set").1 {
                    best = Some((c, score));
                }
            }
            assert!(best.expect("classified").0 < protos.len());
            mac.clear_activity();
        }
        cls_raw_rounds.push(t0.elapsed().as_secs_f64());
    }
    let cls_denom = (rounds * cls_per_round) as f64;
    let classify_program_us = cls_prog_rounds.iter().sum::<f64>() * 1e6 / cls_denom;
    let classify_raw_us = cls_raw_rounds.iter().sum::<f64>() * 1e6 / cls_denom;
    let classify_ratio = median_ratio(&cls_prog_rounds, &cls_raw_rounds);

    // The headline Monte-Carlo workload at smoke scale: 200 fig2 samples
    // through the structure-of-arrays batch transient engine. Wall-gated
    // like the other host timings so the batched path cannot silently
    // regress toward the scalar cost.
    let t0 = Instant::now();
    let fig2 = bpimc_bench::experiments::fig2::run(200, 2020);
    assert_eq!(fig2.samples, 200, "fig2 smoke ran");
    let fig2_us = t0.elapsed().as_secs_f64() * 1e6;

    let served_req_per_s = serve_throughput();
    MicroReport {
        micro: vec![
            ("mult_p8_128col_us".into(), mult_us),
            ("reduce_add_8rows_us".into(), reduce_us),
            ("program_pipeline_us".into(), program_us),
            ("compiled_pipeline_us".into(), compiled_us),
            ("raw_pipeline_us".into(), raw_us),
            ("classify_program_us".into(), classify_program_us),
            ("classify_raw_us".into(), classify_raw_us),
            ("fig2_mc200_us".into(), fig2_us),
        ],
        compiled_ratio: ratio_median,
        classify_ratio,
        served_req_per_s,
    }
}

/// Measures the compute service's mixed-stream throughput: an in-process
/// server on an ephemeral port, 4 concurrent clients pipelining a window
/// of 16 light dot/add requests each over real TCP. This is the
/// `served_req_per_s` number check-bench gates against the PR-2 committed
/// ~5k requests/sec baseline.
fn serve_throughput() -> f64 {
    use bpimc_core::{LaneOp, RequestBody, ResponseBody};
    let handle = bpimc_server::Server::bind("127.0.0.1:0", bpimc_server::ServerConfig::default())
        .expect("bind ephemeral serving bench");
    let addr = handle.local_addr();
    let clients = 4u64;
    let per = 600u64;
    let window = 16u64;
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = bpimc_server::Client::connect(addr).expect("connect");
                let mut sent = 0u64;
                let mut received = 0u64;
                while received < per {
                    while sent < per && sent - received < window {
                        let k = (c * 97 + sent) % 256;
                        let body = if sent.is_multiple_of(2) {
                            RequestBody::Dot {
                                precision: Precision::P8,
                                x: vec![k, 2, 3, 4, 5, 6, 7, 8],
                                w: vec![8, 7, 6, 5, 4, 3, 2, 1],
                            }
                        } else {
                            RequestBody::Lanes {
                                op: LaneOp::Add,
                                precision: Precision::P8,
                                a: vec![k, 20, 30, 40],
                                b: vec![9, 9, 9, 9],
                            }
                        };
                        client.send(body).expect("send");
                        sent += 1;
                    }
                    let resp = client.recv().expect("recv");
                    assert!(
                        !matches!(resp.body, ResponseBody::Error(_)),
                        "served an error: {:?}",
                        resp.body
                    );
                    received += 1;
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("serving bench client");
    }
    let rate = (clients * per) as f64 / t0.elapsed().as_secs_f64();
    handle.shutdown();
    rate
}

/// `repro serve`: run the line-delimited-JSON compute service until a
/// client sends `{"op":"shutdown"}` (see the README's Serving section).
///
/// Beyond `--addr`/`--macros`, the flags map onto the server's guardrail
/// and chaos knobs: `--max-*` set per-session limits ([`SessionLimits`]),
/// `--chaos-*` build a seeded deterministic [`FaultPlan`], and
/// `--session-ttl-ms` / `--max-sessions` / `--max-registry-programs`
/// bound the durable-session registry (how long a detached session
/// lingers before the sweeper collects it, and the global caps on
/// sessions and registry-wide stored programs).
///
/// [`SessionLimits`]: bpimc_server::SessionLimits
/// [`FaultPlan`]: bpimc_server::FaultPlan
fn serve(args: &[String]) {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut config = bpimc_server::ServerConfig::default();
    let mut state_dir: Option<String> = None;
    let mut fsync: Option<bpimc_server::FsyncPolicy> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| die(&format!("{name} needs a number")))
        };
        match a.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--addr needs HOST:PORT"))
            }
            "--macros" => {
                config.macros = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--macros needs a positive number"));
                config.batch_max = 4 * config.macros;
            }
            "--chaos-seed" => config.faults.seed = num("--chaos-seed"),
            "--chaos-panic-pm" => config.faults.panic_per_mille = num("--chaos-panic-pm") as u16,
            "--chaos-delay-pm" => config.faults.delay_per_mille = num("--chaos-delay-pm") as u16,
            "--chaos-delay-ms" => config.faults.delay_ms = num("--chaos-delay-ms"),
            "--chaos-stall-pm" => config.faults.stall_per_mille = num("--chaos-stall-pm") as u16,
            "--chaos-stall-ms" => config.faults.stall_ms = num("--chaos-stall-ms"),
            "--chaos-drop-pm" => config.faults.drop_per_mille = num("--chaos-drop-pm") as u16,
            "--max-cycles-per-sec" => {
                config.limits.max_cycles_per_sec = Some(num("--max-cycles-per-sec"))
            }
            "--max-energy-fj-per-sec" => {
                config.limits.max_energy_fj_per_sec = Some(num("--max-energy-fj-per-sec") as f64)
            }
            "--max-inflight" => config.limits.max_inflight = Some(num("--max-inflight")),
            "--max-program-instrs" => {
                config.limits.max_program_instrs = Some(num("--max-program-instrs") as usize)
            }
            "--max-stored-programs" => {
                config.limits.max_stored_programs = num("--max-stored-programs") as usize
            }
            "--write-timeout-ms" => {
                config.write_timeout =
                    std::time::Duration::from_millis(num("--write-timeout-ms").max(1))
            }
            "--session-ttl-ms" => {
                config.session_ttl =
                    std::time::Duration::from_millis(num("--session-ttl-ms").max(1))
            }
            "--max-sessions" => config.max_sessions = num("--max-sessions").max(1) as usize,
            "--max-registry-programs" => {
                config.max_registry_programs = num("--max-registry-programs").max(1) as usize
            }
            "--state-dir" => {
                state_dir = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--state-dir needs a PATH")),
                )
            }
            "--fsync" => {
                let spec = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--fsync needs always|interval:<ms>|never"));
                fsync = Some(
                    bpimc_server::FsyncPolicy::parse(&spec)
                        .unwrap_or_else(|e| die(&format!("--fsync: {e}"))),
                );
            }
            other => die(&format!("unknown serve option '{other}'")),
        }
    }
    match state_dir {
        Some(dir) => {
            let mut state = bpimc_server::StateConfig::new(std::path::PathBuf::from(dir));
            if let Some(policy) = fsync {
                state.fsync = policy;
            }
            config.state = Some(state);
        }
        None if fsync.is_some() => die("--fsync needs --state-dir"),
        None => {}
    }
    let handle = bpimc_server::Server::bind(addr.as_str(), config.clone())
        .unwrap_or_else(|e| die(&format!("binding {addr}: {e}")));
    println!(
        "serving on {} with {} macros (queue {}, batch {}, write timeout {:?})",
        handle.local_addr(),
        config.macros,
        config.queue_capacity,
        config.batch_max,
        config.write_timeout,
    );
    if config.faults.is_active() {
        println!(
            "chaos plan: seed {} panic {}‰ delay {}‰/{} ms stall {}‰/{} ms drop {}‰",
            config.faults.seed,
            config.faults.panic_per_mille,
            config.faults.delay_per_mille,
            config.faults.delay_ms,
            config.faults.stall_per_mille,
            config.faults.stall_ms,
            config.faults.drop_per_mille,
        );
    }
    if let Some(state) = &config.state {
        println!(
            "durable state in {} (fsync {})",
            state.dir.display(),
            state.fsync
        );
    }
    println!("send {{\"id\":1,\"op\":\"shutdown\"}} to stop");
    handle.join();
    println!("server stopped");
}

/// `repro state --state-dir DIR`: offline inspection of a durable-state
/// directory — what a restarting server would recover. Prints every
/// snapshot and journal generation with record counts and CRC failures,
/// the recovery path (warm or replay) and truncation point, and a
/// per-session summary of the recovered registry. Exits non-zero when any
/// file carries a torn or corrupt record, so recovery tests and operators
/// can assert on it.
fn state_cmd(args: &[String]) {
    let mut dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--state-dir" => dir = it.next().cloned(),
            other if dir.is_none() && !other.starts_with("--") => dir = Some(other.to_string()),
            other => die(&format!("unknown state option '{other}'")),
        }
    }
    let dir = dir.unwrap_or_else(|| die("state needs --state-dir DIR (or a bare DIR)"));
    let report = bpimc_server::inspect(std::path::Path::new(&dir))
        .unwrap_or_else(|e| die(&format!("inspecting {dir}: {e}")));
    let file_line = |kind: &str, f: &bpimc_server::FileReport| {
        let chosen = if kind == "snapshot" && Some(f.gen) == report.chosen_snapshot {
            "  <- recovery base"
        } else {
            ""
        };
        match &f.corruption {
            Some(c) => println!(
                "{kind} gen {}: {} records, CORRUPT at byte {} ({} bytes dropped: {}){chosen}",
                f.gen, f.records, c.offset, c.dropped_bytes, c.reason
            ),
            None => println!("{kind} gen {}: {} records, clean{chosen}", f.gen, f.records),
        }
    };
    for f in &report.snapshots {
        file_line("snapshot", f);
    }
    for f in &report.journals {
        file_line("journal", f);
    }
    match report.clean_marker {
        Some(gen) => println!("clean-shutdown marker names gen {gen}"),
        None => println!("no clean-shutdown marker (crash or mid-run copy)"),
    }
    if report.warm {
        println!("recovery path: warm (snapshot only, journal replay skipped)");
    } else {
        println!(
            "recovery path: snapshot {} + {} replayed journal events",
            report
                .chosen_snapshot
                .map(|g| g.to_string())
                .unwrap_or_else(|| "none".into()),
            report.replayed_events
        );
    }
    println!("{} recovered sessions:", report.sessions.len());
    for s in &report.sessions {
        println!(
            "  {}: {} requests ({} errors), {} cycles, {:.1} fJ, {} programs, last_seq {}, {} replay entries{}",
            s.token,
            s.stats.requests,
            s.stats.errors,
            s.stats.cycles,
            s.stats.energy_fj,
            s.programs,
            s.last_seq.map(|q| q.to_string()).unwrap_or_else(|| "-".into()),
            s.replay,
            if s.detached_since_ms.is_some() {
                " (detached)"
            } else {
                ""
            },
        );
    }
    if report.corrupt() {
        for (file, c) in &report.corruptions {
            eprintln!(
                "corruption in {file} at byte {}: {} ({} bytes dropped)",
                c.offset, c.reason, c.dropped_bytes
            );
        }
        std::process::exit(1);
    }
    println!("state directory is clean");
}

/// `repro lint` — the static program-quality gate.
///
/// Lints the canonical benchmark pipelines (`--builtin`: the four
/// `load_gen --programs` shapes plus the `bpimc_nn` dot and classify
/// templates) and/or the programs embedded in a file of wire request
/// lines (`store_program` / `exec_program` / `lint_program` ops; `-`
/// reads stdin, other lines are skipped). Prints every diagnostic and
/// exits non-zero if any carries error or warn severity — perf notes
/// are advisory and do not fail the gate.
fn lint_cmd(args: &[String]) {
    use bpimc_core::{Program, Request, RequestBody, Severity};

    let mut builtin = false;
    let mut path: Option<String> = None;
    for a in args {
        match a.as_str() {
            "--builtin" => builtin = true,
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => die(&format!("unknown lint option '{other}'")),
        }
    }
    if !builtin && path.is_none() {
        die("lint needs --builtin and/or a FILE of wire request lines ('-' for stdin)");
    }
    let mac = ImcMacro::new(MacroConfig::paper_macro());
    let config = *mac.config();
    let mut programs: Vec<(String, Program)> = Vec::new();
    if builtin {
        for variant in 0..bpimc_bench::shapes::SHAPE_COUNT {
            let (prog, _) = bpimc_bench::shapes::program_request(31 + variant, variant);
            programs.push((format!("shape/{variant}"), prog));
        }
        let p = Precision::P8;
        let x: Vec<u64> = (0..24).map(|i| (i * 11) % 256).collect();
        let w: Vec<u64> = (0..24).map(|i| (i * 7 + 3) % 256).collect();
        let protos: Vec<Vec<u64>> = (0..3)
            .map(|c| (0..24).map(|i| (i * 5 + c * 17) % 256).collect())
            .collect();
        programs.push(("nn/dot".into(), dot_program(p, &x, &w, mac.cols())));
        programs.push((
            "nn/classify".into(),
            classify_program(p, &protos, &x, mac.cols()),
        ));
    }
    if let Some(p) = &path {
        let text = if p == "-" {
            use std::io::Read as _;
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .unwrap_or_else(|e| die(&format!("reading stdin: {e}")));
            s
        } else {
            std::fs::read_to_string(p).unwrap_or_else(|e| die(&format!("reading {p}: {e}")))
        };
        for (ln, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let req = Request::parse(line).unwrap_or_else(|e| die(&format!("{p}:{}: {e}", ln + 1)));
            let instrs = match req.body {
                RequestBody::StoreProgram { instrs, .. }
                | RequestBody::ExecProgram { instrs }
                | RequestBody::LintProgram { instrs } => instrs,
                _ => continue,
            };
            programs.push((format!("{p}:{}", ln + 1), Program::new(instrs)));
        }
    }

    let (mut errors, mut warns, mut perfs) = (0usize, 0usize, 0usize);
    for (name, prog) in &programs {
        for d in prog.lint(&config) {
            println!(
                "{name}: {} {} [{}..{}] {}",
                d.severity.name(),
                d.code,
                d.span.start,
                d.span.end,
                d.message
            );
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warn => warns += 1,
                Severity::Perf => perfs += 1,
            }
        }
    }
    println!(
        "linted {} program(s): {errors} error(s), {warns} warning(s), {perfs} perf note(s)",
        programs.len()
    );
    if errors + warns > 0 {
        die("lint gate failed: error- or warn-severity diagnostics present");
    }
}

/// `repro check-bench`: the CI regression gate. Simulated cycle counts are
/// hardware ground truth and must match the baseline **exactly**; host
/// micro-timings vary with the machine, so they only fail when more than
/// `TOLERANCE_FACTOR` slower than the recorded baseline (catching
/// order-of-magnitude regressions without flaking on slower CI hosts).
fn check_bench(args: &[String]) {
    const TOLERANCE_FACTOR: f64 = 10.0;
    let mut baseline_path = "BENCH_repro.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                baseline_path = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| die("--baseline needs a path"))
            }
            other => die(&format!("unknown check-bench option '{other}'")),
        }
    }
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| die(&format!("reading {baseline_path}: {e}")));
    let baseline = bpimc_core::json::Json::parse(&text)
        .unwrap_or_else(|e| die(&format!("parsing {baseline_path}: {e}")));

    // Both directions are gated: a current measurement missing from the
    // baseline fails, and a baseline entry with no current counterpart
    // fails too — deleting or renaming a benchmark must not silently
    // shrink the gate.
    fn orphaned_baseline_keys(
        section: &bpimc_core::json::Json,
        label: &str,
        current_names: &[String],
        failures: &mut usize,
    ) {
        if let bpimc_core::json::Json::Obj(fields) = section {
            for (name, _) in fields {
                if !current_names.iter().any(|n| n == name) {
                    println!("{label} {name:<22} in baseline but no longer measured  FAIL");
                    *failures += 1;
                }
            }
        }
    }

    let mut failures = 0usize;
    let current_cycles = simulated_cycles();
    let cycles_base = baseline
        .get("simulated_cycles")
        .unwrap_or_else(|| die("baseline has no simulated_cycles"));
    for (name, current) in &current_cycles {
        match cycles_base.get(name).and_then(|v| v.as_u64()) {
            Some(recorded) if recorded == *current => {
                println!("cycles  {name:<16} {current} == baseline");
            }
            Some(recorded) => {
                println!("cycles  {name:<16} {current} != baseline {recorded}  FAIL");
                failures += 1;
            }
            None => {
                println!("cycles  {name:<16} {current} (not in baseline)  FAIL");
                failures += 1;
            }
        }
    }
    let cycle_names: Vec<String> = current_cycles.into_iter().map(|(n, _)| n).collect();
    orphaned_baseline_keys(cycles_base, "cycles ", &cycle_names, &mut failures);

    let report = micro_timings();
    let micro_base = baseline
        .get("micro_us")
        .unwrap_or_else(|| die("baseline has no micro_us"));
    for (name, current) in &report.micro {
        match micro_base.get(name).and_then(|v| v.as_f64()) {
            Some(recorded) if *current <= recorded * TOLERANCE_FACTOR => {
                println!("micro   {name:<22} {current:.3} us (baseline {recorded:.3}, limit {TOLERANCE_FACTOR}x)");
            }
            Some(recorded) => {
                println!(
                    "micro   {name:<22} {current:.3} us > {TOLERANCE_FACTOR}x baseline {recorded:.3}  FAIL"
                );
                failures += 1;
            }
            None => {
                println!("micro   {name:<22} {current:.3} us (not in baseline)  FAIL");
                failures += 1;
            }
        }
    }
    // The executor-overhead gates are *relative*, measured within one
    // process: the pre-resolved program paths must stay close to raw
    // method calls no matter the host. The gated values are medians over
    // interleaved measurement rounds, so neither frequency drift nor a
    // noisy-neighbor burst on a few rounds can flake them. (The absolute
    // 10x gates above still bound every timing against the baseline.)
    const COMPILED_OVERHEAD_FACTOR: f64 = 1.25;
    let ratio_median = report.compiled_ratio;
    if ratio_median <= COMPILED_OVERHEAD_FACTOR {
        println!(
            "ratio   compiled/raw pipeline   {ratio_median:.2}x median (limit {COMPILED_OVERHEAD_FACTOR}x)"
        );
    } else {
        println!(
            "ratio   compiled/raw pipeline   {ratio_median:.2}x median > {COMPILED_OVERHEAD_FACTOR}x  FAIL"
        );
        failures += 1;
    }
    // The one-program classify acceptance: a whole served classification
    // through the compiled template must stay within 1.1x of raw ImcMacro
    // method calls.
    const CLASSIFY_OVERHEAD_FACTOR: f64 = 1.1;
    let cls_ratio = report.classify_ratio;
    if cls_ratio <= CLASSIFY_OVERHEAD_FACTOR {
        println!(
            "ratio   classify prog/raw       {cls_ratio:.2}x median (limit {CLASSIFY_OVERHEAD_FACTOR}x)"
        );
    } else {
        println!(
            "ratio   classify prog/raw       {cls_ratio:.2}x median > {CLASSIFY_OVERHEAD_FACTOR}x  FAIL"
        );
        failures += 1;
    }
    // Serving throughput: must hold the tentpole speedup over the PR-2
    // committed ~5k req/s, and must not collapse an order of magnitude
    // below its own recorded baseline.
    let served = report.served_req_per_s;
    let served_floor = PR2_SERVED_REQ_PER_S * SERVED_SPEEDUP_FLOOR;
    if served >= served_floor {
        println!(
            "served  req/s                   {served:.0} (floor {served_floor:.0} = {SERVED_SPEEDUP_FLOOR}x PR-2 baseline {PR2_SERVED_REQ_PER_S:.0})"
        );
    } else {
        println!("served  req/s                   {served:.0} < floor {served_floor:.0}  FAIL");
        failures += 1;
    }
    match baseline
        .get("throughput")
        .and_then(|t| t.get("served_req_per_s"))
        .and_then(|v| v.as_f64())
    {
        Some(recorded) if served >= recorded / TOLERANCE_FACTOR => {
            println!(
                "served  vs baseline             {served:.0} (baseline {recorded:.0}, floor /{TOLERANCE_FACTOR})"
            );
        }
        Some(recorded) => {
            println!(
                "served  vs baseline             {served:.0} < baseline {recorded:.0} / {TOLERANCE_FACTOR}  FAIL"
            );
            failures += 1;
        }
        None => {
            println!("served  req/s not in baseline  FAIL");
            failures += 1;
        }
    }
    let micro_names: Vec<String> = report.micro.iter().map(|(n, _)| n.clone()).collect();
    orphaned_baseline_keys(micro_base, "micro  ", &micro_names, &mut failures);
    print_history_trend(&report, 5);
    if failures > 0 {
        die(&format!(
            "{failures} bench regression(s) against {baseline_path}"
        ));
    }
    println!("bench check passed against {baseline_path}");
}

/// `repro model-check`: explores every registered concurrency model (the
/// stats claim-queue suite and the server queue/outbox/rate-window suite)
/// under the deterministic schedule explorer. Each model runs `--seeds`
/// seeded schedules (even seeds random, odd seeds PCT at `--depth`);
/// `--seed S` pins a single schedule — the replay knob printed by every
/// failure — and `--model NAME` restricts the run to one model. Failing
/// schedules print their replay line and full trace, and write a trace
/// artifact under `$BPIMC_MODEL_TRACE_DIR` when set.
#[cfg(feature = "model")]
fn model_check(args: &[String]) {
    use bpimc_stats::sync::model::{explore, write_trace_artifact, ExploreConfig};
    let mut cfg = ExploreConfig::from_env(16);
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| die(&format!("{name} needs a number")))
        };
        match a.as_str() {
            "--seeds" => cfg.seeds = num("--seeds"),
            "--depth" => cfg.depth = num("--depth") as u32,
            "--max-steps" => cfg.max_steps = num("--max-steps"),
            "--exhaustive" => cfg.exhaustive = Some(num("--exhaustive")),
            "--seed" => {
                // Pin the matrix to exactly this seed: byte-identical
                // replay of a reported failure.
                cfg.base_seed = num("--seed");
                cfg.seeds = 1;
            }
            "--model" => {
                only = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--model needs a model NAME")),
                );
            }
            other => die(&format!("unknown model-check option '{other}'")),
        }
    }
    let specs: Vec<_> = bpimc_stats::sync::models::MODELS
        .iter()
        .chain(bpimc_server::models::MODELS.iter())
        .filter(|s| only.as_deref().is_none_or(|n| n == s.name))
        .collect();
    if specs.is_empty() {
        die(&format!(
            "no model named '{}' (try model-check with no --model to list all)",
            only.unwrap_or_default()
        ));
    }
    let mut failed = 0usize;
    for spec in &specs {
        match explore(spec.name, &cfg, spec.run) {
            Ok(stats) => println!(
                "ok    {:<38} {} schedules, {} points (longest {})  [{}]",
                spec.name, stats.executions, stats.steps, stats.max_steps_seen, spec.invariant
            ),
            Err(failure) => {
                failed += 1;
                write_trace_artifact(&failure);
                println!("FAIL  {:<38} [{}]", spec.name, spec.invariant);
                eprintln!("{failure}");
            }
        }
    }
    if failed > 0 {
        die(&format!("{failed} of {} model(s) failed", specs.len()));
    }
    println!("model check passed ({} models)", specs.len());
}

/// Without the `model` feature the deterministic scheduler is compiled
/// out (the sync shim is plain `std::sync`), so there is nothing to
/// explore — point at the right build instead of silently passing.
#[cfg(not(feature = "model"))]
fn model_check(_args: &[String]) {
    die(
        "this binary was built without the 'model' feature; rebuild with:\n  \
         cargo run -p bpimc-bench --features model --bin repro -- model-check",
    );
}

/// The experiment names `repro` accepts (`all` selects every one).
const EXPERIMENTS: [&str; 11] = [
    "all", "fig2", "fig7a", "fig7b", "fig8", "fig9", "table1", "table2", "table3", "ablation",
    "vrange",
];

/// Prints the usage text and exits 2.
fn usage() -> ! {
    eprintln!(
        "usage: repro [{}]... [--samples N] [--seed S] [--json]",
        EXPERIMENTS.join("|")
    );
    eprintln!(
        "       repro serve [--addr HOST:PORT] [--macros N] [--write-timeout-ms MS] [--max-* limits] [--chaos-* plan] [--state-dir DIR] [--fsync always|interval:<ms>|never]"
    );
    eprintln!("       repro state --state-dir DIR  (inspect/verify durable state; non-zero exit on corruption)");
    eprintln!("       repro check-bench [--baseline FILE]");
    eprintln!("       repro lint [--builtin] [FILE|-]");
    eprintln!("       repro model-check [--seeds N] [--depth D] [--model NAME] [--seed S] [--exhaustive BUDGET] [--max-steps N]  (needs --features model)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "serve" {
        serve(&args[1..]);
        return;
    }
    if args[0] == "state" {
        state_cmd(&args[1..]);
        return;
    }
    if args[0] == "model-check" {
        model_check(&args[1..]);
        return;
    }
    if args[0] == "check-bench" {
        check_bench(&args[1..]);
        return;
    }
    if args[0] == "lint" {
        lint_cmd(&args[1..]);
        return;
    }
    let mut samples = 800usize;
    let mut seed = 2020u64;
    let mut json = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--samples" => {
                samples = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--samples needs a number"));
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--json" => json = true,
            name if EXPERIMENTS.contains(&name) => wanted.push(name.to_string()),
            other => {
                eprintln!("error: unknown argument '{other}'");
                usage();
            }
        }
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);
    let mut report = BenchReport {
        samples,
        seed,
        ran_fig2: false,
        experiments: Vec::new(),
    };

    if want("table1") {
        println!("{}\n", report.record("table1", table1::run));
    }
    if want("fig7b") {
        println!("{}\n", report.record("fig7b", fig7b::run));
    }
    if want("fig8") {
        println!("{}\n", report.record("fig8", fig8::run));
    }
    if want("fig9") {
        println!("{}\n", report.record("fig9", fig9::run));
    }
    if want("table2") {
        println!("{}\n", report.record("table2", table2::run));
    }
    if want("table3") {
        println!("{}\n", report.record("table3", table3::run));
    }
    if want("vrange") {
        println!("{}\n", report.record("vrange", vrange::run));
    }
    if want("ablation") {
        println!("{}\n", report.record("ablation", ablation::run));
    }
    if want("fig7a") {
        println!("{}\n", report.record("fig7a", fig7a::run));
    }
    if want("fig2") {
        report.ran_fig2 = true;
        println!("{}\n", report.record("fig2", || fig2::run(samples, seed)));
    }

    if json {
        let micro = micro_timings();
        let path = "BENCH_repro.json";
        std::fs::write(path, report.to_json(&micro))
            .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("wrote {path}");
        append_history(report.samples, report.ran_fig2, &micro);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
