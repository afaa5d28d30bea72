//! `repro` — regenerate the paper's figures and tables from the simulators.
//!
//! Each experiment's result is pinned bit for bit by a unit test in its
//! module under `bpimc_bench::experiments` (fig2 on a 32-sample run), so
//! `cargo test` fails on a change that moves any of them. Host timing is
//! not measured here: perfbench (`BENCHMARK.json`) is the one timing
//! source, `scripts/bench_ab.py` gates it against a base revision, and
//! `crates/bench/tests/executor_overhead.rs` holds the executor's
//! overhead ratios against raw `ImcMacro` calls.
//!
//! ```text
//! repro all                 # everything (fig2 with default sample count)
//! repro fig2 --samples 2000
//! repro fig7a fig7b fig8 fig9 table1 table2 table3
//! repro serve               # run the multi-client compute service
//!     [--addr 127.0.0.1:7171] [--write-timeout-ms MS]
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
//! repro lint --builtin      # static program-quality gate: lint the
//!     [FILE|-]              # canonical load_gen shapes + nn templates,
//!                           # and/or programs in wire request lines;
//!                           # non-zero exit on error/warn diagnostics
//! ```

use bpimc_bench::experiments::{
    ablation, fig2, fig7a, fig7b, fig8, fig9, table1, table2, table3, vrange,
};
use bpimc_core::{ImcMacro, MacroConfig, Precision};
use bpimc_nn::{classify_program, dot_program};

/// `repro serve`: run the line-delimited-JSON compute service until a
/// client sends `{"op":"shutdown"}` (see the README's Serving section).
///
/// Beyond `--addr`, the flags map onto the server's guardrail
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
            "--chaos-seed" => config.faults.seed = num("--chaos-seed"),
            "--chaos-panic-pm" => {
                config.faults.panic_per_mille =
                    per_mille("--chaos-panic-pm", num("--chaos-panic-pm"))
            }
            "--chaos-delay-pm" => {
                config.faults.delay_per_mille =
                    per_mille("--chaos-delay-pm", num("--chaos-delay-pm"))
            }
            "--chaos-delay-ms" => config.faults.delay_ms = num("--chaos-delay-ms"),
            "--chaos-stall-pm" => {
                config.faults.stall_per_mille =
                    per_mille("--chaos-stall-pm", num("--chaos-stall-pm"))
            }
            "--chaos-stall-ms" => config.faults.stall_ms = num("--chaos-stall-ms"),
            "--chaos-drop-pm" => {
                config.faults.drop_per_mille = per_mille("--chaos-drop-pm", num("--chaos-drop-pm"))
            }
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
        "serving on {} (queue {}, batch {}, write timeout {:?})",
        handle.local_addr(),
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

/// A `--chaos-*-pm` rate: per mille, so at most 1000. Anything larger is
/// refused, not truncated or saturated.
fn per_mille(name: &str, n: u64) -> u16 {
    u16::try_from(n)
        .ok()
        .filter(|&pm| pm <= 1000)
        .unwrap_or_else(|| usage_error(&format!("{name} is per mille: at most 1000, got {n}")))
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

/// Prints `error: {msg}`, then the usage text, and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage()
}

/// Prints the usage text and exits 2.
fn usage() -> ! {
    eprintln!(
        "usage: repro [{}]... [--samples N] [--seed S]",
        EXPERIMENTS.join("|")
    );
    eprintln!(
        "       repro serve [--addr HOST:PORT] [--write-timeout-ms MS] [--max-* limits] [--chaos-* plan] [--state-dir DIR] [--fsync always|interval:<ms>|never]"
    );
    eprintln!("       repro state --state-dir DIR  (inspect/verify durable state; non-zero exit on corruption)");
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
    if args[0] == "lint" {
        lint_cmd(&args[1..]);
        return;
    }
    let mut samples = 800usize;
    let mut seed = 2020u64;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--samples" => {
                samples = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--samples needs a positive number"));
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed needs a number"));
            }
            name if EXPERIMENTS.contains(&name) => wanted.push(name.to_string()),
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    if wanted.is_empty() {
        usage_error("name an experiment to run");
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    if want("table1") {
        println!("{}\n", table1::run());
    }
    if want("fig7b") {
        println!("{}\n", fig7b::run());
    }
    if want("fig8") {
        println!("{}\n", fig8::run());
    }
    if want("fig9") {
        println!("{}\n", fig9::run());
    }
    if want("table2") {
        println!("{}\n", table2::run());
    }
    if want("table3") {
        println!("{}\n", table3::run());
    }
    if want("vrange") {
        println!("{}\n", vrange::run());
    }
    if want("ablation") {
        println!("{}\n", ablation::run());
    }
    if want("fig7a") {
        println!("{}\n", fig7a::run());
    }
    if want("fig2") {
        println!("{}\n", fig2::run(samples, seed));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
