//! Load generator for the compute service: N concurrent clients, mixed
//! op/precision request streams, every response verified, requests/sec
//! reported. Exits non-zero on any dropped or incorrect response — CI uses
//! it as the server smoke test.
//!
//! ```text
//! cargo run --release -p bpimc-bench --example load_gen -- \
//!     [--clients 8] [--requests 50] [--macros N] [--addr HOST:PORT] \
//!     [--programs] [--stored] [--pipeline W] [--min-throughput R] \
//!     [--chaos [--chaos-seed S] [--restart]]
//! ```
//!
//! Without `--addr` an in-process server is spawned on an ephemeral port
//! and shut down gracefully at the end.
//!
//! With `--programs` the clients issue multi-instruction `exec_program`
//! requests instead of the per-op mix: whole pipelines (staging writes,
//! fused add+shl, SUB, MULT, reductions, readbacks) in one round trip,
//! with every output host-verified and the reported per-instruction cycle
//! accounting checked against the program's static cost model.
//!
//! With `--stored` each client stores the four pipeline shapes **once**
//! (`store_program`) and then drives them with `run_stored`, rebinding the
//! write values per request — the validate-once/run-many fast path. The
//! same host verification applies: outputs and per-instruction cycles must
//! match the rebound program's static cost model exactly.
//!
//! `--pipeline W` keeps up to `W` requests in flight per client (the
//! protocol guarantees in-order responses per connection, so verification
//! just follows the request order). `W = 1` (default) is the synchronous
//! one-at-a-time stream; higher windows measure the server's capacity
//! instead of per-request wake-up latency. `--min-throughput R` exits
//! non-zero when the measured requests/sec land below `R`.
//!
//! `--chaos [--chaos-seed S]` spawns the in-process server with a seeded
//! deterministic [`FaultPlan`] (worker panics, delayed executions, stalled
//! writers, severed connections) and drives it with tolerant clients, each
//! holding a **durable session**: injected-fault errors are counted and
//! tolerated, and a severed connection is survived by reconnecting,
//! resuming the session by token, and resending the same seq-stamped
//! request (the server's replay guard makes every resend exactly-once).
//! The run fails on a *wrong* value, a lost session, or a final account
//! that is not byte-identical to replaying the executed ops through a
//! fault-free server — the correctness-under-fire smoke test.
//!
//! `--chaos --restart` is the crash-recovery smoke test: the server runs
//! as a **separate `repro serve` process** with `--state-dir`/`--fsync
//! always`, gets `SIGKILL`ed mid-load, and is restarted on the same port
//! against the same state directory. The clients ride the restart through
//! the same reconnect/resume/seq-replay machinery, and the run asserts
//! exactly what `--chaos` asserts — every session survives and every
//! account is byte-identical to its fault-free replay, i.e. the journal
//! recovered every billed op exactly once and re-executed none of the
//! replayed retries. Afterwards the server is shut down gracefully and
//! `repro state` must find the state directory clean.

use bpimc_bench::shapes::program_request;
use bpimc_core::{
    LogicOp, Precision, Program, RequestBody, ResponseBody, SessionActivity, StoredMeta,
    StoredTarget,
};
use bpimc_server::{Client, ClientError, FaultPlan, RetryPolicy, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    clients: u64,
    requests: u64,
    macros: Option<usize>,
    addr: Option<String>,
    programs: bool,
    stored: bool,
    pipeline: usize,
    min_throughput: Option<f64>,
    chaos: bool,
    chaos_seed: u64,
    restart: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 8,
        requests: 50,
        macros: None,
        addr: None,
        programs: false,
        stored: false,
        pipeline: 1,
        min_throughput: None,
        chaos: false,
        chaos_seed: 7,
        restart: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| die(&format!("{name} needs a number")))
        };
        match a.as_str() {
            "--clients" => args.clients = num("--clients").max(1),
            "--requests" => args.requests = num("--requests").max(1),
            "--macros" => args.macros = Some(num("--macros").max(1) as usize),
            "--pipeline" => args.pipeline = num("--pipeline").max(1) as usize,
            "--min-throughput" => args.min_throughput = Some(num("--min-throughput") as f64),
            "--addr" => {
                args.addr = Some(it.next().unwrap_or_else(|| die("--addr needs HOST:PORT")))
            }
            "--programs" => args.programs = true,
            "--stored" => args.stored = true,
            "--chaos" => args.chaos = true,
            "--chaos-seed" => args.chaos_seed = num("--chaos-seed"),
            "--restart" => args.restart = true,
            other => die(&format!("unknown option '{other}'")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The write values of a program's `write`/`write_mult` instructions in
/// submitted order — the full input binding that replays the program's
/// data through `run_stored`.
fn write_bindings(prog: &Program) -> Vec<Option<Vec<u64>>> {
    prog.instrs()
        .iter()
        .filter_map(|i| match i {
            bpimc_core::Instr::Write { values, .. }
            | bpimc_core::Instr::WriteMult { values, .. } => Some(Some(values.clone())),
            _ => None,
        })
        .collect()
}

/// What a response must look like to count as correct.
enum Expect {
    Scalar(u64),
    Words(Vec<u64>),
    /// Program outputs plus the static cost model's per-instruction
    /// cycles; `instrs` checks the per-instruction energy vector length.
    Report {
        outputs: Vec<Vec<u64>>,
        cycles: Vec<u64>,
        instrs: usize,
    },
    /// `store_program` ack carrying the expected bindable write count.
    Stored {
        writes: u64,
    },
    /// The session account at end of stream: this many requests, no
    /// errors.
    Stats {
        requests: u64,
    },
}

fn check(expect: &Expect, body: &ResponseBody) -> bool {
    match (expect, body) {
        (Expect::Scalar(n), ResponseBody::Scalar(got)) => n == got,
        (Expect::Words(ws), ResponseBody::Words(got)) => ws == got,
        (
            Expect::Report {
                outputs,
                cycles,
                instrs,
            },
            ResponseBody::Program(r),
        ) => &r.outputs == outputs && &r.cycles == cycles && r.energy_fj.len() == *instrs,
        (Expect::Stored { writes }, ResponseBody::Stored(StoredMeta { writes: got, .. })) => {
            writes == got
        }
        (Expect::Stats { requests }, ResponseBody::Stats(s)) => {
            s.requests == *requests && s.errors == 0
        }
        _ => false,
    }
}

/// The deterministic request stream one client drives: mixed per-op
/// requests, whole `exec_program` pipelines, or stored-program replays.
fn build_stream(
    c: u64,
    requests: u64,
    programs: bool,
    stored: bool,
    stored_pids: &[u64],
) -> Vec<(RequestBody, Expect)> {
    let mut stream = Vec::with_capacity(requests as usize + 1);
    for r in 0..requests {
        let k = c * 7919 + r * 131;
        if stored {
            let variant = r % 4;
            let (prog, outputs) = program_request(k, variant);
            stream.push((
                RequestBody::RunStored {
                    target: StoredTarget::Pid(stored_pids[variant as usize]),
                    inputs: write_bindings(&prog),
                },
                Expect::Report {
                    outputs,
                    cycles: prog.instr_cycles(),
                    instrs: prog.instrs().len(),
                },
            ));
            continue;
        }
        if programs {
            let (prog, outputs) = program_request(k, r % 4);
            stream.push((
                RequestBody::ExecProgram {
                    instrs: prog.instrs().to_vec(),
                },
                Expect::Report {
                    outputs,
                    cycles: prog.instr_cycles(),
                    instrs: prog.instrs().len(),
                },
            ));
            continue;
        }
        let (body, expect) = match r % 5 {
            0 => {
                let x: Vec<u64> = (0..12).map(|i| (k + i * 3) % 256).collect();
                let w: Vec<u64> = (0..12).map(|i| (k + i * 5 + 1) % 256).collect();
                let dot: u64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
                (
                    RequestBody::Dot {
                        precision: Precision::P8,
                        x,
                        w,
                    },
                    Expect::Scalar(dot),
                )
            }
            1 => {
                let a: Vec<u64> = (0..16).map(|i| (k + i) % 256).collect();
                let b: Vec<u64> = (0..16).map(|i| (k * 3 + i) % 256).collect();
                let sum: Vec<u64> = a.iter().zip(&b).map(|(x, y)| (x + y) & 0xFF).collect();
                (
                    RequestBody::Lanes {
                        op: bpimc_core::LaneOp::Add,
                        precision: Precision::P8,
                        a,
                        b,
                    },
                    Expect::Words(sum),
                )
            }
            2 => {
                let a: Vec<u64> = (0..8).map(|i| (k + i) % 16).collect();
                let b: Vec<u64> = (0..8).map(|i| (k * 5 + i) % 16).collect();
                let prod: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
                (
                    RequestBody::Lanes {
                        op: bpimc_core::LaneOp::Mult,
                        precision: Precision::P4,
                        a,
                        b,
                    },
                    Expect::Words(prod),
                )
            }
            3 => {
                let a: Vec<u64> = (0..4).map(|i| (k * 251 + i) % 65536).collect();
                let b: Vec<u64> = (0..4).map(|i| (k * 509 + i) % 65536).collect();
                let diff: Vec<u64> = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| x.wrapping_sub(*y) & 0xFFFF)
                    .collect();
                (
                    RequestBody::Lanes {
                        op: bpimc_core::LaneOp::Sub,
                        precision: Precision::P16,
                        a,
                        b,
                    },
                    Expect::Words(diff),
                )
            }
            _ => {
                let a: Vec<u64> = (0..32).map(|i| (k + i * 3) % 4).collect();
                let b: Vec<u64> = (0..32).map(|i| (k * 7 + i) % 4).collect();
                let xor: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
                (
                    RequestBody::Lanes {
                        op: bpimc_core::LaneOp::Logic(LogicOp::Xor),
                        precision: Precision::P2,
                        a,
                        b,
                    },
                    Expect::Words(xor),
                )
            }
        };
        stream.push((body, expect));
    }
    // The session account must agree on totals at the end of the stream.
    let setup = if stored { stored_pids.len() as u64 } else { 0 };
    stream.push((
        RequestBody::Stats,
        Expect::Stats {
            requests: requests + setup,
        },
    ));
    stream
}

/// One client's deterministic request stream; returns (ok, failed)
/// response counts, where "failed" includes any mismatch.
fn drive_client(
    addr: SocketAddr,
    c: u64,
    requests: u64,
    programs: bool,
    stored: bool,
    window: usize,
) -> (u64, u64) {
    let mut pipe = match Client::connect(addr) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("client {c}: connect failed: {e}");
            return (0, requests);
        }
    };
    let mut ok = 0u64;
    let mut bad = 0u64;

    // Stored mode: store the four pipeline shapes once, synchronously.
    let mut stored_pids = Vec::new();
    if stored {
        for variant in 0..4u64 {
            let (shape, _) = program_request(0, variant);
            let writes = write_bindings(&shape).len() as u64;
            let body = RequestBody::StoreProgram {
                instrs: shape.instrs().to_vec(),
                name: None,
            };
            match pipe.call(body) {
                Ok(resp) if check(&Expect::Stored { writes }, &resp.body) => {
                    let ResponseBody::Stored(meta) = resp.body else {
                        unreachable!("checked above");
                    };
                    stored_pids.push(meta.pid);
                    ok += 1;
                }
                other => {
                    eprintln!("client {c}: store_program failed: {other:?}");
                    return (0, requests);
                }
            }
        }
    }

    let stream = build_stream(c, requests, programs, stored, &stored_pids);
    let mut pending: std::collections::VecDeque<(u64, &Expect, &'static str)> =
        std::collections::VecDeque::new();
    let verify = |pipe: &mut Client,
                  pending: &mut std::collections::VecDeque<(u64, &Expect, &'static str)>,
                  ok: &mut u64,
                  bad: &mut u64| {
        let (id, expect, name) = pending.pop_front().expect("pending request");
        match pipe.recv() {
            Ok(resp) if resp.id == id && check(expect, &resp.body) => *ok += 1,
            Ok(resp) => {
                *bad += 1;
                eprintln!("client {c}: {name} (id {id}) mismatch: {:?}", resp.body);
            }
            Err(e) => {
                *bad += 1;
                eprintln!("client {c}: {name} (id {id}) failed: {e}");
            }
        }
    };
    for (body, expect) in &stream {
        let name = match expect {
            Expect::Scalar(_) => "dot",
            Expect::Words(_) => "lanes",
            Expect::Report { .. } => {
                if stored {
                    "run_stored"
                } else {
                    "exec_program"
                }
            }
            Expect::Stored { .. } => "store_program",
            Expect::Stats { .. } => "stats",
        };
        while pending.len() >= window {
            verify(&mut pipe, &mut pending, &mut ok, &mut bad);
        }
        match pipe.send(body.clone()) {
            Ok(id) => pending.push_back((id, expect, name)),
            Err(e) => {
                bad += 1;
                eprintln!("client {c}: send failed: {e}");
            }
        }
    }
    while !pending.is_empty() {
        verify(&mut pipe, &mut pending, &mut ok, &mut bad);
    }
    (ok, bad)
}

/// One chaos client's run: a durable session driven synchronously
/// through the op mix against a faulting server. The client opens a
/// session up front and lets the [`RetryPolicy`] machinery survive
/// severed connections — reconnect, resume by token, resend the same
/// seq; the server's replay guard makes every resend exactly-once.
/// Injected-fault errors are counted and tolerated; a *wrong* value, a
/// lost session, or a final account that disagrees with a fault-free
/// replay of the executed ops is a failure. Returns
/// `(ok, bad, tolerated_faults, reconnects)`.
fn drive_chaos_client(
    addr: SocketAddr,
    replay_addr: SocketAddr,
    c: u64,
    requests: u64,
    retry: RetryPolicy,
    progress: &AtomicU64,
) -> (u64, u64, u64, u64) {
    let mut stream = build_stream(c, requests, false, false, &[]);
    // The trailing stats self-check is replaced below by the stronger
    // exact-replay assertion.
    stream.pop();
    let mut client = match Client::connect(addr) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("chaos client {c}: connect failed: {e}");
            progress.fetch_add(requests, Ordering::SeqCst);
            return (0, requests, 0, 0);
        }
    };
    client.set_retry_policy(Some(retry));
    let token = match client.open_session() {
        Ok(info) => info.token,
        Err(e) => {
            eprintln!("chaos client {c}: open_session failed: {e}");
            progress.fetch_add(requests, Ordering::SeqCst);
            return (0, requests, 0, 0);
        }
    };
    let (mut ok, mut bad, mut faults) = (0u64, 0u64, 0u64);
    let mut executed: Vec<RequestBody> = Vec::new();
    for (body, expect) in &stream {
        progress.fetch_add(1, Ordering::SeqCst);
        let outcome = match body.clone() {
            RequestBody::Dot { precision, x, w } => {
                client.dot(precision, &x, &w).map(ResponseBody::Scalar)
            }
            RequestBody::Lanes {
                op,
                precision,
                a,
                b,
            } => client.lanes(op, precision, &a, &b).map(ResponseBody::Words),
            other => unreachable!("chaos mix is dot/lanes only, got {other:?}"),
        };
        match outcome {
            Ok(got) if check(expect, &got) => {
                ok += 1;
                executed.push(body.clone());
            }
            Ok(got) => {
                bad += 1;
                eprintln!("chaos client {c}: wrong value: {got:?}");
            }
            Err(ClientError::Server(err)) if err.message.contains("panicked") => faults += 1,
            Err(e) => {
                bad += 1;
                eprintln!("chaos client {c}: op failed: {e}");
            }
        }
    }
    // Zero lost sessions: however many drops hit, this client must still
    // hold the token it opened (a failed resume clears it).
    if client.session_token() != Some(token.as_str()) {
        bad += 1;
        eprintln!("chaos client {c}: session lost across reconnects");
    }
    // Exact accounting across every drop and resend: the durable account
    // must show each op executed (and billed) exactly once — the counts
    // match the observed outcomes, and the cycle/energy totals are
    // byte-identical to replaying the successful ops through a pristine
    // fault-free server (the same execution path down to the ImcMacro,
    // summed in the same order).
    match client.stats() {
        Ok(stats) if stats.requests == ok + faults && stats.errors == faults => {
            match replay_account(replay_addr, &executed) {
                Ok(replay)
                    if replay.cycles == stats.cycles && replay.energy_fj == stats.energy_fj => {}
                Ok(replay) => {
                    bad += 1;
                    eprintln!(
                        "chaos client {c}: account diverged from fault-free replay: \
                         billed {} cycles / {} fJ, replay says {} / {}",
                        stats.cycles, stats.energy_fj, replay.cycles, replay.energy_fj
                    );
                }
                Err(e) => {
                    bad += 1;
                    eprintln!("chaos client {c}: replay failed: {e}");
                }
            }
        }
        Ok(stats) => {
            bad += 1;
            eprintln!(
                "chaos client {c}: account counts off: {} requests / {} errors billed, \
                 observed {} + {} faults",
                stats.requests,
                stats.errors,
                ok + faults,
                faults
            );
        }
        Err(e) => {
            bad += 1;
            eprintln!("chaos client {c}: final stats failed: {e}");
        }
    }
    (ok, bad, faults, client.reconnects())
}

/// Replays an executed op stream against a pristine fault-free server and
/// returns the resulting session account — the ground truth the chaos
/// session's billing must match byte-for-byte.
fn replay_account(addr: SocketAddr, ops: &[RequestBody]) -> Result<SessionActivity, ClientError> {
    let mut client = Client::connect(addr)?;
    for body in ops {
        match body.clone() {
            RequestBody::Dot { precision, x, w } => {
                client.dot(precision, &x, &w)?;
            }
            RequestBody::Lanes {
                op,
                precision,
                a,
                b,
            } => {
                client.lanes(op, precision, &a, &b)?;
            }
            other => unreachable!("chaos mix is dot/lanes only, got {other:?}"),
        }
    }
    client.stats()
}

/// The seeded chaos schedule `--chaos` serves under: every fault type in
/// the plan fires at a few percent.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        panic_per_mille: 30,
        delay_per_mille: 20,
        delay_ms: 2,
        stall_per_mille: 20,
        stall_ms: 2,
        drop_per_mille: 15,
    }
}

fn main() {
    let args = parse_args();
    if args.stored && args.programs {
        die("--stored already drives program pipelines; drop --programs");
    }
    if args.chaos && args.addr.is_some() {
        die("--chaos spawns its own in-process server; drop --addr");
    }
    if args.chaos && (args.stored || args.programs) {
        die("--chaos drives the plain idempotent op mix; drop --stored/--programs");
    }
    if args.restart && !args.chaos {
        die("--restart extends the chaos run; add --chaos");
    }
    if args.restart {
        run_restart(&args);
        return;
    }
    let spawned = match &args.addr {
        Some(_) => None,
        None => {
            let mut config = ServerConfig {
                faults: if args.chaos {
                    chaos_plan(args.chaos_seed)
                } else {
                    FaultPlan::none()
                },
                ..ServerConfig::default()
            };
            if let Some(m) = args.macros {
                config.macros = m;
                config.batch_max = (16 * m).max(64);
            }
            let handle = Server::bind("127.0.0.1:0", config.clone())
                .unwrap_or_else(|e| die(&format!("bind: {e}")));
            println!(
                "spawned in-process server on {} ({} macros{})",
                handle.local_addr(),
                config.macros,
                if args.chaos {
                    format!(", chaos seed {}", args.chaos_seed)
                } else {
                    String::new()
                }
            );
            Some(handle)
        }
    };
    let addr: SocketAddr = match (&args.addr, &spawned) {
        (Some(a), _) => a
            .parse()
            .unwrap_or_else(|e| die(&format!("bad --addr: {e}"))),
        (None, Some(h)) => h.local_addr(),
        (None, None) => unreachable!(),
    };
    if args.chaos {
        run_chaos(addr, &args, spawned.expect("--chaos always spawns"));
        return;
    }
    let t0 = Instant::now();
    let workers: Vec<_> = (0..args.clients)
        .map(|c| {
            let requests = args.requests;
            let programs = args.programs;
            let stored = args.stored;
            let window = args.pipeline;
            std::thread::spawn(move || drive_client(addr, c, requests, programs, stored, window))
        })
        .collect();
    let mut total_ok = 0u64;
    let mut total_bad = 0u64;
    for w in workers {
        let (ok, bad) = w.join().unwrap_or((0, 1));
        total_ok += ok;
        total_bad += bad;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    // Stats checks and stored-shape setup ride the stream but only the
    // `requests` workload counts toward the reported throughput.
    let total = args.clients * args.requests;
    let per_client_extra = 1 + if args.stored { 4 } else { 0 };
    let expected_responses = total + args.clients * per_client_extra;
    let rate = total as f64 / elapsed;
    println!(
        "{} clients x {} requests (window {}): {total} total in {elapsed:.3} s = {rate:.0} requests/sec",
        args.clients, args.requests, args.pipeline
    );
    if let Some(handle) = spawned {
        handle.shutdown();
        println!("server shut down cleanly");
    }
    if total_bad > 0 || total_ok != expected_responses {
        die(&format!(
            "{total_bad} dropped/incorrect responses out of {expected_responses}"
        ));
    }
    println!("all {expected_responses} responses correct, zero dropped");
    if let Some(min) = args.min_throughput {
        if rate < min {
            die(&format!(
                "throughput {rate:.0} requests/sec below the {min:.0} floor"
            ));
        }
        println!("throughput {rate:.0} requests/sec >= {min:.0} floor");
    }
}

/// The `--chaos` run: tolerant concurrent clients — each holding a
/// durable session that survives every injected connection drop — against
/// the seeded fault plan, then a clean drain. Every response must be
/// either correct or an injected fault, every session must survive to the
/// end, and every account must match a fault-free replay exactly.
fn run_chaos(addr: SocketAddr, args: &Args, handle: bpimc_server::ServerHandle) {
    // The accounting ground truth comes from a second, fault-free server:
    // the same executed ops replayed there must bill identical totals.
    let replay = Server::bind("127.0.0.1:0", ServerConfig::default())
        .unwrap_or_else(|e| die(&format!("replay bind: {e}")));
    let replay_addr = replay.local_addr();
    let retry = RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(100),
    };
    let t0 = Instant::now();
    let progress = Arc::new(AtomicU64::new(0));
    let workers = spawn_chaos_clients(addr, replay_addr, args, retry, &progress);
    let (ok, bad, faults, reconnects) = join_chaos_clients(workers);
    let elapsed = t0.elapsed().as_secs_f64();
    let total = args.clients * args.requests;
    println!(
        "chaos: {} clients x {} requests in {elapsed:.3} s — {ok} correct, \
         {faults} injected faults tolerated, {reconnects} reconnects survived by resumption",
        args.clients, args.requests
    );
    handle.shutdown();
    replay.shutdown();
    println!("server drained and shut down cleanly under chaos");
    if bad > 0 || ok + faults != total {
        die(&format!(
            "{bad} wrong/lost responses out of {total} under chaos"
        ));
    }
    println!(
        "all {total} chaos responses accounted for: zero wrong values, zero lost sessions, \
         every account byte-identical to its fault-free replay"
    );
}

fn spawn_chaos_clients(
    addr: SocketAddr,
    replay_addr: SocketAddr,
    args: &Args,
    retry: RetryPolicy,
    progress: &Arc<AtomicU64>,
) -> Vec<std::thread::JoinHandle<(u64, u64, u64, u64)>> {
    (0..args.clients)
        .map(|c| {
            let requests = args.requests;
            let progress = progress.clone();
            std::thread::spawn(move || {
                drive_chaos_client(addr, replay_addr, c, requests, retry, &progress)
            })
        })
        .collect()
}

fn join_chaos_clients(
    workers: Vec<std::thread::JoinHandle<(u64, u64, u64, u64)>>,
) -> (u64, u64, u64, u64) {
    let (mut ok, mut bad, mut faults, mut reconnects) = (0u64, 0u64, 0u64, 0u64);
    for w in workers {
        let (o, b, f, r) = w.join().unwrap_or((0, 1, 0, 0));
        ok += o;
        bad += b;
        faults += f;
        reconnects += r;
    }
    (ok, bad, faults, reconnects)
}

/// Locates the `repro` binary the `--restart` mode serves with: the
/// `REPRO_BIN` env var when set, else the sibling of this example in the
/// same cargo target profile directory.
fn repro_bin() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("REPRO_BIN") {
        return p.into();
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("current_exe: {e}")));
    // target/<profile>/examples/load_gen -> target/<profile>/repro
    let bin = exe
        .parent()
        .and_then(|p| p.parent())
        .map(|d| d.join(format!("repro{}", std::env::consts::EXE_SUFFIX)))
        .unwrap_or_else(|| die("cannot locate the repro binary next to this example"));
    if !bin.exists() {
        die(&format!(
            "{} not built; run `cargo build -p bpimc-bench --bin repro` first \
             (or point REPRO_BIN at it)",
            bin.display()
        ));
    }
    bin
}

/// One `repro serve` child process with durable state, its address parsed
/// from the serve banner. Stdout keeps draining on a thread so the child
/// can never block on a full pipe.
struct ServedProc {
    child: std::process::Child,
    addr: SocketAddr,
}

fn spawn_served(
    repro: &std::path::Path,
    addr: &str,
    state_dir: &std::path::Path,
    seed: u64,
) -> ServedProc {
    use std::io::BufRead as _;
    // The same fault mix `chaos_plan` injects in-process, so the restart
    // run is chaos *plus* a crash, not instead of one.
    let plan = chaos_plan(seed);
    let mut child = std::process::Command::new(repro)
        .args(["serve", "--addr", addr, "--fsync", "always", "--state-dir"])
        .arg(state_dir)
        .args([
            "--chaos-seed".into(),
            plan.seed.to_string(),
            "--chaos-panic-pm".into(),
            plan.panic_per_mille.to_string(),
            "--chaos-delay-pm".into(),
            plan.delay_per_mille.to_string(),
            "--chaos-delay-ms".into(),
            plan.delay_ms.to_string(),
            "--chaos-stall-pm".into(),
            plan.stall_per_mille.to_string(),
            "--chaos-stall-ms".into(),
            plan.stall_ms.to_string(),
            "--chaos-drop-pm".into(),
            plan.drop_per_mille.to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| die(&format!("spawning {}: {e}", repro.display())));
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut served = None;
    for line in lines.by_ref() {
        let line = line.unwrap_or_else(|e| die(&format!("reading serve banner: {e}")));
        // "serving on 127.0.0.1:PORT with N macros (...)"
        if let Some(rest) = line.strip_prefix("serving on ") {
            let addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
            served = Some(addr.unwrap_or_else(|| die(&format!("bad serve banner: {line}"))));
            break;
        }
    }
    let addr = served.unwrap_or_else(|| {
        let _ = child.kill();
        die("serve exited without printing its address")
    });
    std::thread::spawn(move || for _ in lines {});
    ServedProc { child, addr }
}

/// The `--chaos --restart` run: the served process is `SIGKILL`ed
/// mid-load and restarted on the same port against the same `--state-dir`,
/// and every `--chaos` invariant must hold across the crash — plus a
/// clean `repro state` verdict on the surviving state directory.
fn run_restart(args: &Args) {
    let repro = repro_bin();
    let state_dir = std::env::temp_dir().join(format!("bpimc-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir)
        .unwrap_or_else(|e| die(&format!("creating {}: {e}", state_dir.display())));
    let first = spawn_served(&repro, "127.0.0.1:0", &state_dir, args.chaos_seed);
    let addr = first.addr;
    println!(
        "spawned repro serve on {addr} (state dir {})",
        state_dir.display()
    );
    let replay = Server::bind("127.0.0.1:0", ServerConfig::default())
        .unwrap_or_else(|e| die(&format!("replay bind: {e}")));
    // Generous backoff: the clients must ride out the kill-to-recovery
    // window, not just a severed connection.
    let retry = RetryPolicy {
        max_attempts: 30,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(250),
    };
    let t0 = Instant::now();
    let progress = Arc::new(AtomicU64::new(0));
    let workers = spawn_chaos_clients(addr, replay.local_addr(), args, retry, &progress);
    // SIGKILL once roughly a third of the workload has executed — far
    // enough in for durable state to matter, early enough that the
    // recovered server serves real load.
    let total = args.clients * args.requests;
    while progress.load(Ordering::SeqCst) < total.div_ceil(3) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut child = first.child;
    child.kill().unwrap_or_else(|e| die(&format!("kill: {e}")));
    let _ = child.wait();
    println!(
        "SIGKILLed the serving process after {} of {total} ops; restarting on {addr}",
        progress.load(Ordering::SeqCst)
    );
    let second = spawn_served(&repro, &addr.to_string(), &state_dir, args.chaos_seed);
    assert_eq!(second.addr, addr, "the restart must reuse the port");
    let (ok, bad, faults, reconnects) = join_chaos_clients(workers);
    let elapsed = t0.elapsed().as_secs_f64();
    println!(
        "restart: {} clients x {} requests in {elapsed:.3} s — {ok} correct, \
         {faults} injected faults tolerated, {reconnects} reconnects survived",
        args.clients, args.requests
    );
    // Graceful shutdown over the wire, then the state dir must audit
    // clean (final snapshot + clean-shutdown marker).
    let mut closer =
        Client::connect(addr).unwrap_or_else(|e| die(&format!("shutdown connect: {e}")));
    closer
        .shutdown_server()
        .unwrap_or_else(|e| die(&format!("graceful shutdown: {e}")));
    let mut child = second.child;
    let status = child.wait().unwrap_or_else(|e| die(&format!("wait: {e}")));
    if !status.success() {
        die(&format!("restarted server exited with {status}"));
    }
    replay.shutdown();
    let audit = std::process::Command::new(&repro)
        .args(["state", "--state-dir"])
        .arg(&state_dir)
        .status()
        .unwrap_or_else(|e| die(&format!("repro state: {e}")));
    if !audit.success() {
        die("repro state found corruption after a kill -9 + restart run");
    }
    let _ = std::fs::remove_dir_all(&state_dir);
    if bad > 0 || ok + faults != total {
        die(&format!(
            "{bad} wrong/lost responses out of {total} across the kill -9 restart"
        ));
    }
    println!(
        "all {total} responses accounted for across kill -9 + restart: zero lost sessions, \
         every account byte-identical to its fault-free replay, state directory clean"
    );
}
