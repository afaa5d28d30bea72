//! Guardrail and chaos tests: per-session limits, deadlines, admission
//! control with hysteresis, and the seeded deterministic fault plan —
//! all asserted with the same exact-accounting ground truth the
//! integration suite uses (direct `ImcMacro` replay).

use bpimc_core::{ImcMacro, MacroConfig, Precision, SessionActivity};
use bpimc_metrics::paper_calibrated_params;
use bpimc_nn::imc_dot;
use bpimc_server::{
    Client, ClientError, FaultPlan, RetryPolicy, Server, ServerConfig, ServerHandle, SessionLimits,
};
use std::time::{Duration, Instant};

fn start(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config).expect("bind ephemeral port")
}

/// The exact cycles/energy one `dot(P8, x, w)` bills, measured on a
/// private macro exactly the way the server measures it.
fn dot_cost(x: &[u64], w: &[u64]) -> (u64, f64) {
    let mut mac = ImcMacro::new(MacroConfig::paper_macro());
    let params = paper_calibrated_params();
    mac.clear_activity();
    imc_dot(&mut mac, Precision::P8, x, w);
    let cycles = mac.activity().total_cycles();
    let energy = params.log_energy_fj(mac.activity());
    (cycles, energy)
}

// ---------------------------------------------------------------------
// Per-limit `limit_exceeded` errors
// ---------------------------------------------------------------------

#[test]
fn cycle_budget_trips_names_itself_and_refills() {
    let (cost, _) = dot_cost(&[1, 2, 3], &[4, 5, 6]);
    assert!(cost > 1);
    // Admission is check-then-overshoot: a request is admitted while the
    // window's spend is under budget, and its full cost is billed even
    // when that overshoots. A budget below one dot's cost admits the
    // first dot (empty window) and refuses the second.
    let handle = start(ServerConfig {
        limits: SessionLimits {
            max_cycles_per_sec: Some(cost / 2),
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    assert_eq!(
        client
            .dot(Precision::P8, &[1, 2, 3], &[4, 5, 6])
            .expect("first dot"),
        4 + 10 + 18
    );
    match client.dot(Precision::P8, &[1, 2, 3], &[4, 5, 6]) {
        Err(e @ ClientError::Server(_)) => {
            assert!(e.is_limit_exceeded(), "{e}");
            let ClientError::Server(body) = &e else {
                unreachable!()
            };
            assert_eq!(body.limit, Some(bpimc_core::LimitKind::CycleRate));
            assert!(
                e.retry_after().is_some_and(|d| d <= Duration::from_secs(1)),
                "retry-after hint within the window"
            );
            assert!(body.message.contains("cycle budget"), "{body}");
        }
        other => panic!("expected limit_exceeded, got {other:?}"),
    }
    // The refusal is billed as an error, not as cycles (`requests`
    // counts errored requests too).
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.cycles, cost);

    // The next window refills the budget.
    std::thread::sleep(Duration::from_millis(1100));
    assert_eq!(
        client
            .dot(Precision::P8, &[1, 2, 3], &[4, 5, 6])
            .expect("refilled"),
        32
    );
    handle.shutdown();
}

#[test]
fn energy_budget_trips_independently_of_cycles() {
    let (_, energy) = dot_cost(&[9, 9], &[9, 9]);
    assert!(energy > 0.0);
    let handle = start(ServerConfig {
        limits: SessionLimits {
            max_energy_fj_per_sec: Some(energy * 0.5),
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client
        .dot(Precision::P8, &[9, 9], &[9, 9])
        .expect("first dot");
    match client.dot(Precision::P8, &[9, 9], &[9, 9]) {
        Err(ClientError::Server(body)) => {
            assert_eq!(body.kind, bpimc_core::ErrorKind::LimitExceeded);
            assert_eq!(body.limit, Some(bpimc_core::LimitKind::EnergyRate));
            assert!(body.message.contains("energy budget"), "{body}");
        }
        other => panic!("expected limit_exceeded, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn program_length_limit_applies_to_exec_and_store() {
    use bpimc_core::prog::ProgramBuilder;

    let handle = start(ServerConfig {
        limits: SessionLimits {
            max_program_instrs: Some(8),
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let make = |pairs: usize| {
        let mut b = ProgramBuilder::new();
        for _ in 0..pairs {
            let x = b.write(Precision::P8, vec![1]);
            b.read(x, Precision::P8, 1);
        }
        b.finish()
    };
    let small = make(3); // 6 instructions: fits
    let big = make(6); // 12 instructions: over the cap
    assert!(small.instrs().len() <= 8 && big.instrs().len() > 8);

    client.exec_program(&small).expect("under the cap");
    for result in [
        client.exec_program(&big).map(|_| ()),
        client.store_program(&big).map(|_| ()),
    ] {
        match result {
            Err(ClientError::Server(body)) => {
                assert_eq!(body.kind, bpimc_core::ErrorKind::LimitExceeded);
                assert_eq!(body.limit, Some(bpimc_core::LimitKind::ProgramLength));
                assert!(body.message.contains("12 instructions"), "{body}");
            }
            other => panic!("expected program_length limit, got {other:?}"),
        }
    }
    // A small program still stores and the session survives.
    client.store_program(&small).expect("store under the cap");
    handle.shutdown();
}

#[test]
fn inflight_cap_sheds_excess_pipelined_requests_in_order() {
    use bpimc_core::{RequestBody, ResponseBody};

    // Delay every compute request so a pipelining client can overrun its
    // in-flight cap before the dispatcher drains anything.
    let handle = start(ServerConfig {
        batch_max: 1,
        faults: FaultPlan {
            seed: 1,
            delay_per_mille: 1000,
            delay_ms: 60,
            ..FaultPlan::default()
        },
        limits: SessionLimits {
            max_inflight: Some(3),
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let total = 10u64;
    let mut ids = Vec::new();
    for i in 0..total {
        let id = client
            .send(RequestBody::Dot {
                precision: Precision::P8,
                x: vec![i, 1],
                w: vec![2, 3],
            })
            .expect("send");
        ids.push(id);
    }
    let mut rejected = 0u64;
    for (i, id) in ids.iter().enumerate() {
        let resp = client.recv().expect("recv");
        // Responses arrive strictly in request order, refusals included.
        assert_eq!(resp.id, *id);
        match resp.body {
            ResponseBody::Scalar(v) => assert_eq!(v, (i as u64) * 2 + 3),
            ResponseBody::Error(body) => {
                assert_eq!(body.kind, bpimc_core::ErrorKind::LimitExceeded);
                assert_eq!(body.limit, Some(bpimc_core::LimitKind::Inflight));
                rejected += 1;
            }
            other => panic!("unexpected body {other:?}"),
        }
    }
    assert!(
        rejected >= 1,
        "pipelining 10 delayed requests over a cap of 3 must shed some"
    );
    // The session keeps working at a polite pace afterwards.
    assert_eq!(client.dot(Precision::P8, &[5], &[5]).expect("dot"), 25);
    handle.shutdown();
}

#[test]
fn stored_program_cap_answers_structured_limit() {
    use bpimc_core::prog::ProgramBuilder;

    let handle = start(ServerConfig {
        limits: SessionLimits {
            max_stored_programs: 2,
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let make = |v: u64| {
        let mut b = ProgramBuilder::new();
        let x = b.write(Precision::P8, vec![v]);
        b.read(x, Precision::P8, 1);
        b.finish()
    };
    client.store_program(&make(1)).expect("store 1");
    client.store_program(&make(2)).expect("store 2");
    match client.store_program(&make(3)) {
        Err(ClientError::Server(body)) => {
            assert_eq!(body.kind, bpimc_core::ErrorKind::LimitExceeded);
            assert_eq!(body.limit, Some(bpimc_core::LimitKind::StoredPrograms));
            assert!(body.message.contains("2 per session"), "{body}");
        }
        other => panic!("expected stored_programs limit, got {other:?}"),
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

#[test]
fn deadline_expires_in_queue_and_mid_batch() {
    use bpimc_core::RequestBody;

    // One macro, one-request batches, and a 120 ms injected delay on
    // every compute request: a short-deadline request queued behind a
    // delayed one expires while waiting.
    let handle = start(ServerConfig {
        batch_max: 1,
        faults: FaultPlan {
            seed: 1,
            delay_per_mille: 1000,
            delay_ms: 120,
            ..FaultPlan::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // First request: no deadline, delayed 120 ms but correct.
    client
        .send(RequestBody::Dot {
            precision: Precision::P8,
            x: vec![2],
            w: vec![3],
        })
        .expect("send blocker");
    // Second request: 30 ms deadline, expires behind the blocker.
    client.set_timeout_ms(Some(30));
    client
        .send(RequestBody::Dot {
            precision: Precision::P8,
            x: vec![4],
            w: vec![5],
        })
        .expect("send doomed");
    client.set_timeout_ms(None);

    let first = client.recv().expect("blocker response");
    assert_eq!(first.body, bpimc_core::ResponseBody::Scalar(6));
    let doomed = client.recv().expect("doomed response");
    match doomed.body {
        bpimc_core::ResponseBody::Error(body) => {
            assert_eq!(body.kind, bpimc_core::ErrorKind::DeadlineExceeded);
            assert!(body.message.contains("expired"), "{body}");
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }

    // The expired request billed no cycles — only the blocker's work.
    let (blocker_cost, _) = dot_cost(&[2], &[3]);
    client.set_timeout_ms(None);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.cycles, blocker_cost, "expired request billed nothing");

    // A generous deadline sails through.
    client.set_timeout_ms(Some(5_000));
    assert_eq!(client.dot(Precision::P8, &[6], &[7]).expect("dot"), 42);
    handle.shutdown();
}

#[test]
fn deadline_expiring_mid_batch_abandons_before_executing() {
    use bpimc_core::RequestBody;

    // Large batch: the blocker and the doomed request drain in the SAME
    // compute run, so the doomed one passes the dispatcher's in-queue
    // check and expires at job start (the job-side re-check), while its
    // 120 ms-delayed sibling occupies the only macro.
    let handle = start(ServerConfig {
        batch_max: 64,
        faults: FaultPlan {
            seed: 1,
            delay_per_mille: 1000,
            delay_ms: 120,
            ..FaultPlan::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    client.set_timeout_ms(Some(40));
    let mut ids = Vec::new();
    for i in 0..4u64 {
        ids.push(
            client
                .send(RequestBody::Dot {
                    precision: Precision::P8,
                    x: vec![i],
                    w: vec![1],
                })
                .expect("send"),
        );
    }
    client.set_timeout_ms(None);
    let mut expired = 0;
    for id in ids {
        let resp = client.recv().expect("recv");
        assert_eq!(resp.id, id);
        if let bpimc_core::ResponseBody::Error(body) = resp.body {
            assert_eq!(body.kind, bpimc_core::ErrorKind::DeadlineExceeded);
            expired += 1;
        }
    }
    // Each delayed dot takes 120 ms on the single macro; with a 40 ms
    // deadline at least the tail of the run must expire (in queue or at
    // job start), and at most the head request can finish.
    assert!(
        expired >= 2,
        "only {expired} of 4 short-deadline requests expired"
    );
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Admission control (shed watermarks + hysteresis)
// ---------------------------------------------------------------------

#[test]
fn overload_sheds_with_hysteresis_and_recovers() {
    use std::io::Write;

    // Tiny queue shares and low watermarks so a single pipelining flood
    // crosses shed_high quickly; every compute request is delayed so the
    // backlog builds faster than it drains.
    let mut config = ServerConfig {
        batch_max: 1,
        faults: FaultPlan {
            seed: 3,
            delay_per_mille: 1000,
            delay_ms: 30,
            ..FaultPlan::default()
        },
        ..ServerConfig::default().with_queue_capacity(64)
    };
    config.shed_high = 8;
    config.shed_low = 2;
    let handle = start(config);
    let addr = handle.local_addr();

    // Flood: 40 pipelined dots on a raw socket (responses unread until
    // the end, so the queue really fills).
    let mut flood = std::net::TcpStream::connect(addr).expect("connect flood");
    for i in 0..40u64 {
        let line = format!("{{\"id\":{i},\"op\":\"dot\",\"precision\":8,\"x\":[1],\"w\":[{i}]}}\n");
        flood.write_all(line.as_bytes()).expect("write");
    }

    // While the backlog is over the watermark, a fresh client's compute
    // request is shed with a structured `overloaded` error…
    std::thread::sleep(Duration::from_millis(50));
    let mut probe = Client::connect(addr).expect("connect probe");
    let mut saw_shed = false;
    for _ in 0..20 {
        match probe.dot(Precision::P8, &[1], &[1]) {
            Err(e) if e.is_overloaded() => {
                assert!(
                    e.retry_after().is_some(),
                    "overloaded errors carry a retry-after hint"
                );
                saw_shed = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            Err(other) => panic!("unexpected error during overload: {other}"),
        }
    }
    assert!(saw_shed, "the probe never saw an `overloaded` shed");
    // …but control ops are always admitted: health checks survive.
    probe.ping().expect("ping during overload");

    // Drain the flood's responses; the backlog empties past shed_low.
    use std::io::{BufRead, BufReader};
    let mut reader = BufReader::new(flood.try_clone().expect("clone"));
    let mut reply = String::new();
    for _ in 0..40 {
        reply.clear();
        reader.read_line(&mut reply).expect("flood response");
    }

    // Recovered: compute requests are admitted again.
    let mut ok = false;
    for _ in 0..50 {
        match probe.dot(Precision::P8, &[2], &[21]) {
            Ok(v) => {
                assert_eq!(v, 42);
                ok = true;
                break;
            }
            Err(e) if e.is_overloaded() => std::thread::sleep(Duration::from_millis(10)),
            Err(other) => panic!("unexpected error during recovery: {other}"),
        }
    }
    assert!(ok, "the server never recovered from shedding");
    drop(flood);
    handle.shutdown();
}

#[test]
fn client_retry_policy_rides_out_overload() {
    use std::io::Write;

    let mut config = ServerConfig {
        batch_max: 1,
        faults: FaultPlan {
            seed: 5,
            delay_per_mille: 1000,
            delay_ms: 20,
            ..FaultPlan::default()
        },
        ..ServerConfig::default().with_queue_capacity(64)
    };
    config.shed_high = 6;
    config.shed_low = 2;
    let handle = start(config);
    let addr = handle.local_addr();

    let mut flood = std::net::TcpStream::connect(addr).expect("connect flood");
    for i in 0..30u64 {
        let line = format!("{{\"id\":{i},\"op\":\"dot\",\"precision\":8,\"x\":[1],\"w\":[1]}}\n");
        flood.write_all(line.as_bytes()).expect("write");
    }
    std::thread::sleep(Duration::from_millis(30));

    // With a retry policy the client absorbs `overloaded` sheds itself:
    // by the time the attempts are spent the flood has drained.
    let mut client = Client::connect(addr).expect("connect");
    client.set_retry_policy(Some(RetryPolicy {
        max_attempts: 40,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(100),
    }));
    assert_eq!(
        client.dot(Precision::P8, &[6], &[7]).expect("retried dot"),
        42
    );
    drop(flood);
    handle.shutdown();
}

#[test]
fn client_reconnects_and_retries_idempotent_ops_after_a_drop() {
    // A plan that drops the very first response on every connection
    // (drop_per_mille=1000 fires on every request; the client's retry
    // policy reconnects and tries again on the NEXT connection, which is
    // also dropped… so cap the chaos to conn ids the plan misses).
    // Simpler and fully deterministic: drop every response, and assert
    // the client survives to report a transport error on a non-idempotent
    // op but transparently retries an idempotent one against a second
    // server with no faults after a manual reconnect.
    //
    // Here we exercise the documented behaviour end to end with a
    // seed/schedule where only SOME requests drop: find a seed whose
    // conn 1 drops the first request but not the next few.
    let mut seed = 0u64;
    let plan = loop {
        let plan = FaultPlan {
            seed,
            drop_per_mille: 500,
            ..FaultPlan::default()
        };
        let drops_first = plan.response_fault(1, 0).is_some();
        let spares_soon = (1..6u64).any(|s| plan.response_fault(1, s).is_none());
        // Later connections (the reconnects) must eventually answer too.
        let conn2_clear = (0..4u64).any(|s| plan.response_fault(2, s).is_none());
        if drops_first && spares_soon && conn2_clear {
            break plan;
        }
        seed += 1;
        assert!(seed < 10_000, "no suitable chaos seed found");
    };

    let handle = start(ServerConfig {
        faults: plan,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.set_retry_policy(Some(RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
    }));
    // The first response is dropped (connection severed); the client
    // reconnects and replays — `dot` is idempotent, so this is safe and
    // must eventually succeed.
    assert_eq!(
        client
            .dot(Precision::P8, &[3, 3], &[4, 4])
            .expect("dot survives drops"),
        24
    );
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Chaos: the full fault plan under concurrent sessions
// ---------------------------------------------------------------------

/// Finds a seed whose plan leaves connections `clean` untouched for
/// `requests` requests while touching at least one of the others.
fn find_chaos_seed(base: FaultPlan, clean: &[u64], dirty: &[u64], requests: u64) -> FaultPlan {
    for seed in 0..50_000u64 {
        let plan = FaultPlan { seed, ..base };
        if clean.iter().all(|&c| !plan.touches_conn(c, requests))
            && dirty.iter().any(|&c| plan.touches_conn(c, requests))
        {
            return plan;
        }
    }
    panic!("no chaos seed separates clean from dirty connections");
}

#[test]
fn chaos_spares_unaffected_sessions_and_drains_cleanly() {
    // Six sessions: conns 1-4 must be untouched by the plan (clean
    // tenants), conns 5-6 take the fire. Connection ids are assigned in
    // accept order, so the clients connect sequentially.
    const REQUESTS: u64 = 30;
    // Rates low enough that a seed with four clean 32-request sessions
    // exists (~4% touch probability per request → each connection stays
    // clean with p≈0.24, all four with p≈3e-3 → a 50k-seed search finds
    // one), yet high enough that the dirty pair is reliably touched.
    let base = FaultPlan {
        seed: 0,
        panic_per_mille: 15,
        delay_per_mille: 10,
        delay_ms: 3,
        stall_per_mille: 10,
        stall_ms: 3,
        drop_per_mille: 8,
    };
    // Clean sessions send REQUESTS dots + 1 stats; pad the horizon so
    // the stats request is covered too.
    let plan = find_chaos_seed(base, &[1, 2, 3, 4], &[5, 6], REQUESTS + 2);

    let handle = start(ServerConfig {
        faults: plan,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // Sequential connects pin the conn ids: accept order is arrival
    // order because each `Client::connect` completes the TCP handshake
    // before the next begins.
    let mut clean: Vec<Client> = (0..4)
        .map(|_| Client::connect(addr).expect("connect clean"))
        .collect();
    let mut dirty: Vec<Client> = (0..2)
        .map(|_| Client::connect(addr).expect("connect dirty"))
        .collect();

    // Fire: all six sessions work concurrently.
    let workers: Vec<_> = clean
        .drain(..)
        .enumerate()
        .map(|(i, mut client)| {
            std::thread::spawn(move || {
                let mut expected = SessionActivity::new();
                let mut mac = ImcMacro::new(MacroConfig::paper_macro());
                let params = paper_calibrated_params();
                for r in 0..REQUESTS {
                    let x = [i as u64 + r, 7, r % 11];
                    let w = [3, r % 5, 9];
                    let got = client.dot(Precision::P8, &x, &w).expect("clean dot");
                    mac.clear_activity();
                    let want = imc_dot(&mut mac, Precision::P8, &x, &w);
                    expected.record_ok(
                        mac.activity().total_cycles(),
                        params.log_energy_fj(mac.activity()),
                    );
                    assert_eq!(got, want, "clean session {i} round {r}");
                }
                // Zero errors, and the account matches the direct
                // `ImcMacro` replay exactly — chaos elsewhere never
                // leaked into this tenant's results or billing.
                let stats = client.stats().expect("clean stats");
                assert_eq!(stats.errors, 0, "clean session {i}");
                assert_eq!(stats.requests, REQUESTS);
                assert_eq!(stats.cycles, expected.cycles, "clean session {i} cycles");
                assert!(
                    (stats.energy_fj - expected.energy_fj).abs()
                        < 1e-9 * expected.energy_fj.max(1.0),
                    "clean session {i} energy"
                );
            })
        })
        .collect();

    let chaos_workers: Vec<_> = dirty
        .drain(..)
        .enumerate()
        .map(|(i, mut client)| {
            std::thread::spawn(move || {
                // Dirty sessions ride the fire: panics answer as errors,
                // delays slow things down, stalls defer the write, drops
                // sever the connection (a transport error ends the run).
                for r in 0..REQUESTS {
                    match client.dot(Precision::P8, &[r, 1], &[2, 3]) {
                        Ok(v) => assert_eq!(v, r * 2 + 3, "dirty session {i} round {r}"),
                        Err(ClientError::Server(body)) => {
                            assert!(body.message.contains("panicked"), "{body}")
                        }
                        Err(ClientError::Io(_)) => return, // dropped: session over
                        Err(other) => panic!("dirty session {i}: {other}"),
                    }
                }
            })
        })
        .collect();

    for w in workers {
        w.join().expect("clean session thread");
    }
    for w in chaos_workers {
        w.join().expect("dirty session thread");
    }
    // Clean drain: shutdown joins every thread (a wedged writer or
    // reader would hang here and fail the test by timeout).
    handle.shutdown();
}

#[test]
fn writer_stalls_delay_but_never_corrupt_responses() {
    // Stall every response 25 ms: all writes divert through the writer
    // thread with an injected sleep, yet every response arrives, in
    // order, with correct values.
    let handle = start(ServerConfig {
        faults: FaultPlan {
            seed: 9,
            stall_per_mille: 1000,
            stall_ms: 25,
            ..FaultPlan::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for i in 0..8u64 {
        assert_eq!(
            client.dot(Precision::P8, &[i], &[3]).expect("stalled dot"),
            i * 3
        );
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.errors, 0);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Write-timeout configuration (satellite: the old hardcoded 5 s)
// ---------------------------------------------------------------------

#[test]
fn write_timeout_is_configurable_and_evicts_stuck_peers_fast() {
    use bpimc_core::RequestBody;
    use std::io::Write;

    // A short write timeout: a peer that stops reading while the server
    // fans out a large backlog is evicted in ~timeout, not the old
    // hardcoded 5 s.
    let handle = start(ServerConfig {
        write_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // The stuck peer pipelines big requests and never reads a byte.
    let mut stuck = std::net::TcpStream::connect(addr).expect("connect stuck");
    let big: Vec<u64> = (0..2000).map(|i| i % 256).collect();
    let body = serde_free_lanes_line(&big);
    let t0 = Instant::now();
    let mut write_failed = false;
    for _ in 0..3000 {
        if stuck.write_all(body.as_bytes()).is_err() {
            write_failed = true;
            break;
        }
        if t0.elapsed() > Duration::from_secs(10) {
            break;
        }
    }
    // Whether or not the OS buffered everything, a healthy client on the
    // same server is still served promptly the whole time.
    let mut healthy = Client::connect(addr).expect("connect healthy");
    let t1 = Instant::now();
    assert_eq!(healthy.dot(Precision::P8, &[2], &[3]).expect("dot"), 6);
    assert!(
        t1.elapsed() < Duration::from_secs(5),
        "healthy client waited {:?} behind a stuck peer",
        t1.elapsed()
    );
    let _ = write_failed; // informational: the kernel may absorb it all
    let _ = RequestBody::Ping; // keep the import used on all paths
    drop(stuck);
    handle.shutdown();
}

/// Builds one raw `add` request line with `n` lanes, no serde needed.
fn serde_free_lanes_line(values: &[u64]) -> String {
    let list = values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"id\":1,\"op\":\"add\",\"precision\":8,\"a\":[{list}],\"b\":[{list}]}}\n")
}

// ---------------------------------------------------------------------
// Durable-state robustness: foreign files and corrupt snapshots
// ---------------------------------------------------------------------

/// A state directory is shared infrastructure: recovery must ignore
/// files it does not own, and a corrupt newest snapshot must fall back
/// to the previous valid generation plus journal replay — never to an
/// empty registry, and never to trusting the clean marker (which names
/// the now-unreadable snapshot).
#[test]
fn corrupt_newest_snapshot_falls_back_to_prior_generation() {
    use bpimc_server::StateConfig;

    let dir = std::env::temp_dir().join(format!("bpimc-robust-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");

    let config = ServerConfig {
        state: Some(StateConfig::new(dir.clone())),
        ..ServerConfig::default()
    };
    let handle = start(config.clone());
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let token = client.open_session().expect("open_session").token;
    let dot = client
        .dot(Precision::P8, &[1, 2, 3], &[4, 5, 6])
        .expect("dot");
    assert_eq!(dot, 32);
    drop(client);
    // Graceful shutdown: final snapshot (gen 1) + clean marker, with the
    // boot-time snapshot (gen 0) and its event-bearing journal retained.
    handle.shutdown();

    // Operator droppings must be ignored, and the marker's snapshot is
    // unreadable — recovery has to walk back to gen 0 and replay.
    std::fs::write(dir.join("NOTES.txt"), b"not a state file").expect("drop foreign file");
    let snap = dir.join("snap-1.bpimc");
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, &bytes).expect("corrupt snapshot");

    let report = bpimc_server::inspect(&dir).expect("inspect");
    assert!(report.corrupt(), "the corrupt snapshot is reported");
    assert!(
        report.corruptions.iter().any(|(f, _)| f == "snap-1.bpimc"),
        "the report names the bad file: {:?}",
        report.corruptions
    );
    assert_eq!(
        report.chosen_snapshot,
        Some(0),
        "recovery walks back a generation"
    );
    assert!(
        !report.warm,
        "the marker names an unreadable snapshot; no warm path"
    );

    let handle = start(config);
    let mut client = Client::connect(handle.local_addr()).expect("reconnect");
    let info = client.resume_session(token).expect("resume after fallback");
    assert_eq!(
        info.stats.requests, 1,
        "the journaled dot survived the fallback"
    );
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
