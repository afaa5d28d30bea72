//! End-to-end tests: real TCP on an ephemeral port, concurrent clients,
//! results checked against direct `ImcMacro` execution, per-session
//! accounting, contained faults, backpressure and graceful shutdown.

use bpimc_core::{
    ImcMacro, LaneOp, LogicOp, MacroConfig, Precision, RequestBody, ResponseBody, SessionActivity,
};
use bpimc_metrics::paper_calibrated_params;
use bpimc_nn::{classify_quantized, imc_dot, prototype_norms};
use bpimc_server::{Client, ClientError, ComputeFault, FaultPlan, Server, ServerConfig};

/// Runs the same op a server job runs, on a private macro, with the same
/// per-request accounting (clear, run, measure) — the ground truth every
/// response is checked against.
struct Direct {
    mac: ImcMacro,
    expected: SessionActivity,
}

impl Direct {
    fn new() -> Self {
        Self {
            mac: ImcMacro::new(MacroConfig::paper_macro()),
            expected: SessionActivity::new(),
        }
    }

    fn bill(&mut self) {
        let params = paper_calibrated_params();
        self.expected.record_ok(
            self.mac.activity().total_cycles(),
            params.log_energy_fj(self.mac.activity()),
        );
        self.mac.clear_activity();
    }

    fn dot(&mut self, p: Precision, x: &[u64], w: &[u64]) -> u64 {
        self.mac.clear_activity();
        let out = imc_dot(&mut self.mac, p, x, w);
        self.bill();
        out
    }

    fn lanes(&mut self, op: LaneOp, p: Precision, a: &[u64], b: &[u64]) -> Vec<u64> {
        self.mac.clear_activity();
        let lanes = match op {
            LaneOp::Mult => p.product_lanes(self.mac.cols()),
            _ => p.lanes(self.mac.cols()),
        };
        let mut out = Vec::new();
        for (ac, bc) in a.chunks(lanes).zip(b.chunks(lanes)) {
            match op {
                LaneOp::Mult => {
                    self.mac.write_mult_operands(0, p, ac).unwrap();
                    self.mac.write_mult_operands(1, p, bc).unwrap();
                    self.mac.mult(0, 1, 2, p).unwrap();
                    out.extend(self.mac.read_products(2, p, ac.len()).unwrap());
                }
                LaneOp::Add | LaneOp::Sub | LaneOp::Logic(_) => {
                    self.mac.write_words(0, p, ac).unwrap();
                    self.mac.write_words(1, p, bc).unwrap();
                    match op {
                        LaneOp::Add => self.mac.add(0, 1, 2, p).unwrap(),
                        LaneOp::Sub => self.mac.sub(0, 1, 2, p).unwrap(),
                        LaneOp::Logic(l) => self.mac.logic(l, 0, 1, 2).unwrap(),
                        LaneOp::Mult => unreachable!(),
                    };
                    out.extend(self.mac.read_words(2, p, ac.len()).unwrap());
                }
            }
        }
        self.bill();
        out
    }

    fn load_model(&mut self, p: Precision, prototypes: &[Vec<u64>]) -> Vec<u64> {
        self.mac.clear_activity();
        let norms = prototype_norms(&mut self.mac, p, prototypes);
        self.bill();
        norms
    }

    fn classify(
        &mut self,
        p: Precision,
        prototypes: &[Vec<u64>],
        norms: &[u64],
        x: &[u64],
    ) -> usize {
        self.mac.clear_activity();
        let out = classify_quantized(&mut self.mac, p, prototypes, norms, x);
        self.bill();
        out
    }
}

fn start(config: ServerConfig) -> bpimc_server::ServerHandle {
    Server::bind("127.0.0.1:0", config).expect("bind ephemeral port")
}

#[test]
fn concurrent_clients_get_correct_results_and_accounting() {
    let handle = start(ServerConfig {
        macros: 4,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    let workers: Vec<_> = (0..8u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut direct = Direct::new();
                // A per-client deterministic mixed request stream.
                for round in 0..6u64 {
                    let k = c * 131 + round * 17;
                    let x: Vec<u64> = (0..10).map(|i| (k + i * 3) % 256).collect();
                    let w: Vec<u64> = (0..10).map(|i| (k + i * 7 + 1) % 256).collect();
                    assert_eq!(
                        client.dot(Precision::P8, &x, &w).expect("dot"),
                        direct.dot(Precision::P8, &x, &w)
                    );

                    let a: Vec<u64> = (0..20).map(|i| (k + i) % 16).collect();
                    let b: Vec<u64> = (0..20).map(|i| (k * 3 + i) % 16).collect();
                    for op in [
                        LaneOp::Add,
                        LaneOp::Sub,
                        LaneOp::Mult,
                        LaneOp::Logic(LogicOp::Xor),
                    ] {
                        assert_eq!(
                            client.lanes(op, Precision::P4, &a, &b).expect("lanes"),
                            direct.lanes(op, Precision::P4, &a, &b),
                            "client {c} round {round} {op:?}"
                        );
                    }

                    // Wider precisions exercise the reconfigurable datapath.
                    let a16: Vec<u64> = (0..4).map(|i| (k * 251 + i * 1000) % 65536).collect();
                    let b16: Vec<u64> = (0..4).map(|i| (k * 509 + i * 999) % 65536).collect();
                    assert_eq!(
                        client
                            .lanes(LaneOp::Mult, Precision::P16, &a16, &b16)
                            .expect("p16 mult"),
                        direct.lanes(LaneOp::Mult, Precision::P16, &a16, &b16)
                    );
                }

                // Per-session model: each client trains on its own data.
                let protos: Vec<Vec<u64>> = (0..3)
                    .map(|p| (0..8).map(|i| (c + p * 50 + i * 11) % 256).collect())
                    .collect();
                client.load_model(Precision::P8, &protos).expect("load");
                let norms = direct.load_model(Precision::P8, &protos);
                for s in 0..4u64 {
                    let x: Vec<u64> = (0..8).map(|i| (c * 31 + s * 13 + i * 5) % 256).collect();
                    assert_eq!(
                        client.classify(&x).expect("classify"),
                        direct.classify(Precision::P8, &protos, &norms, &x),
                        "client {c} sample {s}"
                    );
                }

                // The session account matches the direct per-request replay
                // exactly: same requests, same cycles, same energy.
                let stats = client.stats().expect("stats");
                assert_eq!(stats.requests, direct.expected.requests);
                assert_eq!(stats.errors, 0);
                assert_eq!(
                    stats.cycles, direct.expected.cycles,
                    "client {c} billed cycles"
                );
                assert!(
                    (stats.energy_fj - direct.expected.energy_fj).abs()
                        < 1e-9 * direct.expected.energy_fj.max(1.0),
                    "client {c} billed energy {} vs {}",
                    stats.energy_fj,
                    direct.expected.energy_fj
                );
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    handle.shutdown();
}

/// Asserts that a served account equals the direct replay's: counts and
/// cycles exactly, energy to rounding.
fn assert_account(got: &SessionActivity, want: &SessionActivity, what: &str) {
    assert_eq!(
        (got.requests, got.errors, got.cycles),
        (want.requests, want.errors, want.cycles),
        "{what}"
    );
    assert!(
        (got.energy_fj - want.energy_fj).abs() < 1e-9 * want.energy_fj.max(1.0),
        "{what}: energy {} vs {}",
        got.energy_fj,
        want.energy_fj
    );
}

#[test]
fn pipelined_responses_keep_request_order_across_control_ops() {
    // Two clients each send 32 requests before reading any response, so
    // the dispatcher drains runs of several compute requests from both
    // connections; the `ping`s and `stats` interleaved with them cut those
    // runs and answer inline between them.
    let handle = start(ServerConfig {
        macros: 2,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let workers: Vec<_> = (0..2u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut direct = Direct::new();
                let mut sent = Vec::new();
                for i in 0..32u64 {
                    let k = c * 97 + i * 13;
                    let a: Vec<u64> = (0..12).map(|j| (k + j * 5) % 256).collect();
                    let b: Vec<u64> = (0..12).map(|j| (k * 3 + j) % 256).collect();
                    // Three compute requests, then a control op.
                    let (body, want) = match i % 8 {
                        3 => {
                            direct.expected.record_ok(0, 0.0);
                            (RequestBody::Ping, ResponseBody::Pong)
                        }
                        7 => {
                            // Reports the account before itself.
                            let stats = direct.expected;
                            direct.expected.record_ok(0, 0.0);
                            (RequestBody::Stats, ResponseBody::Stats(stats))
                        }
                        0 | 4 => {
                            let p = Precision::P8;
                            let want = ResponseBody::Scalar(direct.dot(p, &a, &b));
                            (
                                RequestBody::Dot {
                                    precision: p,
                                    x: a,
                                    w: b,
                                },
                                want,
                            )
                        }
                        r => {
                            let op = [LaneOp::Add, LaneOp::Mult, LaneOp::Logic(LogicOp::Xor)]
                                [r as usize % 3];
                            let p = Precision::P4;
                            let (a, b): (Vec<u64>, Vec<u64>) =
                                a.iter().zip(&b).map(|(x, y)| (x % 16, y % 16)).unzip();
                            let want = ResponseBody::Words(direct.lanes(op, p, &a, &b));
                            let body = RequestBody::Lanes {
                                op,
                                precision: p,
                                a,
                                b,
                            };
                            (body, want)
                        }
                    };
                    sent.push((client.send(body).expect("send"), want));
                }
                for (i, (id, want)) in sent.into_iter().enumerate() {
                    let resp = client.recv().expect("recv");
                    assert_eq!(resp.id, id, "client {c}: response {i} out of order");
                    match (&resp.body, &want) {
                        (ResponseBody::Stats(got), ResponseBody::Stats(want)) => {
                            assert_account(got, want, &format!("client {c} request {i}"));
                        }
                        _ => assert_eq!(resp.body, want, "client {c} request {i}"),
                    }
                }
                let stats = client.stats().expect("stats");
                assert_account(&stats, &direct.expected, &format!("client {c} final"));
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    handle.shutdown();
}

#[test]
fn injected_panic_fails_only_its_own_request() {
    // A seeded fault plan panics a predictable set of one connection's
    // compute requests (`FaultPlan::compute_fault` is a pure function of
    // (seed, conn, seq)) while leaving three sibling connections clean.
    // Connection ids follow accept order from 1, so the chaos client
    // connects first, then the siblings, one at a time.
    const ROUNDS: u64 = 40;
    const CHAOS: u64 = 1;
    const SIBLINGS: [u64; 3] = [2, 3, 4];
    let panics_on = |plan: &FaultPlan, conn: u64| -> Vec<u64> {
        (0..ROUNDS)
            .filter(|&seq| plan.compute_fault(conn, seq) == Some(ComputeFault::Panic))
            .collect()
    };
    let plan = (0..50_000u64)
        .map(|seed| FaultPlan {
            seed,
            panic_per_mille: 30,
            ..FaultPlan::default()
        })
        .find(|plan| {
            let faulted = panics_on(plan, CHAOS);
            // Several faults, at least one followed by a clean request on
            // the same connection, and no fault on any sibling.
            faulted.len() >= 3
                && faulted
                    .iter()
                    .any(|s| s + 1 < ROUNDS && !faulted.contains(&(s + 1)))
                && SIBLINGS.iter().all(|&c| panics_on(plan, c).is_empty())
        })
        .expect("a seed that faults only the chaos connection");
    let faulted = panics_on(&plan, CHAOS);

    let handle = start(ServerConfig {
        macros: 2,
        faults: plan,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let mut chaos = Client::connect(addr).expect("connect");
    let siblings: Vec<Client> = SIBLINGS
        .iter()
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();

    // Sibling clients hammer the bank while the chaos client takes faults.
    let victims: Vec<_> = siblings
        .into_iter()
        .enumerate()
        .map(|(c, mut client)| {
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let x = [c as u64 + round, 2, 3];
                    let w = [5, 6, 7];
                    let expect: u64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
                    assert_eq!(client.dot(Precision::P8, &x, &w).expect("dot"), expect);
                }
                let stats = client.stats().expect("stats");
                assert_eq!(stats.errors, 0, "sibling {c} took no faults");
                assert_eq!(stats.requests, ROUNDS);
            })
        })
        .collect();

    for seq in 0..ROUNDS {
        let got = chaos.dot(Precision::P8, &[seq, 9], &[9, 1]);
        if faulted.contains(&seq) {
            match got {
                Err(ClientError::Server(msg)) => {
                    assert!(msg.message.contains("panicked"), "{msg}");
                    assert!(msg.message.contains("injected chaos fault"), "{msg}");
                }
                other => panic!("seq {seq}: expected a contained server error, got {other:?}"),
            }
        } else {
            // The same connection keeps working around each fault.
            assert_eq!(got.expect("unfaulted dot"), seq * 9 + 9, "seq {seq}");
        }
    }
    let stats = chaos.stats().expect("stats");
    assert_eq!(stats.errors, faulted.len() as u64);
    assert_eq!(stats.requests, ROUNDS);

    for v in victims {
        v.join().expect("sibling clients unaffected");
    }
    handle.shutdown();
}

#[test]
fn tiny_queue_applies_backpressure_without_dropping() {
    // Capacity 2 with a single-request batch cap: the readers must block
    // and every pipelined request must still be answered, in order.
    let handle = start(ServerConfig {
        macros: 1,
        batch_max: 1,
        ..ServerConfig::default().with_queue_capacity(2)
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for i in 0..200u64 {
        let got = client
            .lanes(LaneOp::Add, Precision::P8, &[i % 200, 7], &[1, i % 100])
            .expect("add");
        assert_eq!(got, vec![(i % 200) + 1, 7 + (i % 100)]);
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 200);
    assert_eq!(stats.errors, 0);
    handle.shutdown();
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};

    let handle = start(ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    for (line, expect_in_error) in [
        ("this is not json\n", "malformed"),
        ("{\"id\":77,\"op\":\"frobnicate\"}\n", "unknown op"),
        // The retired panic-injection op is just another unknown op (its
        // name is split so a search for it finds no live code).
        (
            concat!("{\"id\":79,\"op\":\"inject", "_panic\"}\n"),
            "unknown op",
        ),
        (
            "{\"id\":78,\"op\":\"add\",\"precision\":9,\"a\":[1],\"b\":[2]}\n",
            "precision",
        ),
    ] {
        stream.write_all(line.as_bytes()).expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        let resp = bpimc_core::Response::parse(&reply).expect("parseable response");
        match resp.body {
            bpimc_core::ResponseBody::Error(msg) => {
                assert!(msg.message.contains(expect_in_error), "{line:?} -> {msg}")
            }
            other => panic!("expected an error for {line:?}, got {other:?}"),
        }
    }

    // A valid request on the same connection still succeeds.
    stream
        .write_all(b"{\"id\":99,\"op\":\"ping\"}\n")
        .expect("write");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    let resp = bpimc_core::Response::parse(&reply).expect("parseable");
    assert_eq!(resp.id, 99);
    assert_eq!(resp.body, bpimc_core::ResponseBody::Pong);
    drop(stream);
    handle.shutdown();
}

#[test]
fn oversized_lines_are_discarded_not_buffered() {
    use std::io::{BufRead, BufReader, Write};

    let handle = start(ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Stream well past the 4 MiB line cap without a newline, then finish
    // the line: the server must answer with an error (not OOM) and keep
    // the connection usable.
    let chunk = vec![b'1'; 1 << 20];
    for _ in 0..5 {
        stream.write_all(&chunk).expect("write");
    }
    stream.write_all(b"\n").expect("write");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    match bpimc_core::Response::parse(&reply).expect("parseable").body {
        bpimc_core::ResponseBody::Error(msg) => assert!(msg.message.contains("exceeds"), "{msg}"),
        other => panic!("expected an error, got {other:?}"),
    }

    stream
        .write_all(b"{\"id\":5,\"op\":\"ping\"}\n")
        .expect("write");
    reply.clear();
    reader.read_line(&mut reply).expect("read");
    let resp = bpimc_core::Response::parse(&reply).expect("parseable");
    assert_eq!(resp.id, 5);
    assert_eq!(resp.body, bpimc_core::ResponseBody::Pong);
    drop(stream);
    handle.shutdown();
}

#[test]
fn exec_program_round_trips_with_per_instruction_accounting() {
    use bpimc_core::prog::ProgramBuilder;

    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // A 9-instruction pipeline exercising fusion (add+shl), two-cycle sub
    // and the multi-cycle mult path in one round trip.
    let p = Precision::P8;
    let mut b = ProgramBuilder::new();
    let x = b.write(p, vec![17, 80, 255]);
    let y = b.write(p, vec![5, 40, 1]);
    let s = b.add(x, y, p);
    let d = b.shl(s, p); // fuses into add_shift
    b.read(d, p, 3);
    let e = b.sub(x, y, p);
    b.read(e, p, 3);
    let mx = b.write_mult(p, vec![12, 34]);
    let my = b.write_mult(p, vec![56, 78]);
    let prod = b.mult(mx, my, p);
    b.read_products(prod, p, 2);
    let prog = b.finish();
    assert!(prog.instrs().len() >= 4);

    let report = client.exec_program(&prog).expect("exec_program");

    // Ground truth: replay the same program directly on a private macro
    // with the same per-request accounting the server applies.
    let mut mac = ImcMacro::new(MacroConfig::paper_macro());
    let run = prog.run(&mut mac).expect("direct replay");
    let params = paper_calibrated_params();

    assert_eq!(report.outputs, run.outputs);
    assert_eq!(report.outputs[0], vec![44, 240, 0]); // (x+y)<<1 wrapping
    assert_eq!(report.outputs[1], vec![12, 40, 254]);
    assert_eq!(report.outputs[2], vec![12 * 56, 34 * 78]);
    assert_eq!(report.cycles, run.instr_cycles);
    // The fused shl bills 0; the whole pipeline costs what the direct
    // replay logged.
    assert_eq!(report.cycles[3], 0);
    assert_eq!(report.total_cycles(), mac.activity().total_cycles());
    // Per-instruction energy matches the direct replay's log spans
    // exactly (floats round-trip the wire bit for bit).
    let direct_energy: Vec<f64> = run
        .instr_spans
        .iter()
        .map(|span| params.cycles_energy_fj(&mac.activity().cycles()[span.clone()]))
        .collect();
    assert_eq!(report.energy_fj, direct_energy);

    // The session is billed exactly the program's hardware work.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.cycles, report.total_cycles());
    assert!((stats.energy_fj - report.total_energy_fj()).abs() < 1e-9);

    // An invalid program (use-before-def) is a clean server error that
    // does not poison the session.
    let bad = bpimc_core::Program::new(vec![bpimc_core::Instr::Read {
        src: bpimc_core::Reg(3),
        precision: p,
        n: 1,
    }]);
    match client.exec_program(&bad) {
        Err(ClientError::Server(msg)) => assert!(msg.message.contains("before any write"), "{msg}"),
        other => panic!("expected a validation error, got {other:?}"),
    }
    client.ping().expect("session still alive");
    handle.shutdown();
}

#[test]
fn lines_without_a_readable_id_are_answered_with_id_zero() {
    use std::io::{BufRead, BufReader, Write};

    let handle = start(ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // No id at all, and an id of the wrong type: both get a parse-error
    // response carrying the documented sentinel id 0.
    for line in [
        "{\"op\":\"ping\"}\n",
        "{\"id\":\"seven\",\"op\":\"ping\"}\n",
    ] {
        stream.write_all(line.as_bytes()).expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        let resp = bpimc_core::Response::parse(&reply).expect("parseable");
        assert_eq!(resp.id, 0, "{line:?} -> {reply}");
        assert!(
            matches!(resp.body, bpimc_core::ResponseBody::Error(_)),
            "{reply}"
        );
    }
    drop(stream);
    handle.shutdown();
}

#[test]
fn stored_programs_run_many_with_rebound_inputs() {
    use bpimc_core::prog::ProgramBuilder;

    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Store once: a dot-style pipeline with two bindable writes.
    let p = Precision::P8;
    let mut b = ProgramBuilder::new();
    let x = b.write_mult(p, vec![0, 0, 0]);
    let w = b.write_mult(p, vec![0, 0, 0]);
    let prod = b.mult(x, w, p);
    b.read_products(prod, p, 3);
    let prog = b.finish();
    let meta = client.store_program(&prog).expect("store");
    assert_eq!(meta.writes, 2);
    assert_eq!(meta.cycles, prog.cycles());

    // Run many: fresh inputs each time, host-verified, each run billed the
    // same static cycle cost.
    let mut direct = Direct::new();
    for k in 0..6u64 {
        let xs = vec![k + 1, 2 * k, (k * k) % 256];
        let ws = vec![9, k + 3, 250 - k];
        let report = client
            .run_stored(meta.pid, &[Some(xs.clone()), Some(ws.clone())])
            .expect("run_stored");
        let want: Vec<u64> = xs.iter().zip(&ws).map(|(a, b)| a * b).collect();
        assert_eq!(report.outputs, vec![want]);
        assert_eq!(report.total_cycles(), meta.cycles);
        // Ground truth energy/cycles: replay directly.
        direct.mac.clear_activity();
        direct.mac.write_mult_operands(0, p, &xs).unwrap();
        direct.mac.write_mult_operands(1, p, &ws).unwrap();
        direct.mac.mult(0, 1, 2, p).unwrap();
        direct.mac.read_products(2, p, 3).unwrap();
        assert_eq!(
            report.total_cycles(),
            direct.mac.activity().total_cycles(),
            "rebound run costs exactly the direct replay"
        );
    }
    // Partial binding: None keeps the stored values (zeros here).
    let report = client
        .run_stored(meta.pid, &[Some(vec![5, 5, 5]), None])
        .expect("run_stored partial");
    assert_eq!(report.outputs, vec![vec![0, 0, 0]]);
    // No binding at all: runs exactly as stored.
    let report = client.run_stored(meta.pid, &[]).expect("run_stored stored");
    assert_eq!(report.outputs, vec![vec![0, 0, 0]]);

    // The session account billed: store (0 cycles) + 8 runs.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 9);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.cycles, 8 * meta.cycles);
    handle.shutdown();
}

#[test]
fn stored_program_misuse_gets_structured_errors() {
    use bpimc_core::prog::ProgramBuilder;

    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Cache miss: an id never stored.
    match client.run_stored(42, &[]) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.message.contains("no stored program 42"), "{msg}")
        }
        other => panic!("expected a miss error, got {other:?}"),
    }

    // A program that does not validate is rejected at store time.
    let bad = bpimc_core::Program::new(vec![bpimc_core::Instr::Read {
        src: bpimc_core::Reg(2),
        precision: Precision::P8,
        n: 1,
    }]);
    match client.store_program(&bad) {
        Err(ClientError::Server(msg)) => assert!(msg.message.contains("before any write"), "{msg}"),
        other => panic!("expected a validation error, got {other:?}"),
    }

    // Bad bindings: wrong count, wrong length, value too wide.
    let mut b = ProgramBuilder::new();
    let x = b.write(Precision::P8, vec![1, 2]);
    b.read(x, Precision::P8, 2);
    let meta = client.store_program(&b.finish()).expect("store");
    for (inputs, needle) in [
        (
            vec![Some(vec![1u64]), Some(vec![2u64])],
            "1 write instruction(s) but 2",
        ),
        (vec![Some(vec![1u64, 2, 3])], "has 3 values"),
        (vec![Some(vec![999u64, 0])], "does not fit 8 bits"),
    ] {
        match client.run_stored(meta.pid, &inputs) {
            Err(ClientError::Server(msg)) => assert!(msg.message.contains(needle), "{msg}"),
            other => panic!("expected a binding error, got {other:?}"),
        }
    }
    // The session (and the stored program) survive every rejection.
    let report = client.run_stored(meta.pid, &[]).expect("still stored");
    assert_eq!(report.outputs, vec![vec![1, 2]]);
    handle.shutdown();
}

#[test]
fn lint_and_diagnostics_flow_over_the_wire() {
    use bpimc_core::prog::ProgramBuilder;
    use bpimc_core::{ErrorKind, Instr, Program, Reg, Severity};

    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let p = Precision::P8;

    // A dead store: row 0 is overwritten before it is ever read.
    let dead = Program::new(vec![
        Instr::Write {
            dst: Reg(0),
            precision: p,
            values: vec![7],
        },
        Instr::Write {
            dst: Reg(0),
            precision: p,
            values: vec![9],
        },
        Instr::Read {
            src: Reg(0),
            precision: p,
            n: 1,
        },
    ]);
    let diags = client.lint_program(&dead).expect("lint");
    assert!(
        diags
            .iter()
            .any(|d| d.code == "L001" && d.severity == Severity::Warn && d.span == (0..1)),
        "expected a dead-store warning, got {diags:?}"
    );

    // The same diagnostics ride along on the store_program response.
    let meta = client.store_program(&dead).expect("store");
    assert_eq!(meta.diagnostics, diags);

    // A clean program lints empty, on both paths. (255 saturates the
    // P8 lane so the over-wide-precision perf note stays quiet.)
    let mut b = ProgramBuilder::new();
    let x = b.write(p, vec![1, 255]);
    b.read(x, p, 2);
    let clean = b.finish();
    assert!(client.lint_program(&clean).expect("lint clean").is_empty());
    let meta = client.store_program(&clean).expect("store clean");
    assert!(meta.diagnostics.is_empty());

    // Invalid programs get a structured error: the invalid_program kind
    // plus the stable code and offending instruction index.
    let bad = Program::new(vec![Instr::Read {
        src: Reg(2),
        precision: p,
        n: 1,
    }]);
    match client.store_program(&bad) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.kind, ErrorKind::InvalidProgram);
            assert_eq!(e.code.as_deref(), Some("E002"));
            assert_eq!(e.index, Some(0));
            assert!(e.message.contains("before any write"), "{e}");
        }
        other => panic!("expected an invalid_program error, got {other:?}"),
    }
    // lint_program reports the same failure as a diagnostic, not an error:
    // linting never rejects the request.
    let diags = client.lint_program(&bad).expect("lint invalid");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, "E002");
    assert_eq!(diags[0].severity, Severity::Error);
    handle.shutdown();
}

#[test]
fn stored_programs_are_isolated_and_die_with_their_session() {
    use bpimc_core::prog::ProgramBuilder;

    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();
    let mut a = Client::connect(addr).expect("connect a");
    let mut b_client = Client::connect(addr).expect("connect b");

    let mut b = ProgramBuilder::new();
    let x = b.write(Precision::P8, vec![7]);
    b.read(x, Precision::P8, 1);
    let prog = b.finish();
    let meta = a.store_program(&prog).expect("store in A");

    // Session B cannot run (or see) A's stored id.
    match b_client.run_stored(meta.pid, &[]) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.message.contains("no stored program"), "{msg}")
        }
        other => panic!("expected isolation, got {other:?}"),
    }
    // A still can.
    assert_eq!(
        a.run_stored(meta.pid, &[]).expect("run").outputs[0],
        vec![7]
    );

    // Eviction on session drop: reconnecting is a fresh session; the old
    // id is gone even though pids restart from the same counter.
    drop(a);
    let mut a2 = Client::connect(addr).expect("reconnect");
    match a2.run_stored(meta.pid, &[]) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.message.contains("no stored program"), "{msg}")
        }
        other => panic!("expected eviction, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn stored_program_cache_is_bounded_per_session() {
    use bpimc_core::prog::ProgramBuilder;

    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let make = |v: u64| {
        let mut b = ProgramBuilder::new();
        let x = b.write(Precision::P8, vec![v % 256]);
        b.read(x, Precision::P8, 1);
        b.finish()
    };
    let mut last = 0;
    for v in 0..64u64 {
        last = client.store_program(&make(v)).expect("store").pid;
    }
    match client.store_program(&make(64)) {
        Err(ClientError::Server(msg)) => assert!(msg.message.contains("limit"), "{msg}"),
        other => panic!("expected the cache bound, got {other:?}"),
    }
    // Everything stored before the bound still runs.
    assert_eq!(
        client.run_stored(last, &[]).expect("run").outputs[0],
        vec![63]
    );
    handle.shutdown();
}

#[test]
fn compiled_programs_reject_config_mismatch_at_run_time() {
    // The session-cache guarantee the server relies on: a stored
    // (compiled) program refuses to run against a macro whose
    // configuration differs from the one it was validated for, instead of
    // silently skipping the checks that made the compilation sound.
    use bpimc_core::prog::ProgramBuilder;
    use bpimc_core::MacroConfig;

    let mut b = ProgramBuilder::new();
    let x = b.write(Precision::P8, vec![1]);
    b.read(x, Precision::P8, 1);
    let prog = b.finish();
    let compiled = prog.compile(&MacroConfig::paper_macro()).expect("compile");
    let mut other = ImcMacro::new(MacroConfig::paper_macro().with_separator(false));
    assert!(matches!(
        compiled.run_with_inputs(&mut other, &[None]),
        Err(bpimc_core::ProgError::ConfigMismatch)
    ));
}

#[test]
fn flooding_client_cannot_starve_a_latency_sensitive_one() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // One macro, small batches: the dispatcher is the contended resource.
    let handle = start(ServerConfig {
        macros: 1,
        batch_max: 8,
        ..ServerConfig::default().with_queue_capacity(512)
    });
    let addr = handle.local_addr();

    // The flooder pipelines a deep backlog without reading responses
    // (raw socket writes), then keeps flooding until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let flooder = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            use std::io::Write;
            let mut stream = std::net::TcpStream::connect(addr).expect("connect flooder");
            let mut sent = 0u64;
            while !stop.load(Ordering::Relaxed) && sent < 20_000 {
                let line = format!(
                    "{{\"id\":{sent},\"op\":\"add\",\"precision\":8,\"a\":[1,2,3,4],\"b\":[5,6,7,8]}}\n"
                );
                if stream.write_all(line.as_bytes()).is_err() {
                    break;
                }
                sent += 1;
            }
            drop(stream);
        })
    };

    // Give the flood a head start so a backlog definitely exists.
    std::thread::sleep(std::time::Duration::from_millis(100));

    // The latency-sensitive client: every request must be answered without
    // waiting behind the flooder's whole backlog. The bound is generous —
    // the point is "seconds, not the full 20k-deep queue" — and leaves
    // room for one WRITE_TIMEOUT-bounded stall in case this host's socket
    // buffers are too small to absorb the flooder's unread responses
    // (after which the flooder is marked slow/wedged and dropped).
    let mut client = Client::connect(addr).expect("connect");
    let t0 = std::time::Instant::now();
    for i in 0..20u64 {
        let got = client
            .dot(Precision::P8, &[i, 2], &[3, 4])
            .expect("interactive dot");
        assert_eq!(got, i * 3 + 8);
    }
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    flooder.join().expect("flooder");
    assert!(
        elapsed < std::time::Duration::from_secs(15),
        "20 interactive requests took {elapsed:?} behind a flooding session"
    );
    handle.shutdown();
}

#[test]
fn client_initiated_shutdown_drains_and_joins() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    client.shutdown_server().expect("shutdown acknowledged");
    // join() returns only once every server thread has exited.
    handle.join();
    // New connections are refused (or reset immediately) afterwards.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "server must be gone"),
    }
}

#[test]
fn sessions_are_isolated() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();
    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");

    // Model in session A only; B must be told it has none.
    a.load_model(Precision::P4, &[vec![0, 0], vec![15, 15]])
        .expect("load");
    assert_eq!(a.classify(&[14, 15]).expect("classify"), 1);
    match b.classify(&[14, 15]) {
        Err(ClientError::Server(msg)) => assert!(msg.message.contains("no model"), "{msg}"),
        other => panic!("expected a missing-model error, got {other:?}"),
    }

    // Accounts are per-session: B's error does not appear in A's account.
    let sa = a.stats().expect("stats a");
    let sb = b.stats().expect("stats b");
    assert_eq!(sa.requests, 2);
    assert_eq!(sa.errors, 0);
    assert_eq!(sb.requests, 1);
    assert_eq!(sb.errors, 1);
    handle.shutdown();
}
