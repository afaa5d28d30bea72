//! Durable-session lifecycle over real TCP: token resumption restoring
//! the whole tenant state, TTL expiry and garbage collection, token
//! error kinds, single-active-connection enforcement, registry caps, the
//! named stored-program registry with run history, and the seq replay
//! guard's exactly-once billing.

use bpimc_core::prog::ProgramBuilder;
use bpimc_core::{
    ErrorKind, LimitKind, Precision, Program, Request, RequestBody, Response, ResponseBody,
    StoredTarget,
};
use bpimc_server::{Client, ClientError, RetryPolicy, Server, ServerConfig, ServerHandle};
use std::time::Duration;

fn start(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config).expect("bind ephemeral port")
}

/// A dot-style pipeline with two bindable writes (the canonical stored
/// shape from the integration suite).
fn dot_shape() -> Program {
    let p = Precision::P8;
    let mut b = ProgramBuilder::new();
    let x = b.write_mult(p, vec![0, 0, 0]);
    let w = b.write_mult(p, vec![0, 0, 0]);
    let prod = b.mult(x, w, p);
    b.read_products(prod, p, 3);
    b.finish()
}

fn server_err(result: Result<impl std::fmt::Debug, ClientError>) -> bpimc_core::ErrorBody {
    match result {
        Err(ClientError::Server(err)) => err,
        other => panic!("expected a server error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Resumption restores the whole tenant state
// ---------------------------------------------------------------------

#[test]
fn resume_restores_model_programs_account_and_seq() {
    let handle = start(ServerConfig::default());

    // Build up state on connection A: a durable session holding a loaded
    // model, a named stored program with run history, and an account.
    let mut a = Client::connect(handle.local_addr()).expect("connect A");
    let info = a.open_session().expect("open_session");
    assert_eq!(info.token.len(), 32, "tokens are 128-bit hex");
    let token = info.token.clone();

    let protos: Vec<Vec<u64>> = (0..3)
        .map(|p| (0..8).map(|i| (p * 50 + i * 11) % 256).collect())
        .collect();
    a.load_model(Precision::P8, &protos).expect("load_model");
    let sample: Vec<u64> = (0..8).map(|i| (i * 7 + 3) % 256).collect();
    let class_a = a.classify(&sample).expect("classify on A");

    let meta = a
        .store_program_named(&dot_shape(), "dots")
        .expect("store_program_named");
    let report_a = a
        .run_stored_named("dots", &[Some(vec![1, 2, 3]), Some(vec![4, 5, 6])])
        .expect("run_stored_named on A");
    assert_eq!(report_a.outputs, vec![vec![4, 10, 18]]);

    let before = a.stats().expect("stats before drop");
    assert!(before.cycles > 0 && before.requests > 0);

    // Sever the connection. The session detaches but survives.
    drop(a);

    // Connection B resumes by token and finds everything intact.
    let mut b = Client::connect(handle.local_addr()).expect("connect B");
    // A's reader may not have detached yet: retry the busy refusal.
    b.set_retry_policy(Some(RetryPolicy::default()));
    let resumed = b.resume_session(token.clone()).expect("resume_session");
    assert_eq!(resumed.token, token);
    // The account carried over byte-exact (+1 request: the `stats` call
    // itself was billed after its snapshot was taken).
    assert_eq!(resumed.stats.requests, before.requests + 1);
    assert_eq!(resumed.stats.errors, before.errors);
    assert_eq!(resumed.stats.cycles, before.cycles);
    assert_eq!(resumed.stats.energy_fj, before.energy_fj);
    // The idempotency sequence continues where A left off.
    assert!(resumed.last_seq.is_some(), "executed seqs are reported");

    // The model still classifies, identically.
    assert_eq!(b.classify(&sample).expect("classify on B"), class_a);

    // The named program still runs, and its history spans both
    // connections.
    let report_b = b
        .run_stored_named("dots", &[Some(vec![2, 2, 2]), Some(vec![3, 4, 5])])
        .expect("run_stored_named on B");
    assert_eq!(report_b.outputs, vec![vec![6, 8, 10]]);
    let entries = b.list_programs().expect("list_programs");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].pid, meta.pid);
    assert_eq!(entries[0].name.as_deref(), Some("dots"));
    assert_eq!(
        entries[0].runs, 2,
        "history counts runs from both connections"
    );
    assert_eq!(entries[0].total_cycles, 2 * meta.cycles);

    handle.shutdown();
}

// ---------------------------------------------------------------------
// Expiry, GC, and token error kinds
// ---------------------------------------------------------------------

#[test]
fn detached_session_expires_and_late_resume_answers_session_expired() {
    let handle = start(ServerConfig {
        session_ttl: Duration::from_millis(40),
        ..ServerConfig::default()
    });
    let mut a = Client::connect(handle.local_addr()).expect("connect A");
    let token = a.open_session().expect("open_session").token;
    drop(a);

    // Past the TTL the sweeper (waking every quarter-TTL, min 10ms)
    // collects the orphan; the late resume gets the structured answer.
    std::thread::sleep(Duration::from_millis(200));
    let mut b = Client::connect(handle.local_addr()).expect("connect B");
    let err = server_err(b.resume_session(token));
    assert_eq!(err.kind, ErrorKind::SessionExpired, "{err}");
    assert!(err.message.contains("TTL"), "{err}");
    assert!(
        b.session_token().is_none(),
        "a failed resume holds no token"
    );

    handle.shutdown();
}

#[test]
fn forged_token_answers_bad_token() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let err = server_err(client.resume_session("f".repeat(32)));
    assert_eq!(err.kind, ErrorKind::BadToken, "{err}");
    // The refused client still works as an ephemeral session.
    assert_eq!(
        client.dot(Precision::P8, &[1, 2], &[3, 4]).expect("dot"),
        11
    );
    handle.shutdown();
}

#[test]
fn second_concurrent_resume_of_a_live_token_is_refused() {
    let handle = start(ServerConfig::default());
    let mut a = Client::connect(handle.local_addr()).expect("connect A");
    let token = a.open_session().expect("open_session").token;

    // While A holds the session, B's resume is refused with a back-off
    // hint (generic, not a token error: the token is valid, just busy).
    let mut b = Client::connect(handle.local_addr()).expect("connect B");
    let resp = b
        .call(RequestBody::ResumeSession {
            token: token.clone(),
        })
        .expect("call");
    match resp.body {
        ResponseBody::Error(err) => {
            assert_eq!(err.kind, ErrorKind::Generic, "{err}");
            assert!(err.retry_after_ms.is_some(), "busy refusal hints a retry");
            assert!(err.message.contains("attached"), "{err}");
        }
        other => panic!("expected a busy refusal, got {other:?}"),
    }

    // A keeps working throughout; once A drops, B's retry attaches.
    assert_eq!(a.dot(Precision::P8, &[2], &[3]).expect("dot on A"), 6);
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        match b.resume_session(token.clone()) {
            Ok(info) => {
                assert_eq!(info.stats.requests, 1, "A's dot rode along");
                break;
            }
            Err(ClientError::Server(err)) if err.retry_after_ms.is_some() => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "A's detach must land: {err}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected resume failure: {e}"),
        }
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Registry caps
// ---------------------------------------------------------------------

#[test]
fn orphaned_sessions_hold_registry_slots_until_swept() {
    let handle = start(ServerConfig {
        session_ttl: Duration::from_millis(40),
        max_sessions: 1,
        ..ServerConfig::default()
    });

    let mut a = Client::connect(handle.local_addr()).expect("connect A");
    a.open_session().expect("first open fills the registry");

    // A second open is refused while the slot is held...
    let mut b = Client::connect(handle.local_addr()).expect("connect B");
    let err = server_err(b.open_session());
    assert_eq!(err.kind, ErrorKind::LimitExceeded, "{err}");
    assert_eq!(err.limit, Some(LimitKind::Sessions), "{err}");
    assert!(err.retry_after_ms.is_some(), "the TTL hints when to retry");

    // ...and still refused right after A drops: the orphan keeps its slot
    // under the TTL (that is the point of durability).
    drop(a);
    let err = server_err(b.open_session());
    assert_eq!(err.limit, Some(LimitKind::Sessions), "{err}");

    // Once the sweeper collects the orphan, the slot frees.
    std::thread::sleep(Duration::from_millis(200));
    b.open_session().expect("swept orphan freed its slot");
    handle.shutdown();
}

#[test]
fn registry_wide_program_cap_spans_sessions_and_frees_on_delete() {
    let handle = start(ServerConfig {
        max_registry_programs: 2,
        ..ServerConfig::default()
    });

    let mut a = Client::connect(handle.local_addr()).expect("connect A");
    a.open_session().expect("open A");
    a.store_program(&dot_shape()).expect("A stores #1");
    let kept = a.store_program(&dot_shape()).expect("A stores #2");

    // B's own session is empty, but the *global* cap counts A's programs.
    let mut b = Client::connect(handle.local_addr()).expect("connect B");
    b.open_session().expect("open B");
    let err = server_err(b.store_program(&dot_shape()));
    assert_eq!(err.kind, ErrorKind::LimitExceeded, "{err}");
    assert_eq!(err.limit, Some(LimitKind::RegistryPrograms), "{err}");

    // Deleting one of A's frees a registry-wide slot for B.
    a.delete_program(StoredTarget::Pid(kept.pid))
        .expect("delete frees the slot");
    b.store_program(&dot_shape())
        .expect("B stores after the delete");
    handle.shutdown();
}

// ---------------------------------------------------------------------
// The named program registry and its run history
// ---------------------------------------------------------------------

#[test]
fn named_programs_list_delete_and_run_history() {
    let handle = start(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let named = client
        .store_program_named(&dot_shape(), "dots")
        .expect("store named");
    let anon = client.store_program(&dot_shape()).expect("store anonymous");
    assert_ne!(named.pid, anon.pid);

    // A name collision is refused outright.
    let err = server_err(client.store_program_named(&dot_shape(), "dots"));
    assert!(err.message.contains("already exists"), "{err}");

    // Two clean runs, then a failing one (bad binding width).
    for k in 1..=2u64 {
        client
            .run_stored_named("dots", &[Some(vec![k, k, k]), Some(vec![1, 2, 3])])
            .expect("clean run");
    }
    let run_err = server_err(client.run_stored_named("dots", &[Some(vec![1]), None]));
    assert!(!run_err.message.is_empty());

    // The listing carries the full history, ordered by pid.
    let entries = client.list_programs().expect("list_programs");
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].pid, named.pid);
    assert_eq!(entries[0].name.as_deref(), Some("dots"));
    assert_eq!(entries[0].runs, 2);
    assert_eq!(entries[0].errors, 1);
    assert_eq!(entries[0].total_cycles, 2 * named.cycles);
    assert!(entries[0].total_energy_fj > 0.0);
    match &entries[0].last_status {
        Some(bpimc_core::RunStatus::Error { message }) => {
            assert_eq!(message, &run_err.message, "history records the error")
        }
        other => panic!("expected the failing run as last status, got {other:?}"),
    }
    assert_eq!(entries[1].pid, anon.pid);
    assert_eq!(entries[1].name, None);
    assert_eq!(entries[1].runs, 0);
    assert_eq!(entries[1].last_status, None);

    // Delete by name; the pid and name both stop resolving.
    client
        .delete_program(StoredTarget::Name("dots".into()))
        .expect("delete by name");
    let entries = client.list_programs().expect("list after delete");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].pid, anon.pid);
    let err = server_err(client.run_stored_named("dots", &[]));
    assert!(err.message.contains("no stored program"), "{err}");
    let err = server_err(client.delete_program(StoredTarget::Name("dots".into())));
    assert!(err.message.contains("no stored program"), "{err}");

    // The freed name is reusable.
    client
        .store_program_named(&dot_shape(), "dots")
        .expect("name freed by delete");
    handle.shutdown();
}

// ---------------------------------------------------------------------
// The seq replay guard: exactly-once over the wire
// ---------------------------------------------------------------------

/// Drives the wire protocol directly (the [`Client`] never reuses a seq,
/// which is exactly what this test must do).
struct RawConn {
    writer: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> RawConn {
        let stream = std::net::TcpStream::connect(addr).expect("raw connect");
        let reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        RawConn {
            writer: stream,
            reader,
        }
    }

    fn call(&mut self, id: u64, seq: Option<u64>, body: RequestBody) -> Response {
        use std::io::{BufRead, Write};
        let mut line = Request {
            id,
            seq,
            timeout_ms: None,
            body,
        }
        .to_json_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("write");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        let resp = Response::parse(&reply).expect("parse");
        assert_eq!(resp.id, id, "responses answer in order");
        resp
    }
}

#[test]
fn duplicate_seq_replays_the_recorded_response_and_bills_once() {
    let handle = start(ServerConfig::default());
    let mut conn = RawConn::connect(handle.local_addr());

    let resp = conn.call(1, None, RequestBody::OpenSession);
    let ResponseBody::Session(_) = resp.body else {
        panic!("expected session info, got {:?}", resp.body);
    };

    // Execute seq 0 once.
    let dot = RequestBody::Dot {
        precision: Precision::P8,
        x: vec![1, 2, 3],
        w: vec![4, 5, 6],
    };
    let first = conn.call(2, Some(0), dot);
    assert_eq!(first.body, ResponseBody::Scalar(32));

    // A resend of seq 0 — even with a *different* body, as a torn retry
    // might produce — answers the recorded response without executing.
    let other = RequestBody::Dot {
        precision: Precision::P8,
        x: vec![9, 9, 9],
        w: vec![9, 9, 9],
    };
    let replayed = conn.call(3, Some(0), other);
    assert_eq!(
        replayed.body,
        ResponseBody::Scalar(32),
        "the replay answers the recorded response, not a re-execution"
    );

    // The account billed the dot exactly once; the replay was free.
    let stats = conn.call(4, Some(1), RequestBody::Stats);
    match stats.body {
        ResponseBody::Stats(s) => {
            assert_eq!(s.requests, 1, "one dot executed, once");
            assert_eq!(s.errors, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    handle.shutdown();
}

/// Durability is opt-in per session, not per server: with a state dir
/// configured, connections that never call `open_session` leave no
/// trace on disk — no journal events, no snapshot entries — so an
/// all-ephemeral workload costs the persistence layer nothing and a
/// restart recovers an empty registry.
#[test]
fn ephemeral_sessions_leave_no_durable_trace() {
    use bpimc_server::StateConfig;

    let dir = std::env::temp_dir().join(format!("bpimc-ephemeral-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");

    let handle = start(ServerConfig {
        state: Some(StateConfig::new(dir.clone())),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for _ in 0..4 {
        let dot = client
            .dot(Precision::P8, &[1, 2, 3], &[4, 5, 6])
            .expect("dot");
        assert_eq!(dot, 32);
    }
    let prog = dot_shape();
    client.store_program(&prog).expect("store on ephemeral");
    drop(client);
    handle.shutdown();

    let report = bpimc_server::inspect(&dir).expect("inspect");
    assert!(!report.corrupt());
    assert!(report.warm, "clean shutdown with nothing to replay");
    assert!(
        report.sessions.is_empty(),
        "ephemeral work must not be persisted: {:?}",
        report.sessions
    );
    assert!(
        report.journals.iter().all(|j| j.records == 0),
        "no journal events for ephemeral traffic: {:?}",
        report.journals
    );
    let _ = std::fs::remove_dir_all(&dir);
}
