//! Crash-safe durable state, end to end over real TCP: journal-tail
//! replay after a simulated crash, warm restarts off a clean-shutdown
//! marker, a crash-point matrix (one crash image per mutating op, each
//! recovered and audited), torn-write and bit-flip corruption handling,
//! seq-retry replay across a restart, and TTL carry for sessions that
//! were already detached when the crash hit.
//!
//! Crashes are simulated by **copying the state directory mid-run**: with
//! `fsync always` every journaled byte is on disk the moment the client
//! holds the response, so a file-level copy of the directory is exactly
//! the state a `kill -9` at that instant would leave behind (the
//! subprocess variant of the same assertion lives in
//! `load_gen --chaos --restart`).

use bpimc_core::prog::ProgramBuilder;
use bpimc_core::{
    ErrorKind, Precision, Program, Request, RequestBody, Response, ResponseBody, SessionActivity,
    StoredTarget,
};
use bpimc_server::{
    inspect, Client, ClientError, RetryPolicy, Server, ServerConfig, ServerHandle, StateConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A state directory under the system temp dir that deletes itself when
/// dropped.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh, unique state directory under the system temp dir.
fn temp_state_dir(tag: &str) -> TempDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bpimc-recovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    TempDir(dir)
}

/// The crash image: a byte-level copy of the live state directory, i.e.
/// what a `kill -9` at this instant would leave on disk under
/// `fsync always`.
fn crash_image(live: &Path, tag: &str) -> TempDir {
    let dest = temp_state_dir(tag);
    for entry in std::fs::read_dir(live).expect("read state dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dest.join(entry.file_name())).expect("copy state file");
    }
    dest
}

fn persistent_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        state: Some(StateConfig::new(dir.to_path_buf())),
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config).expect("bind ephemeral port")
}

/// A dot-style pipeline with two bindable writes (the canonical stored
/// shape from the session suite).
fn dot_shape() -> Program {
    let p = Precision::P8;
    let mut b = ProgramBuilder::new();
    let x = b.write_mult(p, vec![0, 0, 0]);
    let w = b.write_mult(p, vec![0, 0, 0]);
    let prod = b.mult(x, w, p);
    b.read_products(prod, p, 3);
    b.finish()
}

/// The single journal file of the newest generation in a state dir.
fn newest_journal(dir: &Path) -> PathBuf {
    let mut journals: Vec<_> = std::fs::read_dir(dir)
        .expect("read state dir")
        .filter_map(|e| {
            let p = e.expect("dir entry").path();
            let name = p.file_name()?.to_str()?.to_string();
            let gen: u64 = name
                .strip_prefix("journal-")?
                .strip_suffix(".log")?
                .parse()
                .ok()?;
            Some((gen, p))
        })
        .collect();
    journals.sort();
    journals.pop().expect("a journal exists").1
}

// ---------------------------------------------------------------------
// Journal replay restores the whole tenant across a crash
// ---------------------------------------------------------------------

#[test]
fn crash_point_matrix_recovers_each_prefix_exactly() {
    let dir = temp_state_dir("matrix");
    let handle = start(persistent_config(&dir));

    let protos: Vec<Vec<u64>> = (0..3)
        .map(|p| (0..8).map(|i| (p * 50 + i * 11) % 256).collect())
        .collect();
    let sample: Vec<u64> = (0..8).map(|i| (i * 7 + 3) % 256).collect();

    // One crash image per state-mutating op: image[i] is the disk state
    // a kill -9 immediately after op i would leave behind.
    let mut a = Client::connect(handle.local_addr()).expect("connect A");
    let token = a.open_session().expect("open_session").token;
    let mut images = vec![crash_image(&dir, "matrix-img")]; // after open
    a.load_model(Precision::P8, &protos).expect("load_model");
    images.push(crash_image(&dir, "matrix-img")); // after load_model
    let class = a.classify(&sample).expect("classify");
    images.push(crash_image(&dir, "matrix-img")); // after classify
    let meta = a
        .store_program_named(&dot_shape(), "dots")
        .expect("store_program_named");
    images.push(crash_image(&dir, "matrix-img")); // after store
    let report = a
        .run_stored_named("dots", &[Some(vec![1, 2, 3]), Some(vec![4, 5, 6])])
        .expect("run_stored_named");
    assert_eq!(report.outputs, vec![vec![4, 10, 18]]);
    images.push(crash_image(&dir, "matrix-img")); // after run_stored
    let dot = a
        .dot(Precision::P8, &[1, 2, 3, 4], &[4, 3, 2, 1])
        .expect("dot");
    assert_eq!(dot, 20);
    images.push(crash_image(&dir, "matrix-img")); // after dot
    a.delete_program(StoredTarget::Name("dots".into()))
        .expect("delete_program");
    images.push(crash_image(&dir, "matrix-img")); // after delete

    // Accounting ground truth without extra billing: drop the connection
    // and read the account off a resume (session ops bill nothing).
    drop(a);
    let mut b = Client::connect(handle.local_addr()).expect("connect B");
    // A's reader may not have detached yet: retry the busy refusal.
    b.set_retry_policy(Some(RetryPolicy::default()));
    let truth = b.resume_session(token.clone()).expect("resume on A");
    drop(b);
    handle.shutdown();

    let mut prev = SessionActivity::new();
    for (i, image) in images.iter().enumerate() {
        // Every image must audit clean, with the cold recovery path.
        let audit = inspect(image).expect("inspect crash image");
        assert!(!audit.corrupt(), "image {i} is uncorrupted");
        assert!(!audit.warm, "a crash image has no clean-shutdown marker");
        assert_eq!(audit.sessions.len(), 1, "image {i} holds the session");

        let handle = start(persistent_config(image));
        let mut c = Client::connect(handle.local_addr()).expect("connect recovered");
        let info = c.resume_session(token.clone()).expect("resume recovered");
        let stats = info.stats;
        // Exactly the executed prefix is billed: one request per op
        // after the open, never fewer (lost updates) and never more
        // (double billing), and totals only grow along the prefix.
        assert_eq!(stats.requests, i as u64, "image {i} bills i executed ops");
        assert_eq!(stats.errors, 0);
        assert!(stats.cycles >= prev.cycles && stats.energy_fj >= prev.energy_fj);
        let programs = c.list_programs().expect("list_programs");
        if (3..=5).contains(&i) {
            assert_eq!(programs.len(), 1, "image {i} holds the stored program");
            assert_eq!(programs[0].pid, meta.pid);
            assert_eq!(programs[0].name.as_deref(), Some("dots"));
            // The recompiled cache replays the program identically.
            let rerun = c
                .run_stored_named("dots", &[Some(vec![1, 2, 3]), Some(vec![4, 5, 6])])
                .expect("run_stored on recovered");
            assert_eq!(rerun.outputs, vec![vec![4, 10, 18]]);
            assert_eq!(rerun.cycles, report.cycles);
        } else {
            assert!(programs.is_empty(), "image {i} has no stored program");
        }
        if i >= 2 {
            // The model was rebuilt from its persisted prototypes.
            assert_eq!(c.classify(&sample).expect("classify recovered"), class);
        }
        drop(c);
        handle.shutdown();
        prev = stats;
    }
    // The final image recovers the account byte-identically: same
    // request/error counts, same cycles, bit-exact energy.
    assert_eq!(prev, truth.stats, "final image == live account, byte-exact");
    assert_eq!(truth.stats.requests, 6);
}

// ---------------------------------------------------------------------
// Warm restart: clean shutdown marker skips journal replay
// ---------------------------------------------------------------------

#[test]
fn graceful_shutdown_enables_a_warm_restart() {
    let dir = temp_state_dir("warm");
    let handle = start(persistent_config(&dir));
    let mut a = Client::connect(handle.local_addr()).expect("connect");
    let token = a.open_session().expect("open_session").token;
    let dot = a.dot(Precision::P8, &[2, 2, 2], &[3, 3, 3]).expect("dot");
    assert_eq!(dot, 18);
    drop(a);
    // Graceful shutdown writes the final snapshot and the clean marker.
    handle.shutdown();

    let audit = inspect(&dir).expect("inspect after shutdown");
    assert!(!audit.corrupt());
    assert!(audit.warm, "a clean shutdown leaves the warm path");
    assert_eq!(
        audit.replayed_events, 0,
        "a warm restart replays no journal events"
    );
    assert_eq!(audit.clean_marker, audit.chosen_snapshot);
    assert_eq!(audit.sessions.len(), 1);
    assert_eq!(audit.sessions[0].stats.requests, 1);

    // And the restarted server serves the same session.
    let handle = start(persistent_config(&dir));
    let mut b = Client::connect(handle.local_addr()).expect("connect restarted");
    let info = b.resume_session(token).expect("resume after warm restart");
    assert_eq!(info.stats.requests, 1);
    assert!(info.stats.cycles > 0);
    drop(b);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Torn writes and bit flips: stop cleanly at the first bad record
// ---------------------------------------------------------------------

#[test]
fn torn_journal_tail_is_truncated_and_the_prefix_recovers() {
    let dir = temp_state_dir("torn");
    let handle = start(persistent_config(&dir));
    let mut a = Client::connect(handle.local_addr()).expect("connect");
    let token = a.open_session().expect("open_session").token;
    for k in 1..=3u64 {
        a.dot(Precision::P8, &[k, k, k], &[1, 2, 3]).expect("dot");
    }
    let image = crash_image(&dir, "torn-img");
    drop(a);
    handle.shutdown();

    // Tear the last journal record mid-frame, as a crash mid-write would.
    let journal = newest_journal(&image);
    let bytes = std::fs::read(&journal).expect("read journal");
    std::fs::write(&journal, &bytes[..bytes.len() - 3]).expect("tear journal");

    let audit = inspect(&image).expect("inspect torn image");
    assert!(audit.corrupt(), "the torn tail is reported");
    let (file, c) = &audit.corruptions[0];
    assert!(
        file.starts_with("journal-"),
        "corruption names the file: {file}"
    );
    assert!(c.dropped_bytes > 0 && c.offset > 0);

    // Recovery keeps the three intact events (open + two dots), truncates
    // the torn tail, and the server comes up serving the prefix.
    let handle = start(persistent_config(&image));
    let mut b = Client::connect(handle.local_addr()).expect("connect recovered");
    let info = b.resume_session(token).expect("resume recovered");
    assert_eq!(info.stats.requests, 2, "the torn third dot was dropped");
    drop(b);
    handle.shutdown();

    // The bad tail is gone from disk: a second audit is clean.
    let audit = inspect(&image).expect("re-inspect");
    assert!(!audit.corrupt(), "recovery truncated the torn tail");
}

#[test]
fn bit_flip_fails_the_crc_and_recovery_stops_there() {
    let dir = temp_state_dir("flip");
    let handle = start(persistent_config(&dir));
    let mut a = Client::connect(handle.local_addr()).expect("connect");
    let token = a.open_session().expect("open_session").token;
    for k in 1..=3u64 {
        a.dot(Precision::P8, &[k, k, k], &[1, 2, 3]).expect("dot");
    }
    let image = crash_image(&dir, "flip-img");
    drop(a);
    handle.shutdown();

    // Flip one bit inside the last record's payload: the length prefix
    // still reads, the CRC must catch it.
    let journal = newest_journal(&image);
    let mut bytes = std::fs::read(&journal).expect("read journal");
    let n = bytes.len();
    bytes[n - 3] ^= 0x10;
    std::fs::write(&journal, &bytes).expect("flip journal");

    let audit = inspect(&image).expect("inspect flipped image");
    assert!(audit.corrupt(), "the flipped record is reported");
    assert!(
        audit.corruptions[0]
            .1
            .reason
            .to_ascii_lowercase()
            .contains("crc"),
        "the reason names the CRC: {}",
        audit.corruptions[0].1.reason
    );

    let handle = start(persistent_config(&image));
    let mut b = Client::connect(handle.local_addr()).expect("connect recovered");
    let info = b.resume_session(token).expect("resume recovered");
    assert_eq!(
        info.stats.requests, 2,
        "replay stopped before the bad record"
    );
    drop(b);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Seq-retry replay survives the restart
// ---------------------------------------------------------------------

/// Drives the wire protocol directly so the test controls `seq` numbers:
/// a pre-crash seq resent after the restart must be *replayed* from the
/// recovered window — same response, no re-execution, no double billing —
/// even when the resend carries different (wrong) operands.
#[test]
fn pre_crash_seq_retries_replay_instead_of_re_executing() {
    let send = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &Request| {
        let mut line = req.to_json_line();
        line.push('\n');
        stream.write_all(line.as_bytes()).expect("write request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        Response::parse(&line).expect("parse response").body
    };
    let dot = |id: u64, seq: u64, x: Vec<u64>, w: Vec<u64>| Request {
        id,
        timeout_ms: None,
        seq: Some(seq),
        body: RequestBody::Dot {
            precision: Precision::P8,
            x,
            w,
        },
    };
    let connect = |addr| {
        let stream = TcpStream::connect(addr).expect("connect raw");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        (stream, reader)
    };

    let dir = temp_state_dir("seqretry");
    let handle = start(persistent_config(&dir));
    let (mut s, mut r) = connect(handle.local_addr());
    let open = Request {
        id: 1,
        timeout_ms: None,
        seq: None,
        body: RequestBody::OpenSession,
    };
    let token = match send(&mut s, &mut r, &open) {
        ResponseBody::Session(info) => info.token,
        other => panic!("open_session answered {other:?}"),
    };
    let v0 = match send(&mut s, &mut r, &dot(2, 0, vec![1, 2, 3], vec![4, 5, 6])) {
        ResponseBody::Scalar(v) => v,
        other => panic!("dot answered {other:?}"),
    };
    assert_eq!(v0, 32);
    let v1 = match send(&mut s, &mut r, &dot(3, 1, vec![7, 7, 7], vec![1, 1, 1])) {
        ResponseBody::Scalar(v) => v,
        other => panic!("dot answered {other:?}"),
    };
    assert_eq!(v1, 21);
    let image = crash_image(&dir, "seqretry-img");
    drop((s, r));
    handle.shutdown();

    // Restart from the crash image; the replay window came back with it.
    let handle = start(persistent_config(&image));
    let (mut s, mut r) = connect(handle.local_addr());
    let resume = Request {
        id: 10,
        timeout_ms: None,
        seq: None,
        body: RequestBody::ResumeSession {
            token: token.clone(),
        },
    };
    match send(&mut s, &mut r, &resume) {
        ResponseBody::Session(info) => {
            assert_eq!(info.last_seq, Some(1), "the seq watermark survived");
            assert_eq!(info.stats.requests, 2);
        }
        other => panic!("resume answered {other:?}"),
    }
    // An honest retry of seq 1 replays the recorded response.
    match send(&mut s, &mut r, &dot(11, 1, vec![7, 7, 7], vec![1, 1, 1])) {
        ResponseBody::Scalar(v) => assert_eq!(v, v1, "the retry replays the recorded value"),
        other => panic!("retry answered {other:?}"),
    }
    // Even a retry with *different operands* replays — proof the server
    // answered from the recovered window instead of executing anything.
    match send(
        &mut s,
        &mut r,
        &dot(12, 1, vec![100, 100, 100], vec![2, 2, 2]),
    ) {
        ResponseBody::Scalar(v) => assert_eq!(v, v1, "replay ignores the resent operands"),
        other => panic!("mismatched retry answered {other:?}"),
    }
    // A fresh seq executes normally.
    match send(&mut s, &mut r, &dot(13, 2, vec![2, 2], vec![5, 5])) {
        ResponseBody::Scalar(v) => assert_eq!(v, 20),
        other => panic!("fresh seq answered {other:?}"),
    }
    drop((s, r));

    // No double billing: the account saw exactly three executions.
    let mut c = Client::connect(handle.local_addr()).expect("connect for audit");
    // The raw connection's reader may not have detached yet.
    c.set_retry_policy(Some(RetryPolicy::default()));
    let info = c.resume_session(token).expect("resume for audit");
    assert_eq!(info.stats.requests, 3, "replayed retries are never billed");
    assert_eq!(info.last_seq, Some(2));
    drop(c);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// TTL carry: a restart never grants a detached session a fresh clock
// ---------------------------------------------------------------------

#[test]
fn detached_time_before_the_crash_counts_against_the_ttl_after_it() {
    let dir = temp_state_dir("ttl");
    let handle = start(persistent_config(&dir));
    let mut a = Client::connect(handle.local_addr()).expect("connect");
    let token = a.open_session().expect("open_session").token;
    a.dot(Precision::P8, &[1, 1], &[1, 1]).expect("dot");
    // Detach (the journal records the wall clock), then let detached time
    // accrue before the "crash".
    drop(a);
    std::thread::sleep(Duration::from_millis(150));
    let image = crash_image(&dir, "ttl-img");
    let image2 = crash_image(&dir, "ttl-img2");
    handle.shutdown();

    // Recovered under a 120ms TTL: the ~150ms already served before the
    // crash exhausts the clock, so the sweeper collects the session even
    // though the *restarted server* is younger than the TTL. A fresh
    // clock would keep it alive here — that is the bug this guards.
    let handle = start(ServerConfig {
        session_ttl: Duration::from_millis(120),
        ..persistent_config(&image)
    });
    std::thread::sleep(Duration::from_millis(100));
    let mut b = Client::connect(handle.local_addr()).expect("connect recovered");
    match b.resume_session(token.clone()) {
        Err(ClientError::Server(err)) => assert_eq!(
            err.kind,
            ErrorKind::SessionExpired,
            "pre-crash detached time counts: {err:?}"
        ),
        other => panic!("a carried-over TTL must already be exhausted, got {other:?}"),
    }
    drop(b);
    handle.shutdown();

    // The same image under a generous TTL resumes fine — expiry above
    // came from the carried clock, not from recovery dropping state.
    let handle = start(ServerConfig {
        session_ttl: Duration::from_secs(30),
        ..persistent_config(&image2)
    });
    let mut c = Client::connect(handle.local_addr()).expect("connect recovered 2");
    let info = c.resume_session(token).expect("resume under a long TTL");
    assert_eq!(info.stats.requests, 1);
    drop(c);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Fsync policies: interval mode still converges to a durable snapshot
// ---------------------------------------------------------------------

#[test]
fn interval_fsync_with_graceful_shutdown_loses_nothing() {
    let dir = temp_state_dir("interval");
    let mut state = StateConfig::new(dir.to_path_buf());
    state.fsync = bpimc_server::FsyncPolicy::parse("interval:25").expect("parse policy");
    let handle = start(ServerConfig {
        state: Some(state),
        ..ServerConfig::default()
    });
    let mut a = Client::connect(handle.local_addr()).expect("connect");
    let token = a.open_session().expect("open_session").token;
    for _ in 0..5 {
        a.dot(Precision::P8, &[3, 3], &[2, 2]).expect("dot");
    }
    drop(a);
    handle.shutdown();

    let handle = start(persistent_config(&dir));
    let mut b = Client::connect(handle.local_addr()).expect("connect restarted");
    let info = b.resume_session(token).expect("resume");
    assert_eq!(info.stats.requests, 5);
    drop(b);
    handle.shutdown();
}
