//! The `repro` command line rejects arguments it does not know or cannot
//! use (exit 2 with the usage text) before it runs anything, instead of
//! running nothing and exiting 0, or running every other experiment and
//! then panicking, so a misspelled experiment name or flag fails loudly.
//! Its `lint` gate passes the built-in pipelines and fails on a
//! warn-severity diagnostic, and `repro serve` answers every connection
//! at its descriptor limit.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("running repro")
}

fn assert_rejected(args: &[&str], error: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(error), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran something before failing"
    );
}

#[test]
fn unknown_experiment_name_exits_2() {
    assert_rejected(&["fgi2"], "unknown argument 'fgi2'");
    assert_rejected(&["check-bench"], "unknown argument 'check-bench'");
}

#[test]
fn unknown_flag_exits_2() {
    assert_rejected(&["table1", "--sample", "5"], "unknown argument '--sample'");
    assert_rejected(&["all", "--json"], "unknown argument '--json'");
    for args in [["fig2", "--samples", "0"], ["all", "--samples", "0"]] {
        assert_rejected(&args, "--samples needs a positive number");
    }
    assert_rejected(&["fig2", "--seed"], "--seed needs a number");
    assert_rejected(&["fig2", "--seed", "x"], "--seed needs a number");
    // Flags alone select no experiment, so nothing would run.
    assert_rejected(&["--samples", "5"], "name an experiment to run");
    assert_rejected(&["--seed", "3"], "name an experiment to run");
    // Chaos rates are per mille: more than 1000 is refused before the
    // server binds, not truncated to 16 bits or applied to every request.
    assert_rejected(
        &["serve", "--chaos-drop-pm", "1001"],
        "--chaos-drop-pm is per mille: at most 1000, got 1001",
    );
    assert_rejected(
        &["serve", "--chaos-panic-pm", "65536"],
        "--chaos-panic-pm is per mille: at most 1000, got 65536",
    );
}

#[test]
fn known_experiment_exits_0() {
    let out = repro(&["table1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "table1 printed its table");
}

#[test]
fn lint_builtin_exits_0_with_its_perf_notes() {
    let out = repro(&["lint", "--builtin"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "shape/1: perf L005 [0..7] program uses 5 registers where 3 suffice; \
         remapping would free 2 row(s)\n\
         shape/3: perf L005 [0..6] program uses 4 registers where 3 suffice; \
         remapping would free 1 row(s)\n\
         linted 6 program(s): 0 error(s), 0 warning(s), 2 perf note(s)\n"
    );
}

#[test]
fn lint_of_a_dead_store_on_stdin_exits_2() {
    let line = r#"{"id":1,"op":"lint_program","instrs":[{"i":"write","dst":0,"precision":2,"values":[3]},{"i":"write","dst":0,"precision":2,"values":[2]},{"i":"read","src":0,"precision":2,"n":1}]}"#;
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["lint", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning repro");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(line.as_bytes())
        .expect("writing the request line");
    let out = child.wait_with_output().expect("running repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}");
    assert!(stdout.contains("-:1: warn L001 [0..1]"), "{stdout}");
}

/// Under `ulimit -n 32` the server can hold about 28 connections at once.
/// Forty clients each send a `ping`, then read their replies in order and
/// close: every one gets its pong, the first ones right away and the rest
/// as closed connections free descriptors for `accept`. A reader borrows
/// the accepted socket instead of cloning it, so a connection needs one
/// descriptor, never a second one it might not get.
#[cfg(target_os = "linux")]
#[test]
fn serve_answers_every_connection_at_the_descriptor_limit() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::time::Duration;

    /// Kills the server when the test ends, however it ends.
    struct Server(std::process::Child);
    impl Drop for Server {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut server = Server(
        Command::new("sh")
            .args(["-c", r#"ulimit -n 32; exec "$0" serve --addr 127.0.0.1:0"#])
            .arg(env!("CARGO_BIN_EXE_repro"))
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning repro serve"),
    );
    // Kept open to the end: the server prints more lines after the banner.
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("reading the banner");
    let addr = banner
        .strip_prefix("serving on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_string();

    let conns: Vec<TcpStream> = (0..40)
        .map(|id| {
            let mut conn = TcpStream::connect(&addr).expect("connecting");
            writeln!(conn, r#"{{"id":{id},"op":"ping"}}"#).expect("sending ping");
            conn
        })
        .collect();
    for (id, conn) in conns.into_iter().enumerate() {
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("setting a read timeout");
        let mut reply = String::new();
        let _ = BufReader::new(&conn).read_line(&mut reply);
        assert_eq!(
            reply.trim_end(),
            format!(r#"{{"id":{id},"ok":true,"kind":"pong"}}"#),
            "connection {id} of 40"
        );
    }
}
