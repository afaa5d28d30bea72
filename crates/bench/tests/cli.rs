//! The `repro` command line rejects arguments it does not know or cannot
//! use (exit 2 with the usage text) before it runs anything, instead of
//! running nothing and exiting 0, or running every other experiment and
//! then panicking, so a misspelled experiment name or flag fails loudly.
//! Its `lint` gate passes the built-in pipelines and fails on a
//! warn-severity diagnostic.

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
}

#[test]
fn unknown_flag_exits_2() {
    assert_rejected(&["table1", "--sample", "5"], "unknown argument '--sample'");
    for args in [["fig2", "--samples", "0"], ["all", "--samples", "0"]] {
        assert_rejected(&args, "--samples needs a positive number");
    }
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
