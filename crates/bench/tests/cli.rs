//! The `repro` command line rejects arguments it does not know (exit 2
//! with the usage text) instead of running nothing and exiting 0, so a
//! misspelled experiment name or flag fails loudly.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("running repro")
}

fn assert_rejected(args: &[&str], bad: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("unknown argument '{bad}'")),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran something before failing"
    );
}

#[test]
fn unknown_experiment_name_exits_2() {
    assert_rejected(&["fgi2"], "fgi2");
}

#[test]
fn unknown_flag_exits_2() {
    assert_rejected(&["table1", "--sample", "5"], "--sample");
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
