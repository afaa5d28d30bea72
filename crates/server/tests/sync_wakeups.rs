//! A synchronous client's requests run on its connection's reader and
//! never wake the dispatcher; a pipelined burst still goes through it.
//!
//! The check reads the dispatcher thread's voluntary context switches
//! under `/proc/self/task`, so it runs on Linux only, and this file holds
//! a single test so that no other server shares its process.
#![cfg(target_os = "linux")]

use bpimc_core::prog::ProgramBuilder;
use bpimc_core::{LaneOp, Precision, RequestBody, ResponseBody};
use bpimc_server::{Client, Server, ServerConfig};
use std::time::{Duration, Instant};

/// Synchronous requests sent across the measured window.
const REQUESTS: u64 = 400;
/// Most voluntary switches the dispatcher may make across them: it wakes
/// once per request when every request crosses to it.
const MAX_DISPATCHER_SWITCHES: u64 = 40;
const BURST: u64 = 16;
const P: Precision = Precision::P8;

/// Summed `voluntary_ctxt_switches` of this process's `bpimc-dispatch`
/// threads.
fn dispatcher_switches() -> u64 {
    let mut total = 0;
    let mut found = false;
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let path = task.expect("a task entry").path();
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
            continue;
        };
        if comm.trim_end() != "bpimc-dispatch" {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(path.join("status")) else {
            continue;
        };
        found = true;
        total += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .expect("status lists voluntary_ctxt_switches")
            .trim()
            .parse::<u64>()
            .expect("a switch count");
    }
    assert!(found, "the server's dispatcher thread is listed");
    total
}

/// Operands of request `k`.
fn operands(k: u64) -> (Vec<u64>, Vec<u64>) {
    let x = (0..8).map(|i| (k * 13 + i * 5) % 256).collect();
    let w = (0..8).map(|i| (k * 3 + i * 17) % 256).collect();
    (x, w)
}

/// Sends request `k` of the synchronous mix and checks its answer on the
/// host.
fn call_checked(client: &mut Client, k: u64, requests_before: u64) {
    let (x, w) = operands(k);
    match k % 4 {
        0 => {
            let want: u64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
            assert_eq!(client.dot(P, &x, &w).expect("dot"), want, "dot {k}");
        }
        1 => {
            let want: Vec<u64> = x.iter().zip(&w).map(|(a, b)| (a + b) % 256).collect();
            let got = client.lanes(LaneOp::Add, P, &x, &w).expect("lanes");
            assert_eq!(got, want, "lanes {k}");
        }
        2 => {
            let mut b = ProgramBuilder::new();
            let xs = b.write_mult(P, x.clone());
            let ws = b.write_mult(P, w.clone());
            let prod = b.mult(xs, ws, P);
            b.read_products(prod, P, x.len());
            let report = client.exec_program(&b.finish()).expect("exec_program");
            let want: Vec<u64> = x.iter().zip(&w).map(|(a, b)| a * b).collect();
            assert_eq!(report.outputs, vec![want], "exec_program {k}");
        }
        _ => {
            let stats = client.stats().expect("stats");
            assert_eq!(stats.requests, requests_before, "stats {k}");
            assert_eq!(stats.errors, 0, "stats {k}");
        }
    }
}

#[test]
fn synchronous_requests_leave_the_dispatcher_parked() {
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.ping().expect("ping");

    let before = dispatcher_switches();
    for k in 0..REQUESTS {
        // The ping and the `k` requests before this one are billed.
        call_checked(&mut client, k, k + 1);
    }
    let grew = dispatcher_switches() - before;
    assert!(
        grew <= MAX_DISPATCHER_SWITCHES,
        "{REQUESTS} synchronous requests woke the dispatcher {grew} times"
    );

    // A pipelined burst is queued behind its first request and answered
    // by the dispatcher, in order.
    let before = dispatcher_switches();
    let mut sent = Vec::new();
    for k in 0..BURST {
        let (x, w) = operands(k);
        let want: u64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
        let body = RequestBody::Dot { precision: P, x, w };
        sent.push((client.send(body).expect("send"), want));
    }
    for (id, want) in sent {
        let resp = client.recv().expect("recv");
        assert_eq!(resp.id, id, "the burst is answered in order");
        assert!(matches!(resp.body, ResponseBody::Scalar(v) if v == want));
    }
    // The dispatcher parks again after the burst; that park is the switch.
    let deadline = Instant::now() + Duration::from_secs(10);
    while dispatcher_switches() == before {
        assert!(
            Instant::now() < deadline,
            "a pipelined burst never woke the dispatcher"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(client);
    handle.shutdown();
}
