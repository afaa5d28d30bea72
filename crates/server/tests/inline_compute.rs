//! Served compute runs on the dispatcher's own macro and never starts the
//! `bpimc_stats::parallel` worker pool.
//!
//! The pool is process-wide and lives until the process exits, so this file
//! holds a single test: no other test can start the pool in its process.
//! The check lists thread names under `/proc`, so it runs on Linux only.
#![cfg(target_os = "linux")]

use bpimc_core::prog::ProgramBuilder;
use bpimc_core::{
    ImcMacro, MacroConfig, Precision, RequestBody, ResponseBody, SessionActivity, StoredTarget,
};
use bpimc_metrics::paper_calibrated_params;
use bpimc_nn::{classify_quantized, prototype_norms};
use bpimc_server::{Client, Server, ServerConfig};

const CLIENTS: u64 = 2;
const WINDOW: usize = 16;
/// Compute requests per client: four `run_stored` to one `classify`.
const REQUESTS: u64 = 600;
const LEN: usize = 8;
const P: Precision = Precision::P8;

/// Runs each request's work on a private macro with the server's
/// per-request accounting (clear, run, measure): the answer and the bill
/// every response is checked against.
struct Direct {
    mac: ImcMacro,
    expected: SessionActivity,
}

impl Direct {
    fn bill(&mut self) -> (u64, f64) {
        let cycles = self.mac.activity().total_cycles();
        let energy_fj = paper_calibrated_params().log_energy_fj(self.mac.activity());
        self.expected.record_ok(cycles, energy_fj);
        self.mac.clear_activity();
        (cycles, energy_fj)
    }

    /// The stored program's work: `x * w` lane by lane.
    fn products(&mut self, x: &[u64], w: &[u64]) -> (Vec<u64>, u64, f64) {
        self.mac.clear_activity();
        self.mac.write_mult_operands(0, P, x).unwrap();
        self.mac.write_mult_operands(1, P, w).unwrap();
        self.mac.mult(0, 1, 2, P).unwrap();
        let out = self.mac.read_products(2, P, x.len()).unwrap();
        let (cycles, energy_fj) = self.bill();
        (out, cycles, energy_fj)
    }

    fn load_model(&mut self, prototypes: &[Vec<u64>]) -> Vec<u64> {
        self.mac.clear_activity();
        let norms = prototype_norms(&mut self.mac, P, prototypes);
        self.bill();
        norms
    }

    fn classify(&mut self, prototypes: &[Vec<u64>], norms: &[u64], x: &[u64]) -> usize {
        self.mac.clear_activity();
        let class = classify_quantized(&mut self.mac, P, prototypes, norms, x);
        self.bill();
        class
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9 * b.abs().max(1.0)
}

/// What one pipelined request must be answered with.
#[derive(Debug)]
enum Want {
    Class(usize),
    Run {
        outputs: Vec<u64>,
        cycles: u64,
        energy_fj: f64,
    },
}

/// One client's stream: a model and a stored program, then `REQUESTS`
/// pipelined at window `WINDOW`, each answer and the final account
/// checked against `Direct`.
fn drive(addr: std::net::SocketAddr, c: u64) {
    let mut client = Client::connect(addr).expect("connect");
    let mut direct = Direct {
        mac: ImcMacro::new(MacroConfig::paper_macro()),
        expected: SessionActivity::new(),
    };
    let prototypes: Vec<Vec<u64>> = (0..4u64)
        .map(|k| (0..16).map(|i| (c * 29 + k * 61 + i * 7) % 256).collect())
        .collect();
    client.load_model(P, &prototypes).expect("load_model");
    let norms = direct.load_model(&prototypes);

    let mut b = ProgramBuilder::new();
    let x = b.write_mult(P, vec![0; LEN]);
    let w = b.write_mult(P, vec![0; LEN]);
    let prod = b.mult(x, w, P);
    b.read_products(prod, P, LEN);
    let pid = client
        .store_program(&b.finish())
        .expect("store_program")
        .pid;
    direct.expected.record_ok(0, 0.0);

    let mut pending = std::collections::VecDeque::new();
    let (mut sent, mut received) = (0u64, 0u64);
    while received < REQUESTS {
        while sent < REQUESTS && pending.len() < WINDOW {
            let k = c * 1_000 + sent;
            let (body, want) = if sent % 5 == 4 {
                let x: Vec<u64> = (0..16).map(|i| (k * 7 + i * 11) % 256).collect();
                let want = Want::Class(direct.classify(&prototypes, &norms, &x));
                (RequestBody::Classify { x }, want)
            } else {
                let a: Vec<u64> = (0..LEN as u64).map(|i| (k * 13 + i * 5) % 256).collect();
                let b: Vec<u64> = (0..LEN as u64).map(|i| (k * 3 + i * 17) % 256).collect();
                let (outputs, cycles, energy_fj) = direct.products(&a, &b);
                let body = RequestBody::RunStored {
                    target: StoredTarget::Pid(pid),
                    inputs: vec![Some(a), Some(b)],
                };
                let want = Want::Run {
                    outputs,
                    cycles,
                    energy_fj,
                };
                (body, want)
            };
            pending.push_back((client.send(body).expect("send"), want));
            sent += 1;
        }
        let resp = client.recv().expect("recv");
        let (id, want) = pending.pop_front().expect("a response we asked for");
        assert_eq!(resp.id, id, "client {c}: request {received} out of order");
        match (&resp.body, want) {
            (ResponseBody::Class(got), Want::Class(want)) => {
                assert_eq!(*got, want, "client {c}: request {received}")
            }
            (
                ResponseBody::Program(report),
                Want::Run {
                    outputs,
                    cycles,
                    energy_fj,
                },
            ) => {
                assert_eq!(
                    report.outputs,
                    vec![outputs],
                    "client {c}: request {received}"
                );
                assert_eq!(
                    report.total_cycles(),
                    cycles,
                    "client {c}: request {received}"
                );
                assert!(
                    close(report.energy_fj.iter().sum(), energy_fj),
                    "client {c}: request {received}: energy"
                );
            }
            (got, want) => panic!("client {c}: request {received} got {got:?}, want {want:?}"),
        }
        received += 1;
    }

    let got = client.stats().expect("stats");
    let want = direct.expected;
    assert_eq!(
        (got.requests, got.errors, got.cycles),
        (want.requests, want.errors, want.cycles),
        "client {c}: account"
    );
    assert!(close(got.energy_fj, want.energy_fj), "client {c}: energy");
}

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn served_compute_never_wakes_the_pool() {
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.local_addr();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| std::thread::spawn(move || drive(addr, c)))
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let names = thread_names();
    assert!(
        names.iter().any(|n| n == "bpimc-dispatch"),
        "the server's dispatcher is listed: {names:?}"
    );
    let pool: Vec<_> = names
        .iter()
        .filter(|n| n.starts_with("bpimc-worker-"))
        .collect();
    assert!(
        pool.is_empty(),
        "served compute started pool workers {pool:?}"
    );
    handle.shutdown();
}
