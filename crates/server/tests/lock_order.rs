//! Lock-order hygiene: one real served workload acquires every long-lived
//! server lock (queue state, per-connection outboxes and sessions, the
//! connection/reader/writer registries), and the runtime lock-order
//! analyzer — active in debug builds — must observe an **acyclic**
//! acquisition-order graph. A cycle here is a potential deadlock reported
//! from a single benign run, without needing the bad interleaving.

use bpimc_core::{Precision, Program, StoredTarget};
use bpimc_server::{Client, RetryPolicy, Server, ServerConfig, SessionLimits, StateConfig};

#[test]
fn served_workload_has_acyclic_lock_order() {
    // Metered limits so the admission path (session lock inside the
    // dispatch path) runs too.
    let config = ServerConfig {
        limits: SessionLimits {
            max_cycles_per_sec: Some(u64::MAX),
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for _ in 0..4 {
        let dot = client
            .dot(Precision::P8, &[1, 2, 3], &[4, 5, 6])
            .expect("dot");
        assert_eq!(dot, 32);
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 4);
    drop(client);
    handle.shutdown();
    bpimc_stats::sync::lockorder::assert_acyclic("server.");
}

/// The durable variant: with `--state-dir` on, every journaled mutation
/// holds `server.persist.journal` outermost, so this workload walks the
/// journal → registry → session chain (open/store/run/delete, a
/// detach/resume cycle, graceful shutdown, and a recovery boot) and the
/// observed acquisition graph must still be acyclic.
#[test]
fn persisted_workload_has_acyclic_lock_order() {
    let dir = std::env::temp_dir().join(format!("bpimc-lockorder-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");

    let config = ServerConfig {
        state: Some(StateConfig::new(dir.clone())),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config.clone()).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let token = client.open_session().expect("open_session").token;
    let prog = {
        let p = Precision::P8;
        let mut b = bpimc_core::prog::ProgramBuilder::new();
        let x = b.write_mult(p, vec![0, 0, 0]);
        let w = b.write_mult(p, vec![0, 0, 0]);
        let prod = b.mult(x, w, p);
        b.read_products(prod, p, 3);
        b.finish()
    };
    store_run_delete(&mut client, &prog);
    drop(client); // journaled detach

    let mut client = Client::connect(handle.local_addr()).expect("reconnect");
    // The old reader may not have detached yet: retry the busy refusal.
    client.set_retry_policy(Some(RetryPolicy::default()));
    client.resume_session(token).expect("resume"); // journaled attach
    drop(client);
    handle.shutdown(); // final snapshot + clean marker

    // The recovery path (snapshot load + journal replay + materialize)
    // takes the same locks at boot; it must fit the same order.
    let handle = Server::bind("127.0.0.1:0", config).expect("rebind");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    bpimc_stats::sync::lockorder::assert_acyclic("server.");
}

fn store_run_delete(client: &mut Client, prog: &Program) {
    let meta = client
        .store_program_named(prog, "lockorder")
        .expect("store_program_named");
    let report = client
        .run_stored_named("lockorder", &[Some(vec![1, 2, 3]), Some(vec![4, 5, 6])])
        .expect("run_stored_named");
    assert_eq!(report.outputs, vec![vec![4, 10, 18]]);
    client
        .delete_program(StoredTarget::Pid(meta.pid))
        .expect("delete_program");
}
