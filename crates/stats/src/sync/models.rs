//! Concurrency models for the stats crate's parallel machinery.
//!
//! Each [`ModelSpec`] body builds the **production** `ClaimQueue`
//! protocol object inside a model execution (so every atomic op is a
//! schedule point) and asserts one load-bearing invariant. Harness
//! bookkeeping (hit counters, snapshots) deliberately uses `std` atomics:
//! they must observe without perturbing the schedule.
//!
//! Run via `cargo test --features model` (the root `concurrency_models`
//! test) or `repro model-check`; replay a failure with the printed seed.

use super::model::ModelSpec;
use crate::parallel::ClaimQueue;
use crate::sync::{thread, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Workers participating in each model (kept small: schedule space grows
/// exponentially in task count).
const LANES: usize = 2;

/// No job is lost or duplicated through the claim queue: with workers and
/// the caller racing `claim`, every index in `0..len` is executed exactly
/// once.
fn claim_queue_no_loss_no_dup() {
    const LEN: usize = 6;
    let queue = Arc::new(ClaimQueue::new(LEN, 2));
    let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..LEN).map(|_| AtomicUsize::new(0)).collect());
    let workers: Vec<_> = (0..LANES)
        .map(|_| {
            let queue = queue.clone();
            let hits = hits.clone();
            thread::spawn(move || {
                while let Some(claim) = queue.claim() {
                    for i in claim {
                        hits[i].fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    while let Some(claim) = queue.claim() {
        for i in claim {
            hits[i].fetch_add(1, Ordering::SeqCst);
        }
    }
    for w in workers {
        w.join().expect("worker exits");
    }
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::SeqCst), 1, "job {i} must run exactly once");
    }
}

/// Panic containment never wedges a later batch: a "fault" recorded by one
/// job (first-fault-wins through a shared, shim-locked slot, so recording
/// is itself a schedule point) leaves the other jobs and a whole second
/// batch unaffected.
fn claim_queue_panic_containment() {
    const LEN: usize = 4;
    let panic_slot = Arc::new(Mutex::new(None::<String>));
    for batch in 0..2 {
        let queue = Arc::new(ClaimQueue::new(LEN, 1));
        let executed = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..LANES)
            .map(|w| {
                let queue = queue.clone();
                let executed = executed.clone();
                let panic_slot = panic_slot.clone();
                thread::spawn(move || {
                    while let Some(claim) = queue.claim() {
                        for i in claim {
                            // Batch 0: every worker-claimed job faults.
                            if batch == 0 {
                                let mut slot = panic_slot.lock();
                                if slot.is_none() {
                                    *slot = Some(format!("job {i} fault on lane {w}"));
                                }
                            }
                            executed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        while let Some(claim) = queue.claim() {
            for _ in claim {
                executed.fetch_add(1, Ordering::SeqCst);
            }
        }
        for w in workers {
            w.join().expect("worker exits");
        }
        assert_eq!(
            executed.load(Ordering::SeqCst),
            LEN,
            "faults must not lose sibling or follow-up jobs (batch {batch})"
        );
    }
    // First fault wins; at most one message was recorded despite racing
    // recorders.
    let slot = panic_slot.lock();
    if let Some(msg) = slot.as_ref() {
        assert!(msg.contains("fault"), "recorded message intact: {msg}");
    }
}

/// The stats crate's model suite, in the shape `repro model-check` and the
/// root `concurrency_models` test both consume.
pub const MODELS: &[ModelSpec] = &[
    ModelSpec {
        name: "claim-queue-no-loss-no-dup",
        invariant: "every job index is executed exactly once across racing claimants",
        run: claim_queue_no_loss_no_dup,
    },
    ModelSpec {
        name: "claim-queue-panic-containment",
        invariant: "a faulting job never loses sibling jobs or wedges the next batch",
        run: claim_queue_panic_containment,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::model::{check, ExploreConfig};

    #[test]
    fn stats_models_hold_across_the_default_matrix() {
        let cfg = ExploreConfig::from_env(8);
        for spec in MODELS {
            check(spec.name, &cfg, spec.run);
        }
    }
}
