//! Deterministic fork-join dispatch over indexed work.
//!
//! Every batch in the workspace (the `MacroBank` in `bpimc-core`, the
//! Monte-Carlo driver in `bpimc-circuit`) runs on one primitive, the
//! **claim queue** ([`par_queue_try_map`]): the calling thread and up to
//! one worker thread per further core pull contiguous blocks of
//! independent, index-addressed jobs from a shared counter, and results
//! come back **in job order** regardless of scheduling. The workers are
//! scoped threads (`std::thread::scope`): spawned for one batch, they
//! borrow its jobs, states and closure, and are joined before it returns.
//!
//! Determinism comes from the jobs themselves being index-seeded; this
//! module only guarantees order-stable collection.
//!
//! `rayon` would be the off-the-shelf answer, but the build environment is
//! offline, so this is a dependency-free implementation on `std`.
//!
//! # Host costs
//!
//! The workspace's one record of what thread hand-offs cost; other docs
//! point here. Measured on the 2-vCPU VM the repository benchmark runs on:
//!
//! | cost | measured |
//! |---|---|
//! | spawning and joining one scoped worker: a two-lane [`par_claim_indexed_map`] of two trivial jobs, less the same batch on one lane (3,000 batches per run, 4 runs) | p50 40–42 µs, p90 45–49 µs, p99 0.09–0.13 ms |
//! | one thread hop on a window-1 loopback echo (std-only; a 134-byte line, an 85-byte reply; 4 alternating 5-s runs per variant): the reader thread replies itself (2 threads wake per request), or hands the line through a `Mutex`+`Condvar` queue to a thread that replies (3 threads) | p50 15.1–18.5 µs with 2 threads, 22.5–26.5 µs with 3 (p90 17.3–20.9 and 24.9–31.5 µs) |
//! | one `std::thread::available_parallelism()` call (it reads cgroup files) | 13–22 µs |
//! | one loopback request `write`: the client's kernel time per request on a window-16 stream, which includes the server's receive path and its reader's wake-up (per-thread `/proc` sampling) | 2.7–4.0 µs |
//! | a parked worker, woken per batch, taking its share of the server's compute runs on perfbench's `serve_stored_w16`: the worker's CPU per request, its wake-ups and spins included (per-thread `/proc` sampling) | 3.6–4.3 µs |
//!
//! Only batches that run on more than one lane spawn. Each pays the spawn,
//! its worker's late start and the join of the worker's exit, about
//! 0.1–0.15 ms per batch: noise on a `fig2::run(2000)` (four batches of
//! about 0.1 s each), but about 3 % of a 64-sample run's 22 ms (four
//! batches of 2–4 cohorts). A served request executes in about 2 µs, so
//! a spawned worker, or even a woken one, costs more than the work it
//! would take over: the server runs each compute request on one macro, on
//! its dispatcher thread, or a synchronous request on its connection's
//! reader, which spares it the hop to the dispatcher. Nothing may call
//! `available_parallelism` once per request ([`worker_count`] reads it
//! once per process).
//! A `write` per request costs more than the request's execution too, so
//! `bpimc_server::Client` writes the requests it queued in one `write` per
//! burst (0.6–1.0 µs of client kernel time per request on the same
//! stream).

use crate::sync::atomic::AtomicUsize;
use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

/// A job that panicked inside a parallel batch.
///
/// Carried per job by [`par_queue_try_map`] so one faulty job fails alone:
/// sibling jobs in the same batch still complete and later batches still
/// run (every job runs under [`catch_job`], so no unwind reaches a
/// worker). The panic payload is rendered to text — `&str` and `String`
/// payloads pass through verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload as text.
    pub message: String,
}

impl JobPanic {
    /// Renders a panic payload as text: the workspace's one place that
    /// does, shared by [`catch_job`] and the model checker's task reports.
    pub(crate) fn from_payload(payload: &(dyn Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Self { message }
    }
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Runs one job on the calling thread, turning a panic into that job's
/// [`JobPanic`] instead of unwinding further. [`par_queue_try_map`]
/// contains each of its jobs this way; a caller that runs its jobs one by
/// one on its own thread uses it directly.
///
/// # Examples
///
/// ```
/// use bpimc_stats::parallel::catch_job;
///
/// assert_eq!(catch_job(|| 6 * 7), Ok(42));
/// let err = catch_job(|| -> u32 { panic!("bad job") }).unwrap_err();
/// assert_eq!(err.to_string(), "job panicked: bad job");
/// ```
pub fn catch_job<T>(job: impl FnOnce() -> T) -> Result<T, JobPanic> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|p| JobPanic::from_payload(&*p))
}

/// The number of parallel lanes (the calling thread and its workers) used
/// for `n` independent jobs.
///
/// The host's parallelism is read once per process: on Linux
/// `available_parallelism` reads cgroup files, which costs more than a
/// served request's whole execution (see the module docs' host costs).
pub fn worker_count(n: usize) -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    let host = *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    host.min(n.max(1))
}

thread_local! {
    /// True on claim-queue worker threads. A batch started from a worker
    /// runs on that worker alone, so a batch never holds more threads
    /// than its lanes, however deeply its jobs nest batches.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f(i)` for every `i in 0..n` on the claim queue and returns the
/// results in index order.
///
/// `f` is called exactly once per index. The caller and its workers
/// pull contiguous index blocks from a shared queue instead of receiving
/// one fixed chunk each, which matters when per-index cost varies — a
/// Monte-Carlo sweep whose adaptive transient solves take different step
/// counts per sample, say. Static chunking makes the whole batch wait for
/// whichever lane drew the slow samples; claimed blocks keep every lane
/// busy to the end. Blocks are sized by [`par_queue_try_map`]'s heuristic
/// (`n / (lanes * 16)`, clamped to `[1, 256]`).
///
/// # Panics
///
/// Panics (after every job has completed) if any job panicked, re-raising
/// the first panicking job's message. Use [`par_queue_try_map`] to receive
/// per-job `Result`s instead.
///
/// # Examples
///
/// ```
/// let squares = bpimc_stats::parallel::par_claim_indexed_map(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_claim_indexed_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut states = vec![(); worker_count(n)];
    let jobs: Vec<usize> = (0..n).collect();
    par_queue_try_map(&mut states, &jobs, |_, &i| f(i))
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("a parallel job panicked: {}", p.message)))
        .collect()
}

/// The claim-queue protocol itself, factored out of [`par_queue_try_map`]
/// so the concurrency models (`sync::models`) can explore exactly the
/// production claim logic under the deterministic scheduler. Its invariant
/// (which the models assert): every index in `0..len` is claimed by
/// exactly one participant.
pub(crate) struct ClaimQueue {
    /// Next unclaimed job index.
    next: AtomicUsize,
    /// Total job count.
    len: usize,
    /// Contiguous indices handed out per claim.
    block: usize,
}

impl ClaimQueue {
    pub(crate) fn new(len: usize, block: usize) -> Self {
        Self {
            next: AtomicUsize::named("claim.next", 0),
            len,
            block: block.max(1),
        }
    }

    /// Claims the next block of indices, or `None` once the queue is
    /// exhausted.
    pub(crate) fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.block, Ordering::AcqRel);
        (start < self.len).then(|| start..(start + self.block).min(self.len))
    }
}

/// Runs `f(&mut state, &jobs[i])` for every job, with the **caller and its
/// workers pulling jobs from a shared claim queue**, and returns the
/// per-job results in job order.
///
/// The batch runs on `lanes` threads, the smallest of the host's cores,
/// `states.len()` and the job count: the caller and `lanes − 1` scoped
/// workers (`bpimc-worker-N`), which are joined before this returns. Each
/// owns one `states` slot exclusively for the whole batch. With one lane
/// the caller runs every job itself and spawns nothing; so does a call
/// made on a worker (a job that starts a nested batch).
///
/// Job-to-state assignment is scheduling-dependent: `f` must produce the
/// same result whichever state slot it runs on (true for self-contained
/// jobs that write their operands before use).
///
/// **Per-job panic containment**: a job that panics yields `Err(JobPanic)`
/// in its own result slot while every sibling job — including later jobs
/// claimed by the same worker — still runs and returns `Ok`, and later
/// batches are unaffected. A panicking job may leave its state slot
/// (`&mut S`) partially updated; `f` must therefore tolerate running on a
/// state slot a previous job abandoned mid-way (true for the same
/// self-contained jobs).
///
/// # Examples
///
/// ```
/// use bpimc_stats::parallel::par_queue_try_map;
///
/// let mut states = vec![(); 4];
/// let jobs = [1u32, 2, 3];
/// let out = par_queue_try_map(&mut states, &jobs, |_, &j| {
///     if j == 2 {
///         panic!("bad job");
///     }
///     j * 10
/// });
/// assert_eq!(out[0].as_ref().unwrap(), &10);
/// assert_eq!(out[1].as_ref().unwrap_err().message, "bad job");
/// assert_eq!(out[2].as_ref().unwrap(), &30);
/// ```
pub fn par_queue_try_map<S, J, T, F>(states: &mut [S], jobs: &[J], f: F) -> Vec<Result<T, JobPanic>>
where
    S: Send,
    J: Sync,
    T: Send,
    F: Fn(&mut S, &J) -> T + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(!states.is_empty(), "need at least one state slot");
    let lanes = worker_count(n).min(states.len());
    if lanes <= 1 || IS_WORKER.get() {
        let s0 = &mut states[0];
        return jobs.iter().map(|j| catch_job(|| f(s0, j))).collect();
    }

    // Claim in blocks: contended atomic RMWs cost ~0.5 us on virtualized
    // hosts, so per-job claiming would swamp fine-grained jobs. Blocks keep
    // the claim overhead at a fraction of a percent while still giving
    // lanes * 16 units of load-balancing granularity.
    let queue = ClaimQueue::new(n, (n / (lanes * 16)).clamp(1, 256));
    let drain = |state: &mut S| {
        let mut out = Vec::new();
        while let Some(claim) = queue.claim() {
            out.extend(claim.map(|i| (i, catch_job(|| f(state, &jobs[i])))));
        }
        out
    };
    let (first, rest) = states.split_first_mut().expect("non-empty states");
    let done = std::thread::scope(|scope| {
        let workers: Vec<_> = rest[..lanes - 1]
            .iter_mut()
            .enumerate()
            .map(|(w, state)| {
                std::thread::Builder::new()
                    .name(format!("bpimc-worker-{w}"))
                    .spawn_scoped(scope, || {
                        IS_WORKER.set(true);
                        drain(state)
                    })
                    .expect("spawning a claim-queue worker")
            })
            .collect();
        let mut done = drain(first);
        for worker in workers {
            // Every job runs under `catch_job`, so a worker cannot panic.
            done.extend(worker.join().expect("a claim-queue worker returns"));
        }
        done
    });
    let mut results: Vec<Option<Result<T, JobPanic>>> = (0..n).map(|_| None).collect();
    for (i, result) in done {
        results[i] = Some(result);
    }
    results
        .into_iter()
        .map(|r| r.expect("every job is claimed and fills its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_index_order() {
        let out = par_claim_indexed_map(257, |i| i * 3);
        assert_eq!(out, (0..257).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = par_claim_indexed_map(100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = par_claim_indexed_map(0, |i| i);
        assert!(out.is_empty());
        let mut states = vec![(); 2];
        let none: Vec<Result<usize, JobPanic>> = par_queue_try_map(&mut states, &[], |_, &j| j);
        assert!(none.is_empty());
    }

    #[test]
    fn claim_indexed_map_is_order_stable_and_complete() {
        let calls = AtomicUsize::new(0);
        let out = par_claim_indexed_map(517, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 7
        });
        assert_eq!(out, (0..517).map(|i| i * 7).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 517);
        let empty: Vec<usize> = par_claim_indexed_map(0, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn nested_calls_degrade_to_sequential() {
        let out = par_claim_indexed_map(4, |i| {
            let inner = par_claim_indexed_map(3, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out.len(), 4);
        assert_eq!(out[1], 10 + 11 + 12);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            par_claim_indexed_map(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn try_map_fails_only_the_panicking_job() {
        let mut states = vec![0u8; 8];
        let jobs: Vec<usize> = (0..200).collect();
        let out = par_queue_try_map(&mut states, &jobs, |_, &j| {
            if j == 97 {
                panic!("job 97 exploded");
            }
            j * 2
        });
        assert_eq!(out.len(), 200);
        for (j, r) in out.iter().enumerate() {
            if j == 97 {
                let p = r.as_ref().expect_err("job 97 must fail");
                assert!(p.message.contains("exploded"), "{p}");
            } else {
                assert_eq!(*r.as_ref().expect("sibling jobs unaffected"), j * 2);
            }
        }
    }

    #[test]
    fn later_batches_run_after_a_panicking_batch() {
        // A batch with panicking jobs must not abort sibling jobs or
        // disturb later, unrelated batches.
        let mut states = vec![(); 4];
        let jobs: Vec<usize> = (0..64).collect();
        let out = par_queue_try_map(&mut states, &jobs, |_, &j| {
            if j % 7 == 3 {
                panic!("periodic fault");
            }
            j
        });
        let failed = out.iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, jobs.iter().filter(|j| *j % 7 == 3).count());
        // Healthy batches run as before afterwards.
        for round in 0..20 {
            let ok = par_queue_try_map(&mut states, &jobs, |_, &j| j + round);
            assert_eq!(ok[10], Ok(10 + round));
            let claimed = par_claim_indexed_map(32, |i| i * i);
            assert_eq!(claimed[5], 25);
        }
    }

    #[test]
    fn queue_map_panic_carries_the_message() {
        let result = std::panic::catch_unwind(|| {
            par_claim_indexed_map(4, |j| {
                if j == 2 {
                    panic!("specific failure detail");
                }
                j
            })
        });
        let payload = result.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("message payload")
            .clone();
        assert!(msg.contains("specific failure detail"), "{msg}");
    }
}
