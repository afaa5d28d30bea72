//! Deterministic fork-join dispatch over indexed work.
//!
//! Every batch in the workspace (the `MacroBank` in `bpimc-core`, the
//! Monte-Carlo driver in `bpimc-circuit`) runs on one primitive, the
//! **claim queue** ([`par_queue_try_map`]): the calling thread and a small
//! pool of **persistent** worker threads pull contiguous blocks of
//! independent, index-addressed jobs from a shared counter, and results
//! come back **in job order** regardless of scheduling. Persistent workers
//! matter: spawning OS threads per batch costs hundreds of microseconds,
//! which would swamp sub-millisecond batches; the pool is spawned once and
//! re-used for the life of the process.
//!
//! Determinism comes from the jobs themselves being index-seeded; this
//! module only guarantees order-stable collection.
//!
//! `rayon` would be the off-the-shelf answer, but the build environment is
//! offline, so this is a dependency-free implementation on `std::sync`
//! primitives.
//!
//! # Host costs
//!
//! The workspace's one record of what thread hand-offs cost; other docs
//! point here. Measured on the 2-vCPU VM the repository benchmark runs on:
//!
//! | cost | measured |
//! |---|---|
//! | waking a parked pool worker: `send` until its first job starts (3,000 batches per run) | p50 21–33 µs, p90 48–58 µs, p99 0.1–0.3 ms |
//! | one thread hop on a window-1 loopback echo (std-only; a 134-byte line, an 85-byte reply; 4 alternating 5-s runs per variant): the reader thread replies itself (2 threads wake per request), or hands the line through a `Mutex`+`Condvar` queue to a thread that replies (3 threads) | p50 15.1–18.5 µs with 2 threads, 22.5–26.5 µs with 3 (p90 17.3–20.9 and 24.9–31.5 µs) |
//! | one `std::thread::available_parallelism()` call (it reads cgroup files) | 13–22 µs |
//! | one loopback request `write`: the client's kernel time per request on a window-16 stream, which includes the server's receive path and its reader's wake-up (per-thread `/proc` sampling) | 2.7–4.0 µs |
//! | a pool worker taking its share of the server's compute runs on perfbench's `serve_stored_w16`: the worker's CPU per request, its wake-ups and spins included (per-thread `/proc` sampling) | 3.6–4.3 µs |
//!
//! A served request executes in about 2 µs, so a worker wake-up costs ten
//! times or more the work it would take over: the claim queue never waits
//! for a wake-up it does not need (see [`par_queue_try_map`]), and nothing
//! may call `available_parallelism` once per request ([`worker_count`]
//! reads it once per process). On a pipelined stream the worker still cost
//! more CPU than the work it took over, so the server no longer uses the
//! pool: it runs each compute request on one macro, on its dispatcher
//! thread, or a synchronous request on its connection's reader, which
//! spares it the hop to the dispatcher.
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
use std::sync::{mpsc, Arc, OnceLock};

/// A job that panicked inside a parallel batch.
///
/// Carried per job by [`par_queue_try_map`] so one faulty job fails alone:
/// sibling jobs in the same batch still complete, later batches still run,
/// and the worker pool stays healthy (workers catch every unwind and never
/// die). The panic payload is rendered to text — `&str` and `String`
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

/// The number of parallel lanes (pool workers + the calling thread) used
/// for `n` independent jobs.
///
/// The host's parallelism is read once per process: on Linux
/// `available_parallelism` reads cgroup files, which costs more than a
/// served request's whole execution (see the module docs' host costs),
/// and the pool it sizes is fixed at its first use anyway.
pub fn worker_count(n: usize) -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    let host = *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    host.min(n.max(1))
}

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    senders: Vec<mpsc::Sender<Task>>,
}

thread_local! {
    /// True on pool worker threads; nested parallel calls degrade to
    /// sequential instead of deadlocking the (small) pool.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The process-wide worker pool: one thread per core beyond the caller.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let helpers = worker_count(usize::MAX).saturating_sub(1).max(1);
        let senders = (0..helpers)
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Task>();
                std::thread::Builder::new()
                    .name(format!("bpimc-worker-{i}"))
                    .spawn(move || {
                        IS_WORKER.with(|w| w.set(true));
                        // Tasks arrive pre-wrapped in panic guards. Spin
                        // only briefly before blocking: this box's sandboxed
                        // kernel throttles busy-spinning threads for tens of
                        // milliseconds, so prompt blocking beats long spins.
                        // The spin serves the pool's users, fig2's
                        // Monte-Carlo and `PrototypeClassifier::evaluate`;
                        // the server runs its compute without the pool.
                        'serve: loop {
                            for _ in 0..4_096 {
                                match rx.try_recv() {
                                    Ok(task) => {
                                        task();
                                        continue 'serve;
                                    }
                                    Err(mpsc::TryRecvError::Empty) => {}
                                    Err(mpsc::TryRecvError::Disconnected) => break 'serve,
                                }
                            }
                            match rx.recv() {
                                Ok(task) => task(),
                                Err(_) => break 'serve,
                            }
                        }
                    })
                    .expect("spawning a pool worker");
                tx
            })
            .collect();
        Pool { senders }
    })
}

/// Runs `f(i)` for every `i in 0..n` on the claim queue and returns the
/// results in index order.
///
/// `f` is called exactly once per index. The caller and the pool workers
/// pull contiguous index blocks from a shared queue instead of receiving
/// one fixed chunk each, which matters when per-index cost varies — a
/// Monte-Carlo sweep whose adaptive transient solves take different step
/// counts per sample, say. Static chunking makes the whole batch wait for
/// whichever lane drew the slow samples; claimed blocks keep every lane
/// busy to the end. Blocks are sized by [`par_queue_try_map`]'s heuristic
/// (`n / (lanes * 16)`, clamped to `[1, 256]`), which for the workspace's
/// millisecond-scale jobs keeps each claim well above a pool worker's
/// wake-up latency (see the module docs' host costs).
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
/// production claim/drain logic under the deterministic scheduler.
///
/// Invariants the protocol maintains (and the models assert):
///
/// * every index in `0..len` is claimed by exactly one participant;
/// * `active` is raised before a worker touches a claimed block and
///   lowered after, so `active == 0` with the queue exhausted means no
///   worker will ever touch batch memory again.
pub(crate) struct ClaimQueue {
    /// Next unclaimed job index.
    next: AtomicUsize,
    /// Claims currently being executed by pool workers.
    active: AtomicUsize,
    /// Total job count.
    len: usize,
    /// Contiguous indices handed out per claim.
    block: usize,
}

impl ClaimQueue {
    pub(crate) fn new(len: usize, block: usize) -> Self {
        Self {
            next: AtomicUsize::named("claim.next", 0),
            active: AtomicUsize::named("claim.active", 0),
            len,
            block: block.max(1),
        }
    }

    /// A worker's claim: raises `active` *before* taking a block so an
    /// observer can never see "queue empty, nobody active" while jobs are
    /// still being executed; lowers it again (and returns `None`) when the
    /// queue is exhausted.
    pub(crate) fn worker_claim(&self) -> Option<Range<usize>> {
        self.active.fetch_add(1, Ordering::AcqRel);
        let start = self.next.fetch_add(self.block, Ordering::AcqRel);
        if start >= self.len {
            self.active.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(start..(start + self.block).min(self.len))
    }

    /// Marks a worker's claimed block finished (pairs with a `Some` return
    /// from [`ClaimQueue::worker_claim`]).
    pub(crate) fn worker_done(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// The caller's claim: no `active` bookkeeping — the caller waits for
    /// the workers, never for itself.
    pub(crate) fn caller_claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.block, Ordering::AcqRel);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.block).min(self.len))
    }

    /// Worker claims currently in flight.
    pub(crate) fn active_claims(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }
}

/// Shared state of one claim-queue batch (see [`par_queue_try_map`]).
/// Arc'd so late-waking workers can inspect it safely after the caller has
/// returned.
struct QueueShared {
    queue: ClaimQueue,
    caller: std::thread::Thread,
}

/// Runs `f(&mut state, &jobs[i])` for every job, with the **caller and the
/// pool workers pulling jobs from a shared claim queue**, and returns the
/// per-job results in job order.
///
/// Each participating thread owns one `states` slot exclusively for the
/// whole batch. Unlike chunked dispatch, the caller never waits on a worker
/// *wake-up*: if the pool is slow to wake (a wake-up's tail reaches
/// 0.1–0.3 ms, see the module docs' host costs), the caller simply drains
/// the queue itself and waits only for jobs a worker actually claimed.
/// Small batches therefore cost at worst sequential time; big batches
/// parallelize. Called from a pool worker (a job that starts a nested
/// batch), the batch runs sequentially on the calling thread instead of
/// waiting on the busy pool.
///
/// Job-to-state assignment is scheduling-dependent: `f` must produce the
/// same result whichever state slot it runs on (true for self-contained
/// jobs that write their operands before use).
///
/// **Per-job panic containment**: a job that panics yields `Err(JobPanic)`
/// in its own result slot while every sibling job — including later jobs
/// claimed by the same worker — still runs and returns `Ok`. The worker
/// pool stays healthy and subsequent batches are unaffected. A panicking
/// job may leave its state slot (`&mut S`) partially updated; `f` must
/// therefore tolerate running on a state slot a previous job abandoned
/// mid-way (true for the same self-contained jobs).
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
    let nested = IS_WORKER.with(|w| w.get());
    if lanes <= 1 || nested {
        let s0 = &mut states[0];
        return jobs.iter().map(|j| catch_job(|| f(s0, j))).collect();
    }

    let mut results: Vec<Option<Result<T, JobPanic>>> = (0..n).map(|_| None).collect();
    // Claim in blocks: contended atomic RMWs cost ~0.5 us on virtualized
    // hosts, so per-job claiming would swamp fine-grained jobs. Blocks keep
    // the claim overhead at a fraction of a percent while still giving
    // lanes * 16 units of load-balancing granularity.
    let block = (n / (lanes * 16)).clamp(1, 256);
    let shared = Arc::new(QueueShared {
        queue: ClaimQueue::new(n, block),
        caller: std::thread::current(),
    });

    // Raw-pointer captures: a worker that wakes only after this call has
    // returned must not hold live references into our stack. It re-creates
    // references ONLY after winning a claim, which the wait loop below
    // guarantees cannot happen once we have returned: the caller leaves
    // only with the queue exhausted (`next` past `len`), so a late-waking
    // worker's claim fails and it exits without touching the pointers.
    let jobs_ptr = jobs.as_ptr() as usize;
    let f_ptr = &f as *const F as usize;
    let res_ptr = results.as_mut_ptr() as usize;

    let (first, rest) = states.split_first_mut().expect("non-empty states");
    let senders = &pool().senders;
    for (w, state) in rest.iter_mut().take(lanes - 1).enumerate() {
        let state_ptr = state as *mut S as usize;
        let sh = shared.clone();
        let task: Task = Box::new(move || loop {
            let Some(claim) = sh.queue.worker_claim() else {
                sh.caller.unpark();
                break;
            };
            // SAFETY: the claimed block is unique, so the job reads and the
            // result slot writes are unaliased; the caller cannot have
            // returned (it waits for `active` to drain and `next` to pass
            // `len`), so the pointers are live. Panics are caught PER JOB:
            // a faulty job records a `JobPanic` in its own slot and the
            // loop continues with the block's remaining jobs, so every slot
            // is always filled.
            unsafe {
                let f = &*(f_ptr as *const F);
                for i in claim {
                    let job = &*(jobs_ptr as *const J).add(i);
                    let state = &mut *(state_ptr as *mut S);
                    let out = catch_job(|| f(state, job));
                    *(res_ptr as *mut Option<Result<T, JobPanic>>).add(i) = Some(out);
                }
            }
            sh.queue.worker_done();
        });
        senders[w % senders.len()]
            .send(task)
            .expect("pool worker alive");
    }

    // The caller drains the queue with the first state slot. Results go
    // through the same raw pointer the workers use, so no `&mut` to the
    // vector is formed while they might also be writing disjoint slots.
    while let Some(claim) = shared.queue.caller_claim() {
        #[allow(clippy::needless_range_loop)] // `i` also addresses the raw result slot
        for i in claim {
            let out = catch_job(|| f(first, &jobs[i]));
            // SAFETY: the claimed block is unique across participants.
            unsafe {
                *(res_ptr as *mut Option<Result<T, JobPanic>>).add(i) = Some(out);
            }
        }
    }
    // Wait until no worker is executing a claim. Workers that never woke
    // see an exhausted queue later and exit without touching our stack.
    let mut spins = 0u32;
    while shared.queue.active_claims() > 0 {
        spins += 1;
        if spins > 4_096 {
            std::thread::park_timeout(std::time::Duration::from_millis(1));
        }
    }
    results
        .into_iter()
        .map(|x| x.expect("every job is claimed and fills its slot"))
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
    fn repeated_batches_reuse_the_pool() {
        // Thousands of small batches: would take seconds with per-batch
        // thread spawns, milliseconds with the persistent pool.
        let mut total = 0usize;
        for round in 0..2000 {
            let out = par_claim_indexed_map(4, |i| i + round);
            total += out.iter().sum::<usize>();
        }
        assert!(total > 0);
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
    fn pool_survives_a_panicking_batch() {
        // A batch with panicking jobs must not abort sibling jobs or wedge
        // the pool for later, unrelated batches.
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
        // The pool keeps serving healthy batches afterwards.
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
