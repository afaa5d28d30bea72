//! The deterministic virtual scheduler behind the `model` cargo feature.
//!
//! A **model execution** runs a closure (the *model body*) plus every task
//! it spawns through [`crate::sync::thread::spawn`] on real OS threads, but
//! with exactly **one task runnable at a time**: every visible operation on
//! a shim primitive (`lock`, `wait`, `notify`, atomic RMW, `send`/`recv`,
//! `spawn`/`join`) is a *schedule point* where the scheduler picks which
//! task runs next. The pick sequence is a pure function of the seed and the
//! policy, so any explored schedule — including a failing one — replays
//! byte-identically from its seed.
//!
//! Three exploration strategies are provided (see [`ExploreConfig`]):
//!
//! * **random** — uniformly random runnable task at every schedule point;
//! * **PCT-style priorities** (`Policy::Pct`) — each task gets a random
//!   priority, the highest-priority runnable task runs, and `depth − 1`
//!   random *change points* demote the running task mid-execution. Finds
//!   bugs that need few ordering constraints with high probability;
//! * **bounded exhaustive** — depth-first enumeration of every schedule (up
//!   to an execution budget) by replaying recorded decision vectors. For
//!   small models this is a proof, not a sample.
//!
//! Failure modes turned into [`ModelFailure`] reports (with the full
//! schedule trace and a replay seed): a task panic (assertion in the model
//! body), whole-program **deadlock** (every live task blocked), and a blown
//! step budget (livelock guard).
//!
//! Scheduling is cooperative: a blocked task parks on one condvar shared
//! with the scheduler, and the handoff spins briefly before parking because
//! a parked thread's wake-up costs tens of microseconds (see the host costs
//! in `parallel`'s module docs). Model executions must not call into the
//! process-wide worker pool (`parallel::par_*`): pool threads are not model
//! tasks. Models drive the claim-queue protocol directly instead.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard, Once};
use std::time::Duration;

/// Identifies one task inside one model execution (`t0` is the model body).
pub(crate) type TaskId = usize;

/// Panic payload used to unwind model tasks once an execution has failed;
/// never observed by user code (the task wrapper swallows it).
struct ModelAbort;

thread_local! {
    static CURRENT: RefCell<Option<TaskCtx>> = const { RefCell::new(None) };
    /// Suppresses the default panic-hook backtrace for intentional model
    /// failures (the payload is captured and re-reported with the trace).
    static IN_MODEL_TASK: Cell<bool> = const { Cell::new(false) };
}

#[derive(Clone)]
struct TaskCtx {
    exec: Arc<Execution>,
    task: TaskId,
}

/// The execution the current thread is a task of, if any. Shim primitives
/// call this at construction to decide between `std` and model backing.
pub(crate) fn current() -> Option<Arc<Execution>> {
    CURRENT.with(|c| c.borrow().as_ref().map(|t| t.exec.clone()))
}

fn ctx() -> TaskCtx {
    CURRENT.with(|c| c.borrow().clone()).expect(
        "model primitive used outside a model task; create shim primitives \
         inside the model body so they bind to the execution",
    )
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How the scheduler picks the next runnable task at each schedule point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Policy {
    /// Uniformly random among the runnable tasks.
    Random,
    /// PCT-style priority scheduling: random per-task priorities, highest
    /// runnable wins, with `depth − 1` random change points that demote the
    /// running task below everyone else.
    Pct {
        /// The PCT depth parameter `d`; `d − 1` priority change points.
        depth: u32,
    },
    /// Replays an explicit decision vector (indices into the sorted
    /// runnable set); past its end the first runnable task is chosen.
    /// The exhaustive explorer drives this; also usable to hand-replay a
    /// decision string from a failure report.
    Replay(Vec<usize>),
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Random => write!(f, "random"),
            Policy::Pct { depth } => write!(f, "pct(depth={depth})"),
            Policy::Replay(v) => write!(f, "replay{v:?}"),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Wait {
    /// Blocked on a resource (mutex, rwlock, condvar or channel).
    Resource(usize),
    /// Blocked joining another task.
    Task(TaskId),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Runnable,
    Blocked(Wait),
    Finished,
}

struct TaskState {
    run: Run,
    /// PCT priority (higher runs first); unused by other policies.
    priority: u64,
}

pub(crate) enum Resource {
    Mutex {
        owner: Option<TaskId>,
    },
    RwLock {
        writer: Option<TaskId>,
        readers: usize,
    },
    Condvar {
        waiters: Vec<TaskId>,
    },
    Channel {
        senders: usize,
        receiver_alive: bool,
    },
}

struct ResourceSlot {
    kind: Resource,
    label: String,
}

pub(crate) struct ExecState {
    tasks: Vec<TaskState>,
    resources: Vec<ResourceSlot>,
    /// The one task allowed to run (authoritative copy; the atomic mirror
    /// exists only for the spin fast path).
    active: TaskId,
    /// Tasks not yet `Finished`.
    live: usize,
    steps: u64,
    max_steps: u64,
    rng: u64,
    policy: Policy,
    /// PCT change points (step numbers) and the next demotion priority
    /// (counts down so each demotion lands below all previous ones).
    pct_change_points: Vec<u64>,
    pct_next_low: u64,
    /// `(chosen index, options)` at every schedule point with > 1 runnable
    /// task; the exhaustive explorer's DFS frontier.
    decisions: Vec<(usize, usize)>,
    trace: String,
    failure: Option<String>,
}

impl ExecState {
    fn runnable(&self) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|&t| self.tasks[t].run == Run::Runnable)
            .collect()
    }

    /// Picks the next task among `options` (sorted, non-empty) per policy.
    fn choose(&mut self, options: &[TaskId]) -> TaskId {
        if options.len() == 1 {
            return options[0];
        }
        let idx = match &self.policy {
            Policy::Random => (splitmix(&mut self.rng) % options.len() as u64) as usize,
            Policy::Pct { .. } => {
                let best = options
                    .iter()
                    .max_by_key(|&&t| self.tasks[t].priority)
                    .expect("non-empty options");
                options.iter().position(|t| t == best).expect("found above")
            }
            Policy::Replay(prefix) => prefix
                .get(self.decisions.len())
                .copied()
                .unwrap_or(0)
                .min(options.len() - 1),
        };
        self.decisions.push((idx, options.len()));
        options[idx]
    }

    /// PCT change point: demote the currently running task below every
    /// other priority so someone else wins the next pick.
    fn pct_maybe_demote(&mut self, me: TaskId) {
        if let Policy::Pct { .. } = self.policy {
            if self.pct_change_points.contains(&self.steps) {
                self.pct_next_low = self.pct_next_low.saturating_sub(1);
                self.tasks[me].priority = self.pct_next_low;
            }
        }
    }

    fn describe_blocked(&self) -> String {
        let mut s = String::new();
        for (t, task) in self.tasks.iter().enumerate() {
            if let Run::Blocked(w) = task.run {
                let what = match w {
                    Wait::Resource(rid) => self.resources[rid].label.clone(),
                    Wait::Task(j) => format!("join t{j}"),
                };
                let _ = writeln!(s, "  t{t} blocked on {what}");
            }
        }
        s
    }
}

/// One model execution: the scheduler state plus the condvar every task
/// parks on between its turns.
pub(crate) struct Execution {
    state: StdMutex<ExecState>,
    cv: StdCondvar,
    /// Mirror of `ExecState::active` for the lock-free spin fast path.
    active: AtomicUsize,
    /// Set on the first failure; tasks unwind with `ModelAbort` when they
    /// observe it.
    aborted: AtomicBool,
    threads: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Execution {
    fn new(policy: Policy, seed: u64, max_steps: u64) -> Self {
        let mut rng = seed;
        // Warm the stream so near-by seeds diverge immediately.
        let _ = splitmix(&mut rng);
        let mut pct_change_points = Vec::new();
        if let Policy::Pct { depth } = policy {
            // Change points land in the first `max_steps` window; cheap
            // approximation of PCT's length estimate that keeps the pick
            // sequence a pure function of (seed, depth).
            let horizon = max_steps.clamp(1, 512);
            for _ in 1..depth {
                pct_change_points.push(splitmix(&mut rng) % horizon);
            }
        }
        Self {
            state: StdMutex::new(ExecState {
                tasks: Vec::new(),
                resources: Vec::new(),
                active: 0,
                live: 0,
                steps: 0,
                max_steps,
                rng,
                policy,
                pct_change_points,
                pct_next_low: u64::MAX / 2,
                decisions: Vec::new(),
                trace: String::new(),
                failure: None,
            }),
            cv: StdCondvar::new(),
            active: AtomicUsize::new(usize::MAX),
            aborted: AtomicBool::new(false),
            threads: StdMutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> StdGuard<'_, ExecState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn abort_panic(&self) -> ! {
        std::panic::panic_any(ModelAbort);
    }

    /// Registers a resource; not a schedule point (primitive construction
    /// has no visible concurrency).
    pub(crate) fn register(&self, kind: Resource, name: Option<&'static str>) -> usize {
        let mut st = self.lock();
        let id = st.resources.len();
        let tag = match kind {
            Resource::Mutex { .. } => "mutex",
            Resource::RwLock { .. } => "rwlock",
            Resource::Condvar { .. } => "condvar",
            Resource::Channel { .. } => "channel",
        };
        let label = match name {
            Some(n) => format!("{tag}:{n}"),
            None => format!("{tag}:r{id}"),
        };
        st.resources.push(ResourceSlot { kind, label });
        id
    }

    pub(crate) fn resource_label(&self, rid: usize) -> String {
        self.lock().resources[rid].label.clone()
    }

    /// The scheduling preamble of every visible op: bump the step counter,
    /// append the trace line, and maybe hand the turn to another runnable
    /// task (returning once this task is scheduled again).
    fn preempt<'a>(
        &'a self,
        mut st: StdGuard<'a, ExecState>,
        me: TaskId,
        label: &str,
    ) -> StdGuard<'a, ExecState> {
        if self.aborted.load(Ordering::Acquire) {
            drop(st);
            self.abort_panic();
        }
        st.steps += 1;
        let step = st.steps;
        let _ = writeln!(st.trace, "s{step:05} t{me} {label}");
        if step > st.max_steps {
            let max = st.max_steps;
            return self.fail(
                st,
                format!(
                    "step budget exceeded ({max} schedule points): livelock, or raise max_steps"
                ),
            );
        }
        st.pct_maybe_demote(me);
        let options = st.runnable();
        debug_assert!(options.contains(&me), "the active task is runnable");
        let next = st.choose(&options);
        if next != me {
            st.active = next;
            self.active.store(next, Ordering::Release);
            self.cv.notify_all();
            st = self.wait_active(st, me);
        }
        st
    }

    /// Parks until this task is the active one again. Spins briefly first:
    /// the handing-off task sets `active` within microseconds, while waking
    /// a parked thread costs tens of microseconds (see the host costs in
    /// `parallel`'s module docs).
    fn wait_active<'a>(
        &'a self,
        st: StdGuard<'a, ExecState>,
        me: TaskId,
    ) -> StdGuard<'a, ExecState> {
        drop(st);
        for _ in 0..4_096 {
            if self.aborted.load(Ordering::Acquire) {
                self.abort_panic();
            }
            if self.active.load(Ordering::Acquire) == me {
                break;
            }
            std::hint::spin_loop();
        }
        let mut st = self.lock();
        while st.active != me {
            if self.aborted.load(Ordering::Acquire) {
                drop(st);
                self.abort_panic();
            }
            let (g, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(1))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = g;
        }
        st
    }

    /// Records the first failure, wakes everyone, and unwinds the caller.
    fn fail<'a>(&'a self, mut st: StdGuard<'a, ExecState>, msg: String) -> StdGuard<'a, ExecState> {
        self.fail_locked(&mut st, msg);
        drop(st);
        self.abort_panic();
    }

    fn fail_locked(&self, st: &mut ExecState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        self.aborted.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// One non-blocking visible op: schedule point, then `effect` runs
    /// atomically under the scheduler lock.
    pub(crate) fn op<R>(&self, label: &str, effect: impl FnOnce(&mut ExecState) -> R) -> R {
        let me = ctx().task;
        let mut st = self.lock();
        st = self.preempt(st, me, label);
        effect(&mut st)
    }

    /// One possibly-blocking visible op: after the schedule point,
    /// `attempt` either completes or names the wait; blocked tasks hand the
    /// turn over and re-attempt when rescheduled. Detects whole-program
    /// deadlock (no runnable task left).
    fn blocking_op<R>(
        &self,
        label: &str,
        mut attempt: impl FnMut(&mut ExecState, TaskId) -> Result<R, Wait>,
    ) -> R {
        let me = ctx().task;
        let mut st = self.lock();
        st = self.preempt(st, me, label);
        loop {
            match attempt(&mut st, me) {
                Ok(r) => return r,
                Err(wait) => {
                    st.tasks[me].run = Run::Blocked(wait);
                    let options = st.runnable();
                    if options.is_empty() {
                        let blocked = st.describe_blocked();
                        st = self.fail(
                            st,
                            format!("deadlock: every live task is blocked\n{blocked}"),
                        );
                        drop(st);
                        unreachable!("fail unwinds");
                    }
                    let next = st.choose(&options);
                    st.active = next;
                    self.active.store(next, Ordering::Release);
                    self.cv.notify_all();
                    st = self.wait_active(st, me);
                }
            }
        }
    }

    /// A release-side op. A schedule point in normal execution; during an
    /// unwind (panic cleanup, or the execution already aborted) it applies
    /// the effect silently and never panics, so guard drops stay safe.
    pub(crate) fn release_op(&self, label: &str, effect: impl FnOnce(&mut ExecState)) {
        if std::thread::panicking() || self.aborted.load(Ordering::Acquire) {
            effect(&mut self.lock());
            return;
        }
        self.op(label, effect);
    }

    // ---- primitive protocols -------------------------------------------

    pub(crate) fn acquire_mutex(&self, rid: usize, label: &str) {
        self.blocking_op(label, |st, me| match &mut st.resources[rid].kind {
            Resource::Mutex {
                owner: owner @ None,
            } => {
                *owner = Some(me);
                Ok(())
            }
            Resource::Mutex { .. } => Err(Wait::Resource(rid)),
            _ => unreachable!("rid {rid} is a mutex"),
        });
    }

    pub(crate) fn release_mutex(&self, rid: usize, label: &str) {
        self.release_op(label, |st| {
            match &mut st.resources[rid].kind {
                Resource::Mutex { owner } => *owner = None,
                _ => unreachable!("rid {rid} is a mutex"),
            }
            wake_waiters(st, rid);
        });
    }

    pub(crate) fn acquire_read(&self, rid: usize, label: &str) {
        self.blocking_op(label, |st, _| match &mut st.resources[rid].kind {
            Resource::RwLock {
                writer: None,
                readers,
            } => {
                *readers += 1;
                Ok(())
            }
            Resource::RwLock { .. } => Err(Wait::Resource(rid)),
            _ => unreachable!("rid {rid} is a rwlock"),
        });
    }

    pub(crate) fn release_read(&self, rid: usize, label: &str) {
        self.release_op(label, |st| {
            match &mut st.resources[rid].kind {
                Resource::RwLock { readers, .. } => *readers -= 1,
                _ => unreachable!("rid {rid} is a rwlock"),
            }
            wake_waiters(st, rid);
        });
    }

    pub(crate) fn acquire_write(&self, rid: usize, label: &str) {
        self.blocking_op(label, |st, me| match &mut st.resources[rid].kind {
            Resource::RwLock {
                writer: writer @ None,
                readers: 0,
            } => {
                *writer = Some(me);
                Ok(())
            }
            Resource::RwLock { .. } => Err(Wait::Resource(rid)),
            _ => unreachable!("rid {rid} is a rwlock"),
        });
    }

    pub(crate) fn release_write(&self, rid: usize, label: &str) {
        self.release_op(label, |st| {
            match &mut st.resources[rid].kind {
                Resource::RwLock { writer, .. } => *writer = None,
                _ => unreachable!("rid {rid} is a rwlock"),
            }
            wake_waiters(st, rid);
        });
    }

    /// Condvar wait phase 1: atomically release the mutex and join the
    /// waiter list; returns once notified. The caller reacquires the mutex
    /// (phase 2) with [`Execution::acquire_mutex`].
    pub(crate) fn condvar_wait(&self, cv_rid: usize, mutex_rid: usize, label: &str) {
        let mut registered = false;
        self.blocking_op(label, |st, me| {
            if registered {
                // Only a notify makes a waiter runnable again, so being
                // rescheduled here means we were notified.
                return Ok(());
            }
            registered = true;
            match &mut st.resources[mutex_rid].kind {
                Resource::Mutex { owner } => *owner = None,
                _ => unreachable!("rid {mutex_rid} is a mutex"),
            }
            wake_waiters(st, mutex_rid);
            match &mut st.resources[cv_rid].kind {
                Resource::Condvar { waiters } => waiters.push(me),
                _ => unreachable!("rid {cv_rid} is a condvar"),
            }
            Err(Wait::Resource(cv_rid))
        });
    }

    pub(crate) fn condvar_notify(&self, cv_rid: usize, all: bool, label: &str) {
        self.op(label, |st| {
            let woken: Vec<TaskId> = match &mut st.resources[cv_rid].kind {
                Resource::Condvar { waiters } => {
                    if all {
                        std::mem::take(waiters)
                    } else if waiters.is_empty() {
                        // std semantics: a notify with no waiter is lost —
                        // exactly the behavior lost-wakeup bugs need.
                        Vec::new()
                    } else {
                        vec![waiters.remove(0)]
                    }
                }
                _ => unreachable!("rid {cv_rid} is a condvar"),
            };
            for t in woken {
                st.tasks[t].run = Run::Runnable;
            }
        });
    }

    /// Channel bookkeeping ops; the typed queue lives in the shim (only one
    /// task runs at a time, so the effect closure mutates it race-free).
    pub(crate) fn channel_op<R>(
        &self,
        label: &str,
        effect: impl FnOnce(&mut Resource) -> R,
        rid: usize,
    ) -> R {
        self.op(label, |st| {
            let r = effect(&mut st.resources[rid].kind);
            wake_waiters(st, rid);
            r
        })
    }

    /// Blocking channel receive; `attempt` inspects the resource and the
    /// typed queue.
    pub(crate) fn channel_recv<R>(
        &self,
        rid: usize,
        label: &str,
        mut attempt: impl FnMut(&mut Resource) -> Option<R>,
    ) -> R {
        self.blocking_op(label, |st, _| {
            attempt(&mut st.resources[rid].kind).ok_or(Wait::Resource(rid))
        })
    }

    /// Non-scheduling channel bookkeeping for `Drop` impls; never panics.
    pub(crate) fn channel_silent(&self, effect: impl FnOnce(&mut Resource), rid: usize) {
        let mut st = self.lock();
        effect(&mut st.resources[rid].kind);
        wake_waiters(&mut st, rid);
        self.cv.notify_all();
    }

    pub(crate) fn yield_now(&self) {
        self.op("yield", |_| {});
    }

    /// Registers and starts a new task running `f`; returns its id.
    pub(crate) fn spawn_task<T, F>(self: &Arc<Self>, f: F) -> (TaskId, Arc<StdMutex<Option<T>>>)
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let tid = self.op("spawn", |st| {
            let priority = splitmix(&mut st.rng);
            st.tasks.push(TaskState {
                run: Run::Runnable,
                priority,
            });
            st.live += 1;
            st.tasks.len() - 1
        });
        let slot: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
        let slot2 = slot.clone();
        let exec = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("bpimc-model-t{tid}"))
            .spawn(move || {
                run_task(exec, tid, move || {
                    let v = f();
                    *slot2
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(v);
                });
            })
            .expect("spawning a model task thread");
        self.threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(handle);
        (tid, slot)
    }

    /// Blocks the caller until task `tid` finishes.
    pub(crate) fn join_task(&self, tid: TaskId) {
        self.blocking_op(&format!("join t{tid}"), |st, _| {
            if st.tasks[tid].run == Run::Finished {
                Ok(())
            } else {
                Err(Wait::Task(tid))
            }
        });
    }

    /// Task exit: wake joiners and hand the turn to someone else (or
    /// declare deadlock / completion).
    fn finish_task(&self, tid: TaskId, panic_msg: Option<String>) {
        let mut st = self.lock();
        st.tasks[tid].run = Run::Finished;
        st.live -= 1;
        let _ = writeln!(st.trace, "...... t{tid} exit");
        for t in 0..st.tasks.len() {
            if st.tasks[t].run == Run::Blocked(Wait::Task(tid)) {
                st.tasks[t].run = Run::Runnable;
            }
        }
        if let Some(msg) = panic_msg {
            self.fail_locked(&mut st, format!("t{tid} panicked: {msg}"));
            return;
        }
        if st.live == 0 {
            self.cv.notify_all();
            return;
        }
        let options = st.runnable();
        if options.is_empty() {
            let blocked = st.describe_blocked();
            self.fail_locked(
                &mut st,
                format!("deadlock: every live task is blocked\n{blocked}"),
            );
            return;
        }
        let next = st.choose(&options);
        st.active = next;
        self.active.store(next, Ordering::Release);
        self.cv.notify_all();
    }

    /// Exit path for tasks unwound by an abort: no scheduling, no failure.
    fn finish_silent(&self, tid: TaskId) {
        let mut st = self.lock();
        st.tasks[tid].run = Run::Finished;
        st.live -= 1;
        self.cv.notify_all();
    }
}

/// Wakes every task blocked on `rid`; they re-attempt when scheduled.
fn wake_waiters(st: &mut ExecState, rid: usize) {
    for t in 0..st.tasks.len() {
        if st.tasks[t].run == Run::Blocked(Wait::Resource(rid)) {
            st.tasks[t].run = Run::Runnable;
        }
    }
}

fn payload_to_string(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_MODEL_TASK.with(Cell::get) {
                return;
            }
            prev(info);
        }));
    });
}

/// The OS-thread body of one model task: bind the context, wait for the
/// first turn, run, and report the exit to the scheduler.
fn run_task(exec: Arc<Execution>, tid: TaskId, body: impl FnOnce()) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(TaskCtx {
            exec: exec.clone(),
            task: tid,
        })
    });
    IN_MODEL_TASK.with(|c| c.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let st = exec.wait_active(exec.lock(), tid);
        drop(st);
        body();
    }));
    match result {
        Ok(()) => exec.finish_task(tid, None),
        Err(p) if p.is::<ModelAbort>() => exec.finish_silent(tid),
        Err(p) => exec.finish_task(tid, Some(payload_to_string(&*p))),
    }
    IN_MODEL_TASK.with(|c| c.set(false));
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// A schedule under which a model's invariant failed, with everything
/// needed to reproduce it: the model name, the exact schedule (seed +
/// policy or decision vector), the failure message and the full trace.
#[derive(Debug, Clone)]
pub struct ModelFailure {
    /// The model's registered name.
    pub(crate) model: String,
    /// Human-readable schedule identity (`seed 7 via pct(depth=3)` …).
    pub(crate) schedule: String,
    /// The replay seed, when the failing schedule was seed-driven.
    pub(crate) seed: Option<u64>,
    /// What went wrong: the panic message, deadlock report, or step-budget
    /// overrun.
    pub(crate) message: String,
    /// The full schedule trace — one line per schedule point, byte-stable
    /// under replay.
    pub(crate) trace: String,
}

impl fmt::Display for ModelFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model '{}' failed under {}", self.model, self.schedule)?;
        writeln!(f, "{}", self.message.trim_end())?;
        if let Some(seed) = self.seed {
            writeln!(
                f,
                "replay: repro model-check --model {} --seed {seed}  (or BPIMC_MODEL_SEED={seed} cargo test --features model)",
                self.model
            )?;
        }
        write!(
            f,
            "trace ({} lines):\n{}",
            self.trace.lines().count(),
            self.trace
        )
    }
}

impl std::error::Error for ModelFailure {}

/// Aggregate statistics of one exploration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Executions performed.
    pub executions: u64,
    /// Schedule points across all executions.
    pub steps: u64,
    /// Longest single execution, in schedule points.
    pub max_steps_seen: u64,
}

/// Exploration parameters for [`explore`] / [`check`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Seeded executions to run (seed `base_seed + k`; even seeds use the
    /// random policy, odd seeds PCT).
    pub seeds: u64,
    /// First seed of the matrix.
    pub base_seed: u64,
    /// PCT depth used by odd seeds.
    pub depth: u32,
    /// Per-execution schedule-point budget (livelock guard).
    pub max_steps: u64,
    /// `Some(budget)`: bounded exhaustive DFS over decision vectors
    /// (instead of the seed matrix), stopping after `budget` executions.
    pub exhaustive: Option<u64>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            seeds: 16,
            base_seed: 0,
            depth: 3,
            max_steps: 20_000,
            exhaustive: None,
        }
    }
}

impl ExploreConfig {
    /// A config honoring the `BPIMC_MODEL_SEEDS`, `BPIMC_MODEL_DEPTH` and
    /// `BPIMC_MODEL_SEED` environment overrides; `default_seeds` applies
    /// when `BPIMC_MODEL_SEEDS` is unset. `BPIMC_MODEL_SEED=s` pins the run
    /// to exactly seed `s` — the one-variable replay knob.
    pub fn from_env(default_seeds: u64) -> Self {
        let mut cfg = Self {
            seeds: default_seeds,
            ..Self::default()
        };
        if let Some(n) = env_u64("BPIMC_MODEL_SEEDS") {
            cfg.seeds = n;
        }
        if let Some(d) = env_u64("BPIMC_MODEL_DEPTH") {
            cfg.depth = d as u32;
        }
        if let Some(s) = env_u64("BPIMC_MODEL_SEED") {
            cfg.base_seed = s;
            cfg.seeds = 1;
        }
        cfg
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// The policy seed `s` maps to in a seed matrix: even seeds explore with
/// uniform randomness, odd seeds with PCT priorities, so one matrix covers
/// both strategies and the seed alone identifies the schedule.
pub(crate) fn policy_for_seed(seed: u64, depth: u32) -> Policy {
    if seed.is_multiple_of(2) {
        Policy::Random
    } else {
        Policy::Pct { depth }
    }
}

struct RunOutcome {
    failure: Option<String>,
    trace: String,
    steps: u64,
    decisions: Vec<(usize, usize)>,
}

/// Runs `body` once under `policy`/`seed` and collects the outcome.
fn run_once<F>(policy: Policy, seed: u64, max_steps: u64, body: &Arc<F>) -> RunOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    install_panic_hook();
    let exec = Arc::new(Execution::new(policy, seed, max_steps));
    {
        let mut st = exec.lock();
        let priority = splitmix(&mut st.rng);
        st.tasks.push(TaskState {
            run: Run::Runnable,
            priority,
        });
        st.live = 1;
        st.active = 0;
    }
    let body = body.clone();
    let exec2 = exec.clone();
    let root = std::thread::Builder::new()
        .name("bpimc-model-t0".into())
        .spawn(move || run_task(exec2, 0, move || body()))
        .expect("spawning the model root task");
    exec.threads
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(root);
    exec.active.store(0, Ordering::Release);
    exec.cv.notify_all();

    let mut st = exec.lock();
    while st.live > 0 {
        let (g, _) = exec
            .cv
            .wait_timeout(st, Duration::from_millis(2))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st = g;
    }
    let outcome = RunOutcome {
        failure: st.failure.take(),
        trace: std::mem::take(&mut st.trace),
        steps: st.steps,
        decisions: std::mem::take(&mut st.decisions),
    };
    drop(st);
    let threads = std::mem::take(
        &mut *exec
            .threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    for h in threads {
        let _ = h.join();
    }
    outcome
}

/// Runs `body` under one explicit seed of the matrix (the replay entry
/// point: byte-identical trace for identical `(seed, depth, max_steps)`).
pub fn run_seed<F>(seed: u64, depth: u32, max_steps: u64, body: F) -> RunOutcomePublic
where
    F: Fn() + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let out = run_once(policy_for_seed(seed, depth), seed, max_steps, &body);
    RunOutcomePublic {
        failure: out.failure,
        trace: out.trace,
        steps: out.steps,
    }
}

/// Public slice of one execution's outcome (see [`run_seed`]).
#[derive(Debug, Clone)]
pub struct RunOutcomePublic {
    /// The failure message, if the execution failed.
    pub failure: Option<String>,
    /// The schedule trace.
    pub trace: String,
    /// Schedule points taken.
    pub steps: u64,
}

/// Explores `body` under `cfg`: the seed matrix (or bounded-exhaustive
/// DFS), stopping at the first failing schedule.
pub fn explore<F>(
    name: &str,
    cfg: &ExploreConfig,
    body: F,
) -> Result<ExploreStats, Box<ModelFailure>>
where
    F: Fn() + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let mut stats = ExploreStats::default();
    if let Some(budget) = cfg.exhaustive {
        return explore_exhaustive(name, cfg, budget, &body);
    }
    for k in 0..cfg.seeds {
        let seed = cfg.base_seed.wrapping_add(k);
        let policy = policy_for_seed(seed, cfg.depth);
        let out = run_once(policy.clone(), seed, cfg.max_steps, &body);
        stats.executions += 1;
        stats.steps += out.steps;
        stats.max_steps_seen = stats.max_steps_seen.max(out.steps);
        if let Some(message) = out.failure {
            return Err(Box::new(ModelFailure {
                model: name.to_string(),
                schedule: format!("seed {seed} via {policy}"),
                seed: Some(seed),
                message,
                trace: out.trace,
            }));
        }
    }
    Ok(stats)
}

/// Depth-first enumeration of decision vectors: replay the current prefix,
/// then advance the deepest decision that still has unexplored options.
fn explore_exhaustive<F>(
    name: &str,
    cfg: &ExploreConfig,
    budget: u64,
    body: &Arc<F>,
) -> Result<ExploreStats, Box<ModelFailure>>
where
    F: Fn() + Send + Sync + 'static,
{
    let mut stats = ExploreStats::default();
    let mut prefix: Vec<usize> = Vec::new();
    loop {
        let out = run_once(Policy::Replay(prefix.clone()), 0, cfg.max_steps, body);
        stats.executions += 1;
        stats.steps += out.steps;
        stats.max_steps_seen = stats.max_steps_seen.max(out.steps);
        if let Some(message) = out.failure {
            let decisions: Vec<usize> = out.decisions.iter().map(|&(c, _)| c).collect();
            return Err(Box::new(ModelFailure {
                model: name.to_string(),
                schedule: format!("exhaustive #{} decisions {decisions:?}", stats.executions),
                seed: None,
                message,
                trace: out.trace,
            }));
        }
        if stats.executions >= budget {
            return Ok(stats);
        }
        // Advance: bump the deepest decision with remaining options.
        let mut taken = out.decisions;
        loop {
            match taken.last_mut() {
                None => return Ok(stats), // fully explored
                Some((chosen, options)) if *chosen + 1 < *options => {
                    *chosen += 1;
                    break;
                }
                Some(_) => {
                    taken.pop();
                }
            }
        }
        prefix = taken.iter().map(|&(c, _)| c).collect();
    }
}

/// [`explore`] for tests: panics with the full replayable report on the
/// first failing schedule, writing the trace to `$BPIMC_MODEL_TRACE_DIR`
/// (if set) on the way out.
pub fn check<F>(name: &str, cfg: &ExploreConfig, body: F)
where
    F: Fn() + Send + Sync + 'static,
{
    if let Err(failure) = explore(name, cfg, body) {
        write_trace_artifact(&failure);
        panic!("{failure}");
    }
}

/// Writes a failing schedule's trace under `$BPIMC_MODEL_TRACE_DIR` so CI
/// can upload it as an artifact. Best-effort; replay needs only the seed.
pub fn write_trace_artifact(failure: &ModelFailure) {
    let Ok(dir) = std::env::var("BPIMC_MODEL_TRACE_DIR") else {
        return;
    };
    if dir.is_empty() || std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let seed = failure
        .seed
        .map_or_else(|| "exhaustive".to_string(), |s| format!("seed{s}"));
    let path = format!("{dir}/{}-{seed}.trace", failure.model);
    let _ = std::fs::write(&path, format!("{failure}\n"));
}

/// One named concurrency model: a body the explorer can run any number of
/// times. Suites (`sync::models`, the server's `models` module) expose
/// their invariants this way so the test runner and `repro model-check`
/// drive the same list.
#[derive(Clone, Copy)]
pub struct ModelSpec {
    /// Stable name, used in reports and `--model` filters.
    pub name: &'static str,
    /// One-line statement of the invariant the model asserts.
    pub invariant: &'static str,
    /// The model body; panics (assertion failures) are schedule failures.
    pub run: fn(),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{atomic, thread, Condvar, Mutex};
    use std::sync::atomic::Ordering as O;

    /// A classic lost-update race: two tasks each do a non-atomic
    /// read-modify-write through separate load/store schedule points.
    fn racy_counter_body() {
        let c = Arc::new(atomic::AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    let v = c.load(O::SeqCst);
                    c.store(v + 1, O::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("task exits");
        }
        assert_eq!(c.load(O::SeqCst), 2, "lost update");
    }

    #[test]
    fn seeded_exploration_catches_the_racy_toy_counter() {
        let cfg = ExploreConfig {
            seeds: 64,
            ..ExploreConfig::default()
        };
        let failure = explore("selftest-racy-counter", &cfg, racy_counter_body)
            .expect_err("the lost-update schedule must be found within the seed matrix");
        assert!(
            failure.message.contains("lost update"),
            "{}",
            failure.message
        );
        let seed = failure.seed.expect("seed-driven schedule");
        assert!(seed < 64);
        assert!(!failure.trace.is_empty());
        // The printed report carries the replay instructions.
        let report = failure.to_string();
        assert!(report.contains("repro model-check"), "{report}");
        assert!(
            report.contains(&format!("BPIMC_MODEL_SEED={seed}")),
            "{report}"
        );
    }

    #[test]
    fn bounded_exhaustive_mode_catches_the_racy_toy_counter() {
        let cfg = ExploreConfig {
            exhaustive: Some(2_000),
            ..ExploreConfig::default()
        };
        let failure = explore("selftest-racy-counter-dfs", &cfg, racy_counter_body)
            .expect_err("DFS over decision vectors must reach the lost-update schedule");
        assert!(
            failure.seed.is_none(),
            "exhaustive schedules are not seed-driven"
        );
        assert!(
            failure.schedule.starts_with("exhaustive #"),
            "{}",
            failure.schedule
        );
    }

    #[test]
    fn lost_wakeup_deadlock_is_reported_with_trace_and_seed() {
        // Buggy check-then-wait: the predicate is read outside the critical
        // section that waits, so a notify landing in the window is lost and
        // the waiter parks forever — a whole-program deadlock the explorer
        // must find and report as one.
        let body = || {
            let m = Arc::new(Mutex::new(false));
            let cv = Arc::new(Condvar::new());
            let (m2, cv2) = (m.clone(), cv.clone());
            let waiter = thread::spawn(move || {
                let ready = *m2.lock();
                if !ready {
                    let g = m2.lock();
                    let g = cv2.wait(g); // bug: no predicate re-check loop
                    assert!(*g);
                }
            });
            *m.lock() = true;
            cv.notify_one();
            waiter.join().expect("waiter exits");
        };
        let cfg = ExploreConfig {
            seeds: 64,
            ..ExploreConfig::default()
        };
        let failure = explore("selftest-lost-wakeup", &cfg, body)
            .expect_err("the lost-notify window must be explored");
        assert!(
            failure.message.contains("deadlock"),
            "expected a deadlock report, got: {}",
            failure.message
        );
        assert!(failure.seed.is_some());
        assert!(failure.trace.contains("wait"), "{}", failure.trace);
    }

    #[test]
    fn replaying_a_seed_gives_a_byte_identical_trace() {
        fn body() {
            let total = Arc::new(Mutex::new(0u32));
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let total = total.clone();
                    thread::spawn(move || {
                        *total.lock() += i;
                        thread::yield_now();
                        *total.lock() += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("task exits");
            }
            assert_eq!(*total.lock(), 1 + 2 + 3);
        }
        for seed in [0u64, 1, 7, 12] {
            let a = run_seed(seed, 3, 20_000, body);
            let b = run_seed(seed, 3, 20_000, body);
            assert!(a.failure.is_none(), "{:?}", a.failure);
            assert!(a.steps > 0);
            assert_eq!(a.trace, b.trace, "seed {seed} must replay byte-identically");
        }
    }

    #[test]
    fn passing_models_report_exploration_stats() {
        let cfg = ExploreConfig {
            seeds: 8,
            ..ExploreConfig::default()
        };
        let stats = explore("selftest-clean", &cfg, || {
            let c = Arc::new(atomic::AtomicUsize::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let c = c.clone();
                    thread::spawn(move || {
                        c.fetch_add(1, O::SeqCst);
                    })
                })
                .collect();
            for h in hs {
                h.join().expect("task exits");
            }
            assert_eq!(c.load(O::SeqCst), 2);
        })
        .expect("atomic RMW has no lost update");
        assert_eq!(stats.executions, 8);
        assert!(stats.steps > 0);
    }

    #[test]
    fn step_budget_catches_livelocks() {
        let cfg = ExploreConfig {
            seeds: 1,
            max_steps: 200,
            ..ExploreConfig::default()
        };
        let failure = explore("selftest-livelock", &cfg, || loop {
            thread::yield_now();
        })
        .expect_err("an infinite yield loop must exhaust the step budget");
        assert!(
            failure.message.contains("step budget"),
            "{}",
            failure.message
        );
    }

    #[test]
    fn model_channels_deliver_in_order_and_disconnect() {
        let cfg = ExploreConfig {
            seeds: 8,
            ..ExploreConfig::default()
        };
        explore("selftest-channel", &cfg, || {
            let (tx, rx) = crate::sync::mpsc::channel::<u32>();
            let h = thread::spawn(move || {
                for i in 0..3 {
                    tx.send(i).expect("receiver alive");
                }
            });
            for want in 0..3 {
                assert_eq!(rx.recv(), Ok(want), "FIFO per sender");
            }
            h.join().expect("sender exits");
            assert_eq!(rx.recv(), Err(crate::sync::mpsc::RecvError));
        })
        .expect("in-order delivery and clean disconnect");
    }
}
