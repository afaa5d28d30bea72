//! Sync-primitive shim: `std::sync` in normal builds, a deterministic
//! virtual scheduler under the `model` cargo feature.
//!
//! The workspace's concurrent code (the parallel claim queue, the server's
//! fair queue / outbox / session state) takes its primitives from this
//! module instead of `std::sync`. In a normal build every wrapper compiles
//! down to the `std` primitive with `#[inline]` delegation — zero wrapper
//! overhead on the hot path. With the `model` feature enabled, a primitive
//! **created inside a model execution** (see `model::explore`) instead
//! routes every acquire/wait/notify/park through the deterministic
//! scheduler, which explores thread interleavings seed-by-seed and turns
//! invariant violations, deadlocks and livelocks into replayable reports.
//!
//! Two deliberate policy choices, encoded once here instead of at every
//! call site:
//!
//! * **Poisoning**: [`Mutex::lock`] recovers from poisoning. Every
//!   critical section in the workspace is short and leaves its data
//!   consistent, so a panic while holding a lock cannot leave half-updated
//!   state behind — and one panicking request or batch must not wedge
//!   every later one behind a `PoisonError`.
//! * **Naming**: long-lived locks are constructed with [`Mutex::named`];
//!   named acquisitions feed the [`lockorder`] analyzer in debug/model
//!   builds, which reports inconsistent acquisition orders (potential
//!   deadlocks) from a single benign run.
//!
//! Model-backed primitives must be created *inside* the model body (they
//! bind to the execution at construction); `std`-backed primitives created
//! outside and merely used by model tasks still work but their operations
//! are invisible to the scheduler, so keep a model's shared state inside
//! the body.
//!
//! # Examples
//!
//! ```
//! use bpimc_stats::sync::{Mutex, Condvar};
//!
//! let m = Mutex::named("example.counter", 0u32);
//! *m.lock() += 1;
//! assert_eq!(*m.lock(), 1);
//! let cv = Condvar::new();
//! let guard = m.lock();
//! cv.notify_all(); // nothing waiting: a no-op, as with std
//! drop(guard);
//! ```

pub mod lockorder;
#[cfg(feature = "model")]
pub mod model;
#[cfg(feature = "model")]
pub mod models;

use std::fmt;

// ---------------------------------------------------------------------------
// Mutex

/// A mutual-exclusion lock: `std::sync::Mutex` in normal builds, a
/// scheduler-visible model mutex inside model executions.
///
/// Locking recovers from poisoning (see the module docs) and, when the
/// mutex is [named](Mutex::named), records the acquisition for the
/// [`lockorder`] analyzer in debug/model builds.
pub struct Mutex<T> {
    name: Option<&'static str>,
    imp: MutexImp<T>,
}

enum MutexImp<T> {
    Std(std::sync::Mutex<T>),
    #[cfg(feature = "model")]
    Model(model_prims::MMutex<T>),
}

impl<T> Mutex<T> {
    /// An anonymous mutex (not tracked by the lock-order analyzer).
    pub(crate) fn new(value: T) -> Self {
        Self::build(None, value)
    }

    /// A named mutex. Give every long-lived lock a static name: names are
    /// the nodes of the lock-order graph and the labels in model traces.
    pub fn named(name: &'static str, value: T) -> Self {
        Self::build(Some(name), value)
    }

    fn build(name: Option<&'static str>, value: T) -> Self {
        #[cfg(feature = "model")]
        if let Some(exec) = model::current() {
            return Self {
                name,
                imp: MutexImp::Model(model_prims::MMutex::new(exec, name, value)),
            };
        }
        Self {
            name,
            imp: MutexImp::Std(std::sync::Mutex::new(value)),
        }
    }

    /// Acquires the lock, blocking until available; recovers from
    /// poisoning.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let imp = match &self.imp {
            MutexImp::Std(m) => {
                GuardImp::Std(m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
            }
            #[cfg(feature = "model")]
            MutexImp::Model(m) => GuardImp::Model(m.lock()),
        };
        lockorder::on_acquire(self.name);
        MutexGuard {
            name: self.name,
            imp: Some(imp),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Mutex");
        if let Some(name) = self.name {
            d.field("name", &name);
        }
        match &self.imp {
            MutexImp::Std(m) => d.field("data", m),
            #[cfg(feature = "model")]
            MutexImp::Model(_) => d.field("data", &"<model>"),
        };
        d.finish()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// RAII guard for [`Mutex::lock`]. Releases on drop and pops the
/// lock-order stack entry for named mutexes.
pub struct MutexGuard<'a, T> {
    name: Option<&'static str>,
    /// `None` only transiently, while [`Condvar::wait`] hands the guard
    /// over to the scheduler.
    imp: Option<GuardImp<'a, T>>,
}

enum GuardImp<'a, T> {
    Std(std::sync::MutexGuard<'a, T>),
    #[cfg(feature = "model")]
    Model(model_prims::MMutexGuard<'a, T>),
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        match self.imp.as_ref().expect("guard live") {
            GuardImp::Std(g) => g,
            #[cfg(feature = "model")]
            GuardImp::Model(g) => g,
        }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        match self.imp.as_mut().expect("guard live") {
            GuardImp::Std(g) => g,
            #[cfg(feature = "model")]
            GuardImp::Model(g) => g,
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        if self.imp.take().is_some() {
            lockorder::on_release(self.name);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar

/// A condition variable matching `std::sync::Condvar` semantics (including
/// lost notifies when nothing waits — the semantics lost-wakeup bugs
/// need). Must be used with guards from the matching backend: a model
/// condvar waits only on model mutexes.
pub struct Condvar {
    imp: CondImp,
}

enum CondImp {
    Std(std::sync::Condvar),
    #[cfg(feature = "model")]
    Model(model_prims::MCondvar),
}

impl Condvar {
    /// A new condition variable, bound to the current context's backend.
    pub fn new() -> Self {
        #[cfg(feature = "model")]
        if let Some(exec) = model::current() {
            return Self {
                imp: CondImp::Model(model_prims::MCondvar::new(exec)),
            };
        }
        Self {
            imp: CondImp::Std(std::sync::Condvar::new()),
        }
    }

    /// Releases the guard's mutex, waits for a notification, reacquires.
    /// Spurious wakeups are possible (as with std): always wait in a
    /// predicate loop.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let name = guard.name;
        lockorder::on_release(name);
        let imp = guard.imp.take().expect("guard live");
        drop(guard);
        let new_imp = match (&self.imp, imp) {
            (CondImp::Std(cv), GuardImp::Std(g)) => GuardImp::Std(
                cv.wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            ),
            #[cfg(feature = "model")]
            (CondImp::Model(cv), GuardImp::Model(g)) => GuardImp::Model(cv.wait(g)),
            #[cfg(feature = "model")]
            _ => panic!("Condvar::wait used across std/model backends"),
        };
        lockorder::on_acquire(name);
        MutexGuard {
            name,
            imp: Some(new_imp),
        }
    }

    /// Releases the guard's mutex, waits for a notification or for `dur`
    /// to elapse, reacquires. Returns the guard plus whether the wait
    /// timed out. Spurious wakeups are possible (as with std): always
    /// wait in a predicate loop.
    ///
    /// Under the model backend there is no clock, so this behaves like a
    /// plain [`Condvar::wait`] and never reports a timeout — model code
    /// that needs the deadline path must drive it explicitly (e.g. by
    /// notifying the sweeper after mutating its predicate).
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let name = guard.name;
        lockorder::on_release(name);
        let imp = guard.imp.take().expect("guard live");
        drop(guard);
        let (new_imp, timed_out) = match (&self.imp, imp) {
            (CondImp::Std(cv), GuardImp::Std(g)) => {
                let (g, res) = cv
                    .wait_timeout(g, dur)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                (GuardImp::Std(g), res.timed_out())
            }
            #[cfg(feature = "model")]
            (CondImp::Model(cv), GuardImp::Model(g)) => (GuardImp::Model(cv.wait(g)), false),
            #[cfg(feature = "model")]
            _ => panic!("Condvar::wait_timeout used across std/model backends"),
        };
        lockorder::on_acquire(name);
        (
            MutexGuard {
                name,
                imp: Some(new_imp),
            },
            timed_out,
        )
    }

    /// Wakes one waiter (a no-op when nothing waits).
    pub fn notify_one(&self) {
        match &self.imp {
            CondImp::Std(cv) => cv.notify_one(),
            #[cfg(feature = "model")]
            CondImp::Model(cv) => cv.notify(false),
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        match &self.imp {
            CondImp::Std(cv) => cv.notify_all(),
            #[cfg(feature = "model")]
            CondImp::Model(cv) => cv.notify(true),
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

// ---------------------------------------------------------------------------
// Atomics

/// Shim atomics: identical API subset of `std::sync::atomic`, visible to
/// the model scheduler when created inside a model execution. Model-backed
/// atomics are sequentially consistent regardless of the `Ordering`
/// argument (one task runs at a time), which over-approximates nothing the
/// workspace relies on — its atomics protocols are designed for SeqCst-or-
/// weaker reasoning.
pub mod atomic {
    pub(crate) use std::sync::atomic::Ordering;

    macro_rules! shim_atomic {
        ($name:ident, $std:ty, $prim:ty, $imp:ident, [$($rmw:ident),*]) => {
            /// Shim atomic (see [the module docs](self)).
            pub struct $name {
                imp: $imp,
            }

            enum $imp {
                Std($std),
                #[cfg(feature = "model")]
                Model(super::model_prims::MAtomic<$std, $prim>),
            }

            impl $name {
                /// An anonymous atomic with the given initial value.
                pub(crate) fn new(value: $prim) -> Self {
                    Self::build(None, value)
                }

                /// A named atomic: the name labels its ops in model traces.
                pub fn named(name: &'static str, value: $prim) -> Self {
                    Self::build(Some(name), value)
                }

                fn build(name: Option<&'static str>, value: $prim) -> Self {
                    #[cfg(feature = "model")]
                    if let Some(exec) = super::model::current() {
                        return Self {
                            imp: $imp::Model(super::model_prims::MAtomic::new(
                                exec,
                                name,
                                <$std>::new(value),
                            )),
                        };
                    }
                    let _ = name;
                    Self {
                        imp: $imp::Std(<$std>::new(value)),
                    }
                }

                /// Loads the value.
                #[inline]
                pub fn load(&self, order: Ordering) -> $prim {
                    match &self.imp {
                        $imp::Std(a) => a.load(order),
                        #[cfg(feature = "model")]
                        $imp::Model(a) => a.op("load", |s| s.load(order)),
                    }
                }

                /// Stores a value.
                #[inline]
                pub fn store(&self, value: $prim, order: Ordering) {
                    match &self.imp {
                        $imp::Std(a) => a.store(value, order),
                        #[cfg(feature = "model")]
                        $imp::Model(a) => a.op("store", |s| s.store(value, order)),
                    }
                }

                /// Swaps in a value, returning the previous one.
                #[inline]
                pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                    match &self.imp {
                        $imp::Std(a) => a.swap(value, order),
                        #[cfg(feature = "model")]
                        $imp::Model(a) => a.op("swap", |s| s.swap(value, order)),
                    }
                }

                $(
                    /// Atomic read-modify-write, returning the previous
                    /// value.
                    #[inline]
                    pub fn $rmw(&self, value: $prim, order: Ordering) -> $prim {
                        match &self.imp {
                            $imp::Std(a) => a.$rmw(value, order),
                            #[cfg(feature = "model")]
                            $imp::Model(a) => {
                                a.op(stringify!($rmw), |s| s.$rmw(value, order))
                            }
                        }
                    }
                )*
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    match &self.imp {
                        $imp::Std(a) => a.fmt(f),
                        #[cfg(feature = "model")]
                        $imp::Model(_) => f.write_str("<model atomic>"),
                    }
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }
        };
    }

    shim_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool, BoolImp, []);
    shim_atomic!(
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize,
        UsizeImp,
        [fetch_add, fetch_sub]
    );
    shim_atomic!(
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64,
        U64Imp,
        [fetch_add, fetch_sub]
    );
}

// ---------------------------------------------------------------------------
// Threads

/// Shim thread spawning: `std::thread` outside models; inside a model
/// execution, spawned closures become scheduler tasks whose every sync op
/// is a schedule point.
pub mod thread {
    #[cfg(feature = "model")]
    use super::model;

    /// Spawns a thread (or model task) running `f`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        #[cfg(feature = "model")]
        if let Some(exec) = model::current() {
            let (task, slot) = exec.spawn_task(f);
            return JoinHandle {
                imp: JoinImp::Model { exec, task, slot },
            };
        }
        JoinHandle {
            imp: JoinImp::Std(std::thread::spawn(f)),
        }
    }

    /// Yields the processor (a schedule point inside models).
    pub fn yield_now() {
        #[cfg(feature = "model")]
        if let Some(exec) = model::current() {
            exec.yield_now();
            return;
        }
        std::thread::yield_now();
    }

    /// Handle to a spawned shim thread.
    pub struct JoinHandle<T> {
        imp: JoinImp<T>,
    }

    enum JoinImp<T> {
        Std(std::thread::JoinHandle<T>),
        #[cfg(feature = "model")]
        Model {
            exec: std::sync::Arc<model::Execution>,
            task: model::TaskId,
            slot: std::sync::Arc<std::sync::Mutex<Option<T>>>,
        },
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread/task to finish and returns its value. A
        /// panicked model task aborts the whole execution (the panic is
        /// the model failure), so the model arm always returns `Ok`.
        pub fn join(self) -> std::thread::Result<T> {
            match self.imp {
                JoinImp::Std(h) => h.join(),
                #[cfg(feature = "model")]
                JoinImp::Model { exec, task, slot } => {
                    exec.join_task(task);
                    let v = slot
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .take()
                        .expect("model task result (a panicking task aborts the execution)");
                    Ok(v)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Model-backed primitive implementations

#[cfg(feature = "model")]
mod model_prims {
    use super::model::{Execution, Resource};
    use std::cell::UnsafeCell;
    use std::sync::Arc;

    pub(super) struct MMutex<T> {
        exec: Arc<Execution>,
        rid: usize,
        label: String,
        data: UnsafeCell<T>,
    }

    // SAFETY: the scheduler serializes all access (one runnable task), and
    // the lock protocol gives the owning task exclusive data access.
    unsafe impl<T: Send> Send for MMutex<T> {}
    unsafe impl<T: Send> Sync for MMutex<T> {}

    impl<T> MMutex<T> {
        pub(super) fn new(exec: Arc<Execution>, name: Option<&'static str>, value: T) -> Self {
            let rid = exec.register(Resource::Mutex { owner: None }, name);
            let label = exec.resource_label(rid);
            Self {
                exec,
                rid,
                label,
                data: UnsafeCell::new(value),
            }
        }

        pub(super) fn lock(&self) -> MMutexGuard<'_, T> {
            self.exec
                .acquire_mutex(self.rid, &format!("lock {}", self.label));
            MMutexGuard { m: self }
        }
    }

    pub(super) struct MMutexGuard<'a, T> {
        m: &'a MMutex<T>,
    }

    impl<T> std::ops::Deref for MMutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // SAFETY: this task owns the model lock.
            unsafe { &*self.m.data.get() }
        }
    }

    impl<T> std::ops::DerefMut for MMutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: this task owns the model lock exclusively.
            unsafe { &mut *self.m.data.get() }
        }
    }

    impl<T> Drop for MMutexGuard<'_, T> {
        fn drop(&mut self) {
            self.m
                .exec
                .release_mutex(self.m.rid, &format!("unlock {}", self.m.label));
        }
    }

    pub(super) struct MCondvar {
        exec: Arc<Execution>,
        rid: usize,
        label: String,
    }

    impl MCondvar {
        pub(super) fn new(exec: Arc<Execution>) -> Self {
            let rid = exec.register(
                Resource::Condvar {
                    waiters: Vec::new(),
                },
                None,
            );
            let label = exec.resource_label(rid);
            Self { exec, rid, label }
        }

        pub(super) fn wait<'a, T>(&self, guard: MMutexGuard<'a, T>) -> MMutexGuard<'a, T> {
            let m = guard.m;
            // The scheduler releases the mutex atomically with joining the
            // waiter list; the guard's Drop must not double-release.
            std::mem::forget(guard);
            self.exec.condvar_wait(
                self.rid,
                m.rid,
                &format!("wait {} ({})", self.label, m.label),
            );
            self.exec
                .acquire_mutex(m.rid, &format!("relock {} after {}", m.label, self.label));
            MMutexGuard { m }
        }

        pub(super) fn notify(&self, all: bool) {
            let verb = if all { "notify_all" } else { "notify_one" };
            self.exec
                .condvar_notify(self.rid, all, &format!("{verb} {}", self.label));
        }
    }

    /// Model atomic: the real std atomic plus a schedule point per op.
    pub(super) struct MAtomic<A, P> {
        exec: Arc<Execution>,
        label: String,
        inner: A,
        _p: std::marker::PhantomData<P>,
    }

    impl<A, P> MAtomic<A, P> {
        pub(super) fn new(exec: Arc<Execution>, name: Option<&'static str>, inner: A) -> Self {
            let label = format!("atomic:{}", name.unwrap_or("anon"));
            Self {
                exec,
                label,
                inner,
                _p: std::marker::PhantomData,
            }
        }

        pub(super) fn op<R>(&self, verb: &str, f: impl FnOnce(&A) -> R) -> R {
            self.exec
                .op(&format!("{verb} {}", self.label), |_| f(&self.inner))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn std_backed_mutex_roundtrip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn std_backed_mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(5u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // The shim's lock policy recovers from poisoning.
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn std_backed_condvar_wakes_a_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let h = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        assert!(h.join().expect("waiter exits"));
    }

    #[test]
    fn std_backed_atomics() {
        use atomic::{AtomicUsize, Ordering};
        let a = AtomicUsize::new(1);
        assert_eq!(a.fetch_add(2, Ordering::AcqRel), 1);
        assert_eq!(a.load(Ordering::Acquire), 3);
    }
}
