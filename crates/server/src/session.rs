//! Sessions: token-keyed tenant state that survives connection drops, and
//! the bounded registry that owns it.
//!
//! A session's durable state is one [`SessionRecord`]: the account, the
//! rate window, the model's source, the stored programs with their run
//! history, the seq watermark and replay window, and when it detached.
//! Only journal [`Event`]s change it — [`SessionInner::apply`] appends a
//! durable session's event to the journal (when persistence is on) and
//! then folds it in with [`SessionRecord::apply`], the function recovery
//! replays with. A live session is that record plus caches derived from
//! it: compiled programs, the name index, the built classifier model, the
//! `Instant` TTL clock and the seq claimed by a job still in flight.
//! Recovery rebuilds the caches and never reads them back.
//!
//! - An **ephemeral** session (`token: None`) lives as long as its
//!   connection: every connection starts with one, and its events are
//!   applied but never journaled.
//! - A **durable** session (`token: Some(..)`) is owned by the
//!   [`SessionRegistry`], keyed by an unguessable token. When its
//!   connection drops it is *detached*, lingers for the registry's TTL,
//!   and a later connection can re-attach with `resume_session` — model,
//!   programs, account and rate budgets intact. Past the TTL a sweep
//!   garbage-collects it; the token is remembered in a bounded ring so a
//!   late resume gets the honest `session_expired` rather than
//!   `bad_token`. The registry's session set, that ring and its
//!   token-minting counter change only through
//!   [`apply_event`](crate::persist::apply_event), the same fold recovery
//!   runs.
//!
//! Durable sessions also carry the idempotency guard: each request may be
//! stamped with a strictly increasing per-session `seq`. The session
//! remembers the last seq that *executed* plus a bounded window of recent
//! responses ([`REPLAY_WINDOW`]), so a client that resends after a
//! mid-request connection drop gets the original response replayed —
//! never a second execution, never a second bill. Transient refusals
//! (overload sheds, rate-budget and inflight refusals, deadlines expired
//! in queue) deliberately do **not** consume a seq: the op never ran, so
//! a retry must be re-admitted fresh.
//!
//! All locks here go through the [`bpimc_stats::sync`] shim, so the
//! registry protocol (resume vs. drain, GC vs. resume, seq replay) runs
//! under the deterministic model scheduler in `crate::models`. Lock
//! order: `server.persist.journal` (when persistence is on) before
//! `server.sessions.registry` before `server.session.inner`; never the
//! reverse.

use crate::exec::Model;
use crate::persist::{
    apply_event, unix_ms_now, Event, Journal, Persist, Registry, RegistryRecord, SessionRecord,
    Sessions,
};
use bpimc_core::{
    CompiledProgram, ErrorBody, LimitKind, ProgramEntry, Response, ResponseBody, SessionInfo,
    StoredTarget,
};
use bpimc_stats::sync::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Responses a durable session keeps for seq replay. A retrying client
/// resends only its most recent in-flight request, so a small window is
/// plenty; the bound keeps a session's memory footprint independent of
/// its lifetime.
pub(crate) const REPLAY_WINDOW: usize = 32;

/// Swept tokens remembered for the `session_expired` answer. Beyond this
/// many, the oldest are forgotten and answer `bad_token` — indistinguish-
/// able, to a client, from a token that never existed, which is the
/// honest degraded answer.
pub(crate) const EXPIRED_TOKENS: usize = 1024;

/// Back-off hint on the busy refusal of a second concurrent resume: long
/// enough for the holder's reader to notice a dead socket, short enough
/// that a legitimate takeover barely stalls.
const RESUME_BUSY_RETRY_MS: u64 = 25;

/// The state behind one session's lock: the durable record, readable
/// through `Deref` and changed only by [`SessionInner::apply`], plus the
/// caches serving derives from it.
pub(crate) struct SessionInner {
    state: SessionRecord,
    /// Compiled programs by pid.
    compiled: HashMap<u64, Arc<CompiledProgram>>,
    /// Program names to pids.
    names: HashMap<String, u64>,
    /// The classifier built from the record's model source.
    pub(crate) model: Option<Arc<Model>>,
    /// When the last connection let go — the TTL clock; `None` while a
    /// connection holds the session (durable sessions accept at most one
    /// at a time).
    detached_at: Option<Instant>,
    /// Detachment served *before* the last recovery, credited against the
    /// TTL: `Instant`s do not survive a restart, so recovery restarts the
    /// clock at boot but carries the pre-crash elapsed time here. A
    /// resume clears it along with `detached_at`.
    detached_carry: Duration,
    /// The highest seq claimed by a job that has not settled yet (a
    /// live-only reservation: a duplicate in the same run must replay).
    claimed_seq: Option<u64>,
}

impl std::ops::Deref for SessionInner {
    type Target = SessionRecord;

    fn deref(&self) -> &SessionRecord {
        &self.state
    }
}

impl SessionInner {
    /// A session holding `state`, attached, with its name index built and
    /// nothing compiled or built yet.
    fn new(state: SessionRecord) -> Self {
        let names = state
            .programs
            .iter()
            .filter_map(|p| Some((p.name.clone()?, p.pid)))
            .collect();
        Self {
            state,
            compiled: HashMap::new(),
            names,
            model: None,
            detached_at: None,
            detached_carry: Duration::ZERO,
            claimed_seq: None,
        }
    }

    /// A recovered session: detached — its pre-crash connection is
    /// certainly gone — with the TTL clock restarted at `now` and the
    /// detachment the record shows before `now_unix_ms` credited against
    /// it. Programs and the model are the caller's to cache.
    pub(crate) fn restored(state: SessionRecord, now: Instant, now_unix_ms: u64) -> Self {
        let carry = state
            .detached_since_ms
            .map_or(0, |since| now_unix_ms.saturating_sub(since));
        Self {
            detached_at: Some(now),
            detached_carry: Duration::from_millis(carry),
            ..Self::new(state)
        }
    }

    /// Appends `ev` to `journal` when one is held (a durable session with
    /// persistence on), then folds it into the durable state — the one
    /// way serving changes it. The name index follows a `Store` or
    /// `Delete`, and a `Delete` drops its compiled program; the artifacts
    /// an event does not carry (a `Store`'s compiled program, a `Model`'s
    /// build) are the caller's to cache.
    pub(crate) fn apply(&mut self, journal: Option<&mut Journal<'_>>, ev: &Event) {
        if let Some(journal) = journal {
            journal.append(ev);
        }
        self.state.apply(ev);
        match ev {
            Event::Store {
                pid,
                name: Some(name),
                ..
            } => {
                self.names.insert(name.clone(), *pid);
            }
            Event::Delete { pid, .. } => {
                self.compiled.remove(pid);
                self.names.retain(|_, p| p != pid);
            }
            _ => {}
        }
    }

    /// Caches a stored program's compiled form.
    pub(crate) fn cache_program(&mut self, pid: u64, compiled: Arc<CompiledProgram>) {
        self.compiled.insert(pid, compiled);
    }

    /// How long this session has been detached at `now`, including time
    /// carried over from before a restart; `None` while attached.
    pub(crate) fn detached_for(&self, now: Instant) -> Option<Duration> {
        self.detached_at
            .map(|t| now.saturating_duration_since(t) + self.detached_carry)
    }

    /// True when `seq` already executed, or is claimed by a job that has
    /// not settled yet — the caller must answer from the replay window
    /// instead of executing.
    pub(crate) fn is_replay(&self, seq: u64) -> bool {
        self.state
            .last_seq
            .max(self.claimed_seq)
            .is_some_and(|last| seq <= last)
    }

    /// Reserves `seq` for a job about to run. Idempotent; never lowers
    /// the reservation. The job's `Exec` event advances the watermark.
    pub(crate) fn claim_seq(&mut self, seq: u64) {
        self.claimed_seq = self.claimed_seq.max(Some(seq));
    }

    /// The recorded response for a replayed `seq`, while it is still
    /// inside the bounded window.
    pub(crate) fn replayed(&self, seq: u64) -> Option<ResponseBody> {
        let (_, line) = self.state.replay.iter().find(|(s, _)| *s == seq)?;
        Response::parse(line).ok().map(|r| r.body)
    }

    /// The highest executed seq (reported on resume so a continuing
    /// client can pick the next one).
    pub(crate) fn last_seq(&self) -> Option<u64> {
        self.state.last_seq
    }

    /// The pid a stored-program address names, if that program exists.
    pub(crate) fn pid_of(&self, target: &StoredTarget) -> Option<u64> {
        let pid = match target {
            StoredTarget::Pid(pid) => *pid,
            StoredTarget::Name(name) => *self.names.get(name)?,
        };
        self.state
            .programs
            .iter()
            .any(|p| p.pid == pid)
            .then_some(pid)
    }

    /// Resolves a stored-program address to `(pid, compiled)`.
    pub(crate) fn resolve(&self, target: &StoredTarget) -> Option<(u64, Arc<CompiledProgram>)> {
        let pid = self.pid_of(target)?;
        self.compiled.get(&pid).map(|c| (pid, c.clone()))
    }

    /// Whether a stored program already uses `name`.
    pub(crate) fn has_name(&self, name: &str) -> bool {
        self.names.contains_key(name)
    }

    /// The `list_programs` payload: every program that can run, with its
    /// run history, ordered by pid.
    pub(crate) fn program_entries(&self) -> Vec<ProgramEntry> {
        self.state
            .programs
            .iter()
            .filter_map(|p| {
                let compiled = self.compiled.get(&p.pid)?;
                Some(ProgramEntry {
                    pid: p.pid,
                    name: p.name.clone(),
                    cycles: compiled.cycles(),
                    writes: compiled.write_count() as u64,
                    runs: p.runs,
                    errors: p.errors,
                    total_cycles: p.total_cycles,
                    total_energy_fj: p.total_energy_fj,
                    last_status: p.last_status.clone(),
                })
            })
            .collect()
    }
}

/// One tenant's serving state, shared between its (current) connection,
/// in-flight batch items and — when durable — the registry.
pub(crate) struct Session {
    /// `None` for an ephemeral (connection-lifetime) session.
    pub(crate) token: Option<String>,
    pub(crate) inner: Mutex<SessionInner>,
    /// Where this session's events are journaled: set for a durable
    /// session when persistence is on.
    journal: Option<Arc<Persist>>,
}

impl Session {
    /// A fresh connection-lifetime session (the pre-token behaviour).
    pub(crate) fn ephemeral() -> Arc<Session> {
        Arc::new(Session {
            token: None,
            inner: Mutex::named(
                "server.session.inner",
                SessionInner::new(SessionRecord::empty(String::new())),
            ),
            journal: None,
        })
    }

    /// A durable session registered as `token`, journaling to `journal`.
    pub(crate) fn durable(
        token: &str,
        inner: SessionInner,
        journal: Option<Arc<Persist>>,
    ) -> Arc<Session> {
        Arc::new(Session {
            token: Some(token.to_string()),
            inner: Mutex::named("server.session.inner", inner),
            journal,
        })
    }

    pub(crate) fn is_durable(&self) -> bool {
        self.token.is_some()
    }

    /// The token events name this session by: empty for an ephemeral
    /// session, whose events are never journaled.
    pub(crate) fn event_token(&self) -> String {
        self.token.clone().unwrap_or_default()
    }

    /// Takes the journal lock when this session's events are journaled.
    /// Hold it across a decision and the events it makes, before the
    /// registry and session locks.
    pub(crate) fn journal(&self) -> Option<Journal<'_>> {
        self.journal.as_ref().map(|p| p.begin())
    }

    /// Applies one event to this session through its journal
    /// ([`SessionInner::apply`]).
    pub(crate) fn apply(&self, ev: &Event) {
        let mut journal = self.journal();
        self.inner.lock().apply(journal.as_mut(), ev);
    }

    /// Lets go of this session at `now`: a durable one applies (and
    /// journals) its `Detach` with the wall clock, so a restart resumes
    /// the TTL countdown where it stood, and starts its TTL clock on the
    /// first detach. A no-op on ephemeral sessions; repeat detaches never
    /// extend the TTL.
    pub(crate) fn detach(&self, now: Instant) {
        let Some(token) = &self.token else { return };
        let ev = Event::Detach {
            token: token.clone(),
            unix_ms: unix_ms_now(),
        };
        let mut journal = self.journal();
        let mut inner = self.inner.lock();
        inner.apply(journal.as_mut(), &ev);
        inner.detached_at.get_or_insert(now);
    }

    /// The `session` response payload for this (durable) session.
    pub(crate) fn info(&self) -> SessionInfo {
        let inner = self.inner.lock();
        SessionInfo {
            token: self.token.clone().unwrap_or_default(),
            stats: inner.stats,
            stored_programs: inner.programs.len() as u64,
            last_seq: inner.last_seq(),
        }
    }
}

/// Sizing of the durable-session registry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegistryCaps {
    /// How long a detached session lingers before a sweep collects it.
    pub(crate) ttl: Duration,
    /// Most durable sessions (attached + detached) at once.
    pub(crate) max_sessions: usize,
    /// Most stored programs across every durable session — the global
    /// bound that keeps orphaned sessions from exhausting memory even
    /// when each is under its per-session cap.
    pub(crate) max_programs: usize,
}

/// The live session set of a [`Registry`]: sessions by token, and the
/// journal the sessions it opens write to.
#[derive(Default)]
pub(crate) struct LiveSessions {
    by_token: HashMap<String, Arc<Session>>,
    journal: Option<Arc<Persist>>,
}

impl Sessions for LiveSessions {
    fn open(&mut self, token: &str, record: &SessionRecord) {
        let journal = &self.journal;
        self.by_token.entry(token.to_string()).or_insert_with(|| {
            Session::durable(token, SessionInner::new(record.clone()), journal.clone())
        });
    }

    fn expire(&mut self, token: &str) {
        self.by_token.remove(token);
    }

    fn apply(&mut self, token: &str, ev: &Event) {
        if let Some(session) = self.by_token.get(token) {
            session.inner.lock().apply(None, ev);
        }
    }
}

pub(crate) struct RegistryState {
    /// The durable registry over live sessions.
    reg: Registry<LiveSessions>,
    /// Stored programs across every durable session.
    pub(crate) total_stored: usize,
}

/// The bounded table of durable sessions, plus the TTL sweeper's
/// coordination state.
pub(crate) struct SessionRegistry {
    pub(crate) caps: RegistryCaps,
    /// The journal the registry's own events (`Open`, `Attach`, `Expire`)
    /// go to, when persistence is on.
    journal: Option<Arc<Persist>>,
    state: Mutex<RegistryState>,
    /// Sweeper shutdown flag + wakeup.
    sweeper_stop: Mutex<bool>,
    sweeper_cv: Condvar,
}

/// splitmix64: the same finalizer the fault plan uses — full-avalanche
/// mixing, so related inputs produce unrelated tokens.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl SessionRegistry {
    /// An in-memory registry: nothing is journaled.
    pub(crate) fn new(caps: RegistryCaps) -> Self {
        Self::build(caps, None, Registry::default(), 0)
    }

    /// The registry recovered at boot — its sessions (caches already
    /// materialized), the expired-token ring and the mint counter — with
    /// every event from here on journaled to `journal`.
    pub(crate) fn restore(
        caps: RegistryCaps,
        journal: Arc<Persist>,
        recovered: Registry<Vec<SessionInner>>,
    ) -> Self {
        let mut sessions = LiveSessions {
            by_token: HashMap::new(),
            journal: Some(journal.clone()),
        };
        let mut total_stored = 0;
        for inner in recovered.sessions {
            total_stored += inner.programs.len();
            let token = inner.token.clone();
            let session = Session::durable(&token, inner, Some(journal.clone()));
            sessions.by_token.insert(token, session);
        }
        let reg = Registry {
            sessions,
            expired: recovered.expired,
            mint_counter: recovered.mint_counter,
        };
        Self::build(caps, Some(journal), reg, total_stored)
    }

    fn build(
        caps: RegistryCaps,
        journal: Option<Arc<Persist>>,
        reg: Registry<LiveSessions>,
        total_stored: usize,
    ) -> Self {
        Self {
            caps,
            journal,
            state: Mutex::named(
                "server.sessions.registry",
                RegistryState { reg, total_stored },
            ),
            sweeper_stop: Mutex::named("server.sessions.sweeper", false),
            sweeper_cv: Condvar::new(),
        }
    }

    /// Takes the journal lock, when this registry journals.
    fn journal(&self) -> Option<Journal<'_>> {
        self.journal.as_ref().map(|p| p.begin())
    }

    /// Mints a 128-bit hex token, salted with the counter value the
    /// `Open` event will advance the registry to. Entropy is mixed from
    /// the wall clock's nanoseconds, ASLR'd addresses and that counter
    /// through splitmix64 — unguessable in practice for a research
    /// serving stack, though not a CSPRNG (the container image has no OS
    /// randomness source to draw on, and the protocol treats tokens as
    /// capabilities, not keys).
    fn mint_token(state: &RegistryState) -> String {
        let counter = state.reg.mint_counter.wrapping_add(1);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let stack = &counter as *const _ as u64;
        let heap = state.reg.sessions.by_token.capacity() as u64 ^ (state as *const _ as u64);
        let a = mix(nanos ^ mix(counter) ^ stack.rotate_left(13));
        let b = mix(a ^ mix(heap) ^ nanos.rotate_left(31));
        format!("{a:016x}{b:016x}")
    }

    /// Upgrades `current` (an ephemeral session) to a durable one: its
    /// whole state — account, model, programs, rate window — becomes the
    /// record of the `Open` event that registers a fresh token-keyed
    /// session, and its caches move along. The caller swaps the
    /// connection's session slot to the returned session.
    ///
    /// # Errors
    ///
    /// `limit_exceeded` naming `sessions` when the registry is full, or
    /// `registry_programs` when adopting the session's stored programs
    /// would break the global cap.
    pub(crate) fn open(&self, current: &Session, _now: Instant) -> Result<Arc<Session>, ErrorBody> {
        let mut journal = self.journal();
        let mut state = self.state.lock();
        if state.reg.sessions.by_token.len() >= self.caps.max_sessions {
            return Err(ErrorBody::limit(
                LimitKind::Sessions,
                Some(self.caps.ttl.as_millis() as u64),
                format!(
                    "session registry is full ({} durable sessions)",
                    self.caps.max_sessions
                ),
            ));
        }
        let mut current_inner = current.inner.lock();
        let adopted = current_inner.programs.len();
        if state.total_stored + adopted > self.caps.max_programs {
            return Err(ErrorBody::limit(
                LimitKind::RegistryPrograms,
                None,
                format!(
                    "registry-wide stored-program cap reached ({} across all sessions)",
                    self.caps.max_programs
                ),
            ));
        }
        let token = Self::mint_token(&state);
        let moved = std::mem::replace(
            &mut *current_inner,
            SessionInner::new(SessionRecord::empty(String::new())),
        );
        drop(current_inner);
        let ev = Event::Open {
            token: token.clone(),
            record: Box::new(SessionRecord {
                token: token.clone(),
                ..moved.state
            }),
        };
        if let Some(journal) = journal.as_mut() {
            journal.append(&ev);
        }
        apply_event(&mut state.reg, &ev);
        let session = state.reg.sessions.by_token[&token].clone();
        let mut inner = session.inner.lock();
        inner.compiled = moved.compiled;
        inner.model = moved.model;
        drop(inner);
        state.total_stored += adopted;
        Ok(session)
    }

    /// Attaches a connection to the session `token` names.
    ///
    /// # Errors
    ///
    /// `bad_token` for a token this registry never minted,
    /// `session_expired` for one whose session was swept, and a generic
    /// busy refusal (with a `retry_after_ms` hint) when another
    /// connection currently holds the session.
    pub(crate) fn resume(&self, token: &str, _now: Instant) -> Result<Arc<Session>, ErrorBody> {
        let mut journal = self.journal();
        let state = self.state.lock();
        let Some(session) = state.reg.sessions.by_token.get(token).cloned() else {
            if state.reg.expired.iter().any(|t| t == token) {
                return Err(ErrorBody::session_expired(
                    "session expired: it sat disconnected past the server's TTL and was \
                     garbage-collected; open a fresh session",
                ));
            }
            return Err(ErrorBody::bad_token("unknown session token"));
        };
        let mut inner = session.inner.lock();
        if inner.detached_at.is_none() {
            return Err(ErrorBody {
                retry_after_ms: Some(RESUME_BUSY_RETRY_MS),
                ..ErrorBody::generic(
                    "session is attached to another live connection; retry after it detaches",
                )
            });
        }
        let ev = Event::Attach {
            token: token.to_string(),
        };
        inner.apply(journal.as_mut(), &ev);
        inner.detached_at = None;
        inner.detached_carry = Duration::ZERO;
        drop(inner);
        drop(state);
        Ok(session)
    }

    /// Collects every detached session whose TTL elapsed at `now`
    /// (counting detachment carried over from before a restart), each by
    /// an `Expire` event that also remembers its token for
    /// `session_expired` answers. Returns the swept tokens.
    pub(crate) fn sweep(&self, now: Instant) -> Vec<String> {
        let mut journal = self.journal();
        let mut state = self.state.lock();
        let dead: Vec<(String, usize)> = state
            .reg
            .sessions
            .by_token
            .iter()
            .filter_map(|(token, session)| {
                let inner = session.inner.lock();
                let expired = inner.detached_for(now).is_some_and(|d| d >= self.caps.ttl);
                expired.then(|| (token.clone(), inner.programs.len()))
            })
            .collect();
        for (token, programs) in &dead {
            let ev = Event::Expire {
                token: token.clone(),
            };
            if let Some(journal) = journal.as_mut() {
                journal.append(&ev);
            }
            apply_event(&mut state.reg, &ev);
            state.total_stored = state.total_stored.saturating_sub(*programs);
        }
        dead.into_iter().map(|(token, _)| token).collect()
    }

    /// Durable sessions currently registered (the concurrency models'
    /// postcondition checks).
    #[cfg_attr(not(feature = "model"), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.state.lock().reg.sessions.by_token.len()
    }

    /// Locks the registry's global stored-program quota. Lock order:
    /// take this **before** any `session.inner` lock.
    pub(crate) fn quota(&self) -> MutexGuard<'_, RegistryState> {
        self.state.lock()
    }

    /// The registry's durable state as a snapshot stores it: a clone of
    /// every session's record, sorted by token, plus the expired-token
    /// ring and the mint counter. Callers hold the journal lock around the
    /// capture, so no journaled mutation can interleave with it.
    pub(crate) fn snapshot(&self) -> RegistryRecord {
        let state = self.state.lock();
        let mut sessions: Vec<SessionRecord> = state
            .reg
            .sessions
            .by_token
            .values()
            .map(|s| s.inner.lock().state.clone())
            .collect();
        sessions.sort_by(|a, b| a.token.cmp(&b.token));
        Registry {
            sessions,
            expired: state.reg.expired.clone(),
            mint_counter: state.reg.mint_counter,
        }
    }

    /// The sweeper thread body: wakes every quarter-TTL (clamped to
    /// 10ms..1s) and runs `tick` — a sweep, plus whatever housekeeping
    /// the server hangs off the same cadence (journal fsync deadlines,
    /// snapshot triggers) — until [`SessionRegistry::stop_sweeper`].
    pub(crate) fn run_sweeper(&self, tick: impl Fn()) {
        let interval = (self.caps.ttl / 4)
            .max(Duration::from_millis(10))
            .min(Duration::from_secs(1));
        let mut stop = self.sweeper_stop.lock();
        while !*stop {
            let (guard, timed_out) = self.sweeper_cv.wait_timeout(stop, interval);
            stop = guard;
            if *stop {
                return;
            }
            if timed_out {
                drop(stop);
                tick();
                stop = self.sweeper_stop.lock();
            }
        }
    }

    /// Stops [`SessionRegistry::run_sweeper`] (idempotent).
    pub(crate) fn stop_sweeper(&self) {
        *self.sweeper_stop.lock() = true;
        self.sweeper_cv.notify_all();
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::BillingRecord;
    use bpimc_core::RunStatus;

    fn caps(ttl_ms: u64) -> RegistryCaps {
        RegistryCaps {
            ttl: Duration::from_millis(ttl_ms),
            max_sessions: 4,
            max_programs: 100,
        }
    }

    #[test]
    fn tokens_are_distinct_and_opaque() {
        let registry = SessionRegistry::new(caps(1000));
        let now = Instant::now();
        let mut tokens = std::collections::HashSet::new();
        for _ in 0..4 {
            let s = registry.open(&Session::ephemeral(), now).expect("open");
            let token = s.token.clone().expect("durable sessions have tokens");
            assert_eq!(token.len(), 32, "{token}");
            assert!(token.chars().all(|c| c.is_ascii_hexdigit()));
            assert!(tokens.insert(token), "tokens must be distinct");
        }
        assert_eq!(registry.len(), 4);
    }

    #[test]
    fn registry_cap_refuses_the_next_open() {
        let registry = SessionRegistry::new(caps(1000));
        let now = Instant::now();
        for _ in 0..4 {
            registry
                .open(&Session::ephemeral(), now)
                .expect("under cap");
        }
        let err = registry
            .open(&Session::ephemeral(), now)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.limit, Some(LimitKind::Sessions));
    }

    #[test]
    fn resume_rules_attached_detached_swept_and_forged() {
        let registry = SessionRegistry::new(caps(50));
        let t0 = Instant::now();
        let session = registry.open(&Session::ephemeral(), t0).expect("open");
        let token = session.token.clone().unwrap();

        // Attached: a second resume is refused with a back-off hint.
        let busy = registry.resume(&token, t0).map(|_| ()).unwrap_err();
        assert_eq!(busy.kind, bpimc_core::ErrorKind::Generic);
        assert!(busy.retry_after_ms.is_some());

        // Detached within TTL: resume re-attaches.
        session.detach(t0);
        assert!(registry.sweep(t0 + Duration::from_millis(10)).is_empty());
        let resumed = registry.resume(&token, t0).expect("resume");
        assert!(Arc::ptr_eq(&resumed, &session));

        // Swept past TTL: session_expired, and the session is gone.
        resumed.detach(t0);
        assert_eq!(
            registry.sweep(t0 + Duration::from_millis(60)),
            vec![token.clone()]
        );
        assert_eq!(registry.len(), 0);
        let expired = registry.resume(&token, t0).map(|_| ()).unwrap_err();
        assert_eq!(expired.kind, bpimc_core::ErrorKind::SessionExpired);

        // A token never minted here: bad_token.
        let forged = registry.resume("deadbeef", t0).map(|_| ()).unwrap_err();
        assert_eq!(forged.kind, bpimc_core::ErrorKind::BadToken);
    }

    #[test]
    fn detach_is_idempotent_and_never_extends_the_ttl() {
        let registry = SessionRegistry::new(caps(50));
        let t0 = Instant::now();
        let session = registry.open(&Session::ephemeral(), t0).expect("open");
        session.detach(t0);
        // A repeat detach later must not restart the clock.
        session.detach(t0 + Duration::from_millis(40));
        assert_eq!(registry.sweep(t0 + Duration::from_millis(55)).len(), 1);
    }

    #[test]
    fn restored_sessions_carry_pre_restart_detachment_into_the_ttl() {
        let registry = SessionRegistry::new(caps(50));
        let t0 = Instant::now();
        let session = registry.open(&Session::ephemeral(), t0).expect("open");
        let token = session.token.clone().unwrap();
        // Simulate recovery: the session had already been detached for
        // 40ms when the process died; the clock restarts at t0.
        let detached_40ms_ago = |inner: &mut SessionInner| {
            let mut record = inner.state.clone();
            record.detached_since_ms = Some(1_000);
            *inner = SessionInner::restored(record, t0, 1_040);
        };
        detached_40ms_ago(&mut session.inner.lock());
        // 40ms carried + 20ms live = 60ms > 50ms TTL: swept, even though
        // only 20ms passed since "boot".
        assert_eq!(
            registry.sweep(t0 + Duration::from_millis(20)),
            vec![token.clone()]
        );

        // A resume clears the carry: a fresh detach gets the full TTL.
        let session = registry.open(&Session::ephemeral(), t0).expect("open");
        detached_40ms_ago(&mut session.inner.lock());
        let token = session.token.clone().unwrap();
        registry.resume(&token, t0).expect("resume clears carry");
        session.detach(t0 + Duration::from_millis(10));
        assert!(
            registry.sweep(t0 + Duration::from_millis(55)).is_empty(),
            "carry must not outlive the resume that cleared it"
        );
        assert_eq!(registry.sweep(t0 + Duration::from_millis(61)).len(), 1);
    }

    /// The `Exec` event settling one request with `billing`, recording
    /// `body` for replay when `seq` is set.
    fn exec(
        billing: BillingRecord,
        ran_pid: Option<u64>,
        seq: Option<u64>,
        body: ResponseBody,
    ) -> Event {
        Event::Exec {
            token: String::new(),
            billing,
            ran_pid,
            seq,
            response: seq.map(|_| Response { id: 0, body }.to_json_line()),
            unix_ms: 0,
        }
    }

    #[test]
    fn seq_guard_claims_replays_and_bounds_its_window() {
        let session = Session::ephemeral();
        let mut inner = session.inner.lock();
        assert!(!inner.is_replay(0));
        inner.apply(
            None,
            &exec(
                BillingRecord::Ok {
                    cycles: 5,
                    energy_fj: 1.0,
                },
                None,
                Some(0),
                ResponseBody::Scalar(42),
            ),
        );
        assert!(inner.is_replay(0));
        assert_eq!(inner.replayed(0), Some(ResponseBody::Scalar(42)));
        assert_eq!(inner.stats.requests, 1);
        // Fill past the window: seq 0 falls out, the newest stay.
        for seq in 1..=(REPLAY_WINDOW as u64) {
            inner.apply(
                None,
                &exec(BillingRecord::None, None, Some(seq), ResponseBody::Pong),
            );
        }
        assert!(inner.is_replay(0), "claimed seqs stay claimed");
        assert_eq!(inner.replayed(0), None, "but the window is bounded");
        assert_eq!(
            inner.replayed(REPLAY_WINDOW as u64),
            Some(ResponseBody::Pong)
        );
        // Replay-window settles bill nothing.
        assert_eq!(inner.stats.requests, 1);
        // A seq reserved by a job that has not settled is a replay too,
        // but leaves the watermark to the job's own `Exec`.
        inner.claim_seq(40);
        assert!(inner.is_replay(40));
        assert_eq!(inner.last_seq(), Some(REPLAY_WINDOW as u64));
    }

    #[test]
    fn run_history_tracks_success_error_and_totals() {
        use bpimc_core::{MacroConfig, ProgramBuilder};
        let mut bld = ProgramBuilder::new();
        let r = bld.alloc();
        bld.write_to(r, bpimc_core::Precision::P8, vec![1, 2]);
        bld.read(r, bpimc_core::Precision::P8, 2);
        let program = bld.finish();
        let compiled = program
            .compile(&MacroConfig::paper_macro())
            .expect("compile");

        let session = Session::ephemeral();
        let mut inner = session.inner.lock();
        inner.apply(
            None,
            &Event::Store {
                token: String::new(),
                pid: 7,
                name: Some("p".into()),
                instrs: program.instrs().to_vec(),
            },
        );
        inner.cache_program(7, Arc::new(compiled));
        assert_eq!(inner.resolve(&StoredTarget::Name("p".into())).unwrap().0, 7);

        inner.apply(
            None,
            &exec(
                BillingRecord::Ok {
                    cycles: 10,
                    energy_fj: 2.0,
                },
                Some(7),
                None,
                ResponseBody::Ok,
            ),
        );
        inner.apply(
            None,
            &exec(
                BillingRecord::Error {
                    message: "bad binding".into(),
                },
                Some(7),
                None,
                ResponseBody::Ok,
            ),
        );
        let entries = inner.program_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].runs, 1);
        assert_eq!(entries[0].errors, 1);
        assert_eq!(entries[0].total_cycles, 10);
        assert_eq!(
            entries[0].last_status,
            Some(RunStatus::Error {
                message: "bad binding".into()
            })
        );
        assert_eq!(inner.pid_of(&StoredTarget::Name("p".into())), Some(7));
        inner.apply(
            None,
            &Event::Delete {
                token: String::new(),
                pid: 7,
            },
        );
        assert!(inner.names.is_empty());
        assert!(inner.compiled.is_empty() && inner.programs.is_empty());
    }
}
