//! The threaded TCP service: accept loop, per-connection readers, bounded
//! request queue, the dispatcher that drains it in batches and executes
//! them on the one macro it owns, and the durable-session registry with
//! its TTL sweeper.

use crate::exec::{is_compute, run_compute, ComputeJob, Model};
use crate::fault::{FaultPlan, ResponseFault};
use crate::guard::SessionLimits;
use crate::persist::{
    self, unix_ms_now, BillingRecord, Event, Journal, Persist, Registry, StateConfig,
};
use crate::session::{RegistryCaps, Session, SessionInner, SessionRegistry};
use bpimc_core::{
    ErrorBody, ErrorKind, ImcMacro, LimitKind, MacroConfig, Program, Request, RequestBody,
    Response, ResponseBody, StoredMeta,
};
use bpimc_metrics::{paper_calibrated_params, EnergyParams};
use bpimc_nn::{classify_program, prototype_norms};
use bpimc_stats::parallel::par_queue_try_map;
use bpimc_stats::sync::atomic::{AtomicBool, AtomicU64};
use bpimc_stats::sync::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unused, and always 1 by default: the server executes every request
    /// on the one macro its dispatcher thread owns.
    #[deprecated(note = "the server runs on one macro; nothing reads this field")]
    pub macros: usize,
    /// Bound of each **session's** share of the request queue. A session
    /// that fills its share blocks its own connection reader — the
    /// backpressure lands on the chatty client through TCP flow control —
    /// while other sessions keep queueing and being served.
    pub queue_capacity: usize,
    /// Most requests the dispatcher drains at once (default 64). A compute
    /// run executes its requests one after another on the dispatcher's
    /// macro and delivers their responses after the last one, so this
    /// bounds how long a drained request waits for its response.
    pub batch_max: usize,
    /// The chaos schedule (defaults to [`FaultPlan::none`]).
    pub faults: FaultPlan,
    /// Per-session guardrails (defaults to unlimited rates, 64 stored
    /// programs).
    pub limits: SessionLimits,
    /// Socket write timeout: a peer that stops reading for this long
    /// mid-write is treated as gone (its responses are dropped and the
    /// outbox closes) instead of wedging the dispatcher, its writer
    /// thread, or graceful shutdown.
    pub write_timeout: Duration,
    /// Admission control: total queued items at or above this flips the
    /// server into shedding (new compute requests answer `overloaded`;
    /// control ops are always admitted). Must stay below the hard
    /// aggregate bound (`GLOBAL_SHARES` x `queue_capacity`), which still
    /// backstops by blocking readers.
    pub shed_high: usize,
    /// Shedding switches back off once total queued items drain to this
    /// (hysteresis, so the server does not flap at the boundary).
    pub shed_low: usize,
    /// How long a detached durable session (its connection dropped, no
    /// resume yet) lingers before the sweeper garbage-collects it.
    pub session_ttl: Duration,
    /// Most durable sessions — attached or detached — the registry holds
    /// at once; `open_session` past this answers `limit_exceeded`
    /// (`sessions`).
    pub max_sessions: usize,
    /// Global cap on stored programs summed across every durable session
    /// (`limit_exceeded` naming `registry_programs`) — so orphaned
    /// sessions each under the per-session cap cannot together exhaust
    /// server memory while they wait out the TTL.
    pub max_registry_programs: usize,
    /// Crash-safe durable state (`--state-dir`): `Some` journals every
    /// durable-session mutation to disk, snapshots periodically, and
    /// recovers both at the next boot. `None` (the default) keeps all
    /// state in memory with zero persistence cost on the serving path.
    pub state: Option<StateConfig>,
}

#[allow(deprecated)] // sets `macros` for readers that remain
impl Default for ServerConfig {
    fn default() -> Self {
        let queue_capacity = 1024;
        Self {
            macros: 1,
            queue_capacity,
            batch_max: 64,
            faults: FaultPlan::none(),
            limits: SessionLimits::default(),
            write_timeout: DEFAULT_WRITE_TIMEOUT,
            shed_high: GLOBAL_SHARES * queue_capacity * 3 / 4,
            shed_low: GLOBAL_SHARES * queue_capacity / 2,
            session_ttl: DEFAULT_SESSION_TTL,
            max_sessions: 1024,
            max_registry_programs: 4096,
            state: None,
        }
    }
}

impl ServerConfig {
    /// Rescales the shed watermarks to a new queue capacity (3/4 and 1/2
    /// of the hard aggregate bound) — call after changing
    /// `queue_capacity` unless you set the watermarks yourself.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self.shed_high = GLOBAL_SHARES * capacity * 3 / 4;
        self.shed_low = GLOBAL_SHARES * capacity / 2;
        self
    }
}

/// Response lines one connection's outbox buffers before the dispatcher
/// blocks on that connection (the bounded hand-off to its writer thread);
/// also the most lines one pushed chunk may hold.
const OUTBOX_CAPACITY: usize = 256;

/// Default for [`ServerConfig::write_timeout`].
const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Default for [`ServerConfig::session_ttl`]: long enough to ride out any
/// realistic reconnect backoff, short enough that orphaned sessions never
/// pile up meaningfully.
const DEFAULT_SESSION_TTL: Duration = Duration::from_secs(60);

/// A response write stalling at least this long marks its connection
/// `slow` (sticky): later responses always go through the connection's
/// writer thread instead of the inline fast path, so a peer that reads
/// sluggishly can stall the dispatcher at most once. Only writes whose
/// *throughput* is also under [`SLOW_PEER_BYTES_PER_SEC`] count — a large
/// coalesced drain to a healthy bandwidth-limited peer is not a stall.
const SLOW_WRITE_THRESHOLD: std::time::Duration = std::time::Duration::from_millis(20);

/// Below this write throughput a long write counts as a peer stall rather
/// than a big transfer (1 MB/s — an order of magnitude under any link the
/// service is meant for, far above a wedged peer's ~0).
const SLOW_PEER_BYTES_PER_SEC: f64 = 1e6;

/// Retry-after hint on `overloaded` sheds: long enough that a backing-off
/// client skips the worst of the burst, short enough to find the queue
/// drained (error items drain at memory speed, not macro speed).
const SHED_RETRY_AFTER_MS: u64 = 50;

/// Hard cap on one request line. Readers discard over-long lines (and
/// answer with an error) instead of buffering them, so a client streaming
/// an unterminated request cannot grow server memory without bound.
const MAX_LINE_BYTES: usize = 4 << 20;

/// How long the accept loop sleeps after a failed `accept`. At the
/// descriptor limit `accept` fails at once while a connection waits in the
/// backlog; the pause bounds that retry loop's CPU and delays a freed
/// descriptor's next accept by at most this much.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// One queued request with the connection it came from. Malformed lines
/// — and requests refused at admission (shed, over the in-flight cap) —
/// travel through the queue too (`body: Err`), so their error responses
/// keep the per-connection FIFO ordering the protocol promises.
struct Item {
    conn: Arc<Conn>,
    id: u64,
    /// Position in the connection's request stream (keys the fault plan).
    seq: u64,
    /// The client-stamped idempotency sequence number, if the request
    /// carried one (meaningful only on durable sessions).
    req_seq: Option<u64>,
    /// When the request's `timeout_ms` expires, if it carried one.
    deadline: Option<Instant>,
    body: Result<RequestBody, ErrorBody>,
}

/// Aggregate bound: total queued items may reach this many session
/// shares, whatever the connection count — so N connections cannot
/// queue N full FIFOs of near-`MAX_LINE_BYTES` requests and grow
/// server memory without limit. At the aggregate bound every reader
/// blocks (the pre-fairness global behaviour, as the backstop).
pub(crate) const GLOBAL_SHARES: usize = 16;

/// The bounded queue between connection readers and the dispatcher.
///
/// Internally one FIFO **per session**, drained round-robin one request at
/// a time — the fairness fix for the old single global FIFO, where one
/// client pipelining thousands of requests made everyone else wait for the
/// whole backlog. Per-connection FIFO order (the protocol's promise) is
/// untouched; only the interleaving *between* sessions changes. The
/// capacity bound applies per session, so a flooding client backpressures
/// itself without consuming other sessions' queue space.
///
/// Generic over the queued payload so the concurrency models (`model`
/// feature) can drive the exact production protocol — the same waits,
/// wakeups, shed hysteresis and round-robin drain — with plain values
/// instead of live connections. The server instantiates `Queue<Item>`.
pub(crate) struct Queue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Shedding flips on at this many total queued items…
    shed_high: usize,
    /// …and back off once the total drains to this (hysteresis).
    shed_low: usize,
}

struct QueueState<T> {
    /// Connection ids with a non-empty FIFO, in rotation order.
    ready: VecDeque<u64>,
    /// The per-session FIFOs (entries removed when drained).
    per_conn: HashMap<u64, VecDeque<T>>,
    /// Items across all sessions (the aggregate-memory bound).
    total: usize,
    /// Admission control: while set, new compute requests are answered
    /// `overloaded` instead of queued (control ops always pass).
    shedding: bool,
    closed: bool,
}

impl<T> Queue<T> {
    pub(crate) fn new(capacity: usize, shed_high: usize, shed_low: usize) -> Self {
        Self {
            state: Mutex::named(
                "server.queue.state",
                QueueState {
                    ready: VecDeque::new(),
                    per_conn: HashMap::new(),
                    total: 0,
                    shedding: false,
                    closed: false,
                },
            ),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            shed_high: shed_high.max(1),
            shed_low: shed_low.min(shed_high.saturating_sub(1)),
        }
    }

    /// Admission check with hysteresis: shedding flips on when the total
    /// backlog reaches `shed_high` and off once it drains to `shed_low`.
    /// Readers call this per compute request; a `true` answer means the
    /// request should be refused with `overloaded` (which still rides the
    /// queue as an error item, preserving response order — error items
    /// cost no macro time, so a shedding server drains them fast).
    pub(crate) fn should_shed(&self) -> bool {
        let mut state = self.state.lock();
        if state.total >= self.shed_high {
            state.shedding = true;
        } else if state.total <= self.shed_low {
            state.shedding = false;
        }
        state.shedding
    }

    /// Blocks while this item's session is at its queue share, or the
    /// queue as a whole is at its aggregate bound (the backpressure
    /// points). `Err(())` means the server is shutting down and the item
    /// was not enqueued.
    pub(crate) fn push(&self, conn_id: u64, item: T) -> Result<(), ()> {
        let mut state = self.state.lock();
        while !state.closed
            && (state.total >= GLOBAL_SHARES * self.capacity
                || state
                    .per_conn
                    .get(&conn_id)
                    .is_some_and(|q| q.len() >= self.capacity))
        {
            state = self.not_full.wait(state);
        }
        if state.closed {
            return Err(());
        }
        let fifo = state.per_conn.entry(conn_id).or_default();
        let was_empty = fifo.is_empty();
        fifo.push_back(item);
        state.total += 1;
        if was_empty {
            state.ready.push_back(conn_id);
        }
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until items are available; drains up to `max`, taking one
    /// request per ready session per rotation (round-robin). `None` means
    /// closed **and** fully drained — queued work always gets responses
    /// before shutdown completes.
    pub(crate) fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let mut state = self.state.lock();
        while state.ready.is_empty() && !state.closed {
            state = self.not_empty.wait(state);
        }
        if state.ready.is_empty() {
            return None;
        }
        let mut batch = Vec::new();
        while batch.len() < max.max(1) {
            let Some(conn_id) = state.ready.pop_front() else {
                break;
            };
            let fifo = state
                .per_conn
                .get_mut(&conn_id)
                .expect("ready sessions have a FIFO");
            batch.push(fifo.pop_front().expect("ready FIFOs are non-empty"));
            let drained = fifo.is_empty();
            state.total -= 1;
            if drained {
                state.per_conn.remove(&conn_id);
            } else {
                state.ready.push_back(conn_id);
            }
        }
        drop(state);
        self.not_full.notify_all();
        Some(batch)
    }

    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// The bounded response queue between response producers (the dispatcher,
/// during shutdown also readers) and one connection's writer thread.
///
/// Producers push **chunks**: newline-terminated response lines written
/// back to back. A control response is a one-line chunk; a compute run's
/// responses to this connection are one chunk (split only at
/// `OUTBOX_CAPACITY` lines or at an injected delivery fault, see
/// [`process_batch`]), so a connection that keeps up receives the whole
/// run in one `write`. The bound is counted in lines, not chunks: a
/// producer blocks while the pending lines plus its chunk's would exceed
/// the capacity.
///
/// The hot path writes **inline**: when nothing is pending, no drain is in
/// progress and the peer has never stalled a write, the responder takes
/// the drainer role, writes its own chunk and returns — no thread
/// hand-off, whose wake-up costs tens of microseconds at the median and
/// 0.1–0.3 ms in the tail (see the host costs in
/// `bpimc_stats::parallel`'s module docs). The writer thread takes over
/// when fan-out decouples from the dispatcher's pace: a backlog is
/// pending, another drain is already in flight, or the connection has been
/// marked `slow`.
/// Either way at most one thread writes to the socket at a time
/// (`draining`), so response bytes never interleave.
///
/// **Slow peers cannot hold the dispatcher.** Any drain whose socket write
/// stalls past [`SLOW_WRITE_THRESHOLD`] marks the connection `slow` —
/// sticky — after which every response is handed to the writer thread, so
/// the dispatcher is exposed to at most one bounded stall per connection
/// ([`ServerConfig::write_timeout`] caps even that). A slow connection whose bounded
/// outbox then fills is declared wedged and dropped rather than letting
/// its backpressure reach the dispatcher through the full-outbox wait.
///
/// `inflight` counts requests this connection has in the central queue
/// whose response has not been produced yet; the writer thread exits only
/// when the reader is gone **and** nothing is in flight **and** the
/// backlog is drained, so a pipelining client that half-closes after its
/// last request still receives every response.
pub(crate) struct Outbox {
    state: Mutex<OutboxState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// The transport an [`Outbox`] drains into. Production code implements it
/// on [`Conn`] (a `TcpStream`); the concurrency models substitute an
/// in-memory peer, so the exact drain/backpressure/wedge protocol runs
/// under the deterministic scheduler.
pub(crate) trait ResponseSink {
    /// Writes one coalesced buffer; `false` means the peer is gone.
    fn write_all(&self, buf: &[u8]) -> bool;
    /// Severs the underlying transport in both directions.
    fn sever(&self);
}

pub(crate) struct OutboxState {
    /// Pushed chunks not yet handed to the kernel, in push order. Each
    /// holds one or more newline-terminated response lines.
    pending: VecDeque<String>,
    /// Response lines across `pending`: what the capacity bounds.
    lines: usize,
    /// A producer is parked on `not_full`; the next drain wakes it.
    blocked: bool,
    /// One thread (writer or an inline responder) is currently writing.
    draining: bool,
    inflight: u64,
    /// No further requests will arrive (reader exited, or server drained).
    reader_gone: bool,
    /// A write to this peer has stalled before (sticky): never write
    /// inline again — fan-out goes through the writer thread only.
    slow: bool,
    /// An injected chaos stall: the next drain sleeps this long (off the
    /// dispatcher, on the writer thread) before writing.
    stall: Option<Duration>,
    /// Socket dead (error or a write-timeout stall): pushes are silently
    /// dropped so producers can never block on a vanished client.
    closed: bool,
}

impl Outbox {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::named(
                "server.outbox.state",
                OutboxState {
                    pending: VecDeque::new(),
                    lines: 0,
                    blocked: false,
                    draining: false,
                    inflight: 0,
                    reader_gone: false,
                    slow: false,
                    stall: None,
                    closed: false,
                },
            ),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Registers one request whose response is owed (called by the reader
    /// before the central-queue push, so the writer never exits between a
    /// request being queued and its response being produced). Returns the
    /// new in-flight count so the reader can enforce the per-connection
    /// cap without a second lock.
    pub(crate) fn expect_response(&self) -> u64 {
        let mut state = self.state.lock();
        state.inflight += 1;
        state.inflight
    }

    /// Injects a chaos stall: marks the connection `slow` (so the write
    /// happens on the writer thread, not the dispatcher) and makes the
    /// next drain sleep `d` before writing — a peer reading sluggishly.
    fn inject_stall(&self, d: Duration) {
        let mut state = self.state.lock();
        state.slow = true;
        state.stall = Some(d);
    }

    /// Severs the connection (chaos `Drop` fault): closes the outbox so
    /// producers never block on it and the writer thread exits, then shuts
    /// the socket down so the reader sees EOF.
    fn force_close(&self, sink: &impl ResponseSink) {
        self.sever(sink, self.state.lock());
    }

    /// Closes the outbox for good: drops what is pending, wakes every
    /// waiting producer and the writer thread, and severs the transport.
    fn sever(&self, sink: &impl ResponseSink, mut state: MutexGuard<'_, OutboxState>) {
        state.closed = true;
        state.pending.clear();
        state.lines = 0;
        drop(state);
        self.not_full.notify_all();
        self.not_empty.notify_all();
        sink.sever();
    }

    /// Queues one chunk of `n` serialized lines (each newline-terminated),
    /// blocking while the pending lines plus `n` exceed the capacity; then
    /// either writes it inline (fast path, see the type docs) or leaves it
    /// for the writer thread. Balances `n` `expect_response`s; `n` is at
    /// most the capacity.
    pub(crate) fn push_lines(&self, sink: &impl ResponseSink, chunk: String, n: usize) {
        debug_assert!(n <= self.capacity, "a {n}-line chunk can never fit");
        let mut state = self.state.lock();
        state.inflight = state.inflight.saturating_sub(n as u64);
        while !state.closed && state.lines + n > self.capacity {
            if state.slow {
                // A peer that both stalled a write and let its bounded
                // outbox fill is effectively not reading. Drop it rather
                // than letting its backpressure block the producer (the
                // dispatcher) behind the full-outbox wait.
                self.sever(sink, state);
                return;
            }
            state.blocked = true;
            state = self.not_full.wait(state);
        }
        if state.closed {
            drop(state);
            self.not_empty.notify_all();
            return;
        }
        state.pending.push_back(chunk);
        state.lines += n;
        if state.draining || state.slow || state.pending.len() > 1 {
            // A drain is active, the peer has stalled before, or a backlog
            // exists: the writer thread owns the fan-out from here.
            drop(state);
            self.not_empty.notify_one();
            return;
        }
        self.drain(sink, state);
    }

    /// Takes the drainer role: coalesces everything pending into one
    /// buffer, writes it with a single syscall, repeats until the backlog
    /// is empty. A lone pending chunk is written as it was pushed, without
    /// a copy. Called with the state lock held; writes happen unlocked.
    pub(crate) fn drain<'a>(
        &'a self,
        sink: &impl ResponseSink,
        mut state: MutexGuard<'a, OutboxState>,
    ) {
        state.draining = true;
        loop {
            let wake_producers = std::mem::take(&mut state.blocked);
            let stall = state.stall.take();
            state.lines = 0;
            // Collecting into a `String` appends the other chunks to the
            // first one, which it moves, never copies.
            let buf: String = state.pending.drain(..).collect();
            drop(state);
            if wake_producers {
                self.not_full.notify_all();
            }
            if let Some(d) = stall {
                // Injected chaos stall: always consumed here, off the
                // dispatcher (`inject_stall` marked the connection slow,
                // so this drain runs on the writer thread).
                std::thread::sleep(d);
            }
            let t_write = std::time::Instant::now();
            let ok = sink.write_all(buf.as_bytes());
            let elapsed = t_write.elapsed();
            state = self.state.lock();
            if elapsed >= SLOW_WRITE_THRESHOLD
                && (buf.len() as f64) < SLOW_PEER_BYTES_PER_SEC * elapsed.as_secs_f64()
            {
                // This peer can stall a write (long wait, little data
                // moved). Never again on the inline path: all further
                // fan-out goes through the writer thread, bounding the
                // dispatcher's exposure to one stall per connection.
                state.slow = true;
            }
            if !ok {
                state.draining = false;
                self.sever(sink, state);
                return;
            }
            if state.pending.is_empty() {
                state.draining = false;
                // Wake the parked writer thread only when it may have to
                // exit now — an unconditional wake here would cost a
                // pointless context switch per response on the fast path.
                let wake_writer = state.reader_gone && state.inflight == 0;
                drop(state);
                if wake_writer {
                    self.not_empty.notify_all();
                }
                return;
            }
        }
    }

    /// Marks that no further requests will arrive on this connection.
    pub(crate) fn no_more_requests(&self) {
        self.state.lock().reader_gone = true;
        self.not_empty.notify_all();
    }

    /// The writer thread's wait: blocks until there is a backlog to drain
    /// (returns the locked state, `draining` already claimed) or the
    /// connection is finished (`None`: exit).
    pub(crate) fn claim_backlog(&self) -> Option<MutexGuard<'_, OutboxState>> {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return None;
            }
            if !state.pending.is_empty() && !state.draining {
                return Some(state);
            }
            if state.pending.is_empty()
                && !state.draining
                && state.reader_gone
                && state.inflight == 0
            {
                return None;
            }
            state = self.not_empty.wait(state);
        }
    }
}

/// One client connection. Its session lives behind a *slot*: every
/// connection starts with a fresh ephemeral [`Session`], and
/// `open_session` / `resume_session` swap a durable one in. The slot lock
/// is only ever held long enough to clone or swap the `Arc` — all real
/// state sits behind the session's own lock — so it nests inside nothing.
struct Conn {
    id: u64,
    stream: TcpStream,
    outbox: Outbox,
    session: Mutex<Arc<Session>>,
}

impl Conn {
    /// The session currently attached to this connection.
    fn session(&self) -> Arc<Session> {
        self.session.lock().clone()
    }

    /// Produces one response outside a compute run (control ops, refusals
    /// of unparsed or shed lines, shutdown): serialized here and pushed
    /// as a one-line chunk, then written inline when this connection is
    /// keeping up, or handed to its writer thread when a backlog is
    /// pending (bounded at `OUTBOX_CAPACITY` lines — beyond that the
    /// producer blocks, the per-connection backpressure point). Compute
    /// runs push their responses per connection instead ([`deliver`]).
    fn respond(&self, id: u64, body: ResponseBody) {
        let mut line = Response { id, body }.to_json_line();
        line.push('\n');
        self.outbox.push_lines(self, line, 1);
    }
}

impl ResponseSink for Conn {
    fn write_all(&self, buf: &[u8]) -> bool {
        Write::write_all(&mut &self.stream, buf).is_ok()
    }

    fn sever(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// The per-connection writer thread: parks until a response backlog
/// appears (a client reading slower than the dispatcher answers), then
/// drains it in coalesced writes — the response fan-out path that used to
/// serialize through the dispatcher. [`ServerConfig::write_timeout`] (set
/// on the socket at accept) bounds how long any drain — inline or here —
/// can stall on a peer that stopped reading; a stalled peer's outbox
/// closes and its remaining responses are dropped.
fn writer_loop(conn: &Arc<Conn>) {
    while let Some(state) = conn.outbox.claim_backlog() {
        conn.outbox.drain(conn.as_ref(), state);
    }
}

/// State shared by the accept loop, readers, writers, dispatcher and
/// handle.
struct Shared {
    config: ServerConfig,
    addr: SocketAddr,
    queue: Queue<Item>,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    sessions: Arc<SessionRegistry>,
    /// The write-ahead journal + snapshot engine, when `--state-dir` is
    /// on. Sessions and the registry journal their own events through it;
    /// the server itself only takes the final snapshot.
    persist: Option<Arc<Persist>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    writers: Mutex<Vec<JoinHandle<()>>>,
    next_conn_id: AtomicU64,
    shutting_down: AtomicBool,
}

impl Shared {
    /// Idempotent: stops the accept loop, closes the queue and stops the
    /// session sweeper. Already queued requests still drain and get
    /// responses; new pushes fail.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        self.sessions.stop_sweeper();
        // Unblock the accept loop with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
    }

    /// Closes every live connection so reader threads see EOF and exit.
    fn close_all_conns(&self) {
        for conn in self.conns.lock().values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

/// The service entry point; see the crate documentation for the protocol.
pub struct Server;

impl Server {
    /// Binds the service and spawns its accept and dispatcher threads.
    /// `addr` may use port 0 for an ephemeral port; the bound address is
    /// available as [`ServerHandle::local_addr`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let caps = RegistryCaps {
            ttl: config.session_ttl,
            max_sessions: config.max_sessions,
            max_programs: config.max_registry_programs,
        };
        // Recovery happens before the listener accepts anything: by the
        // time a client can connect, every recovered session is already
        // resumable with its pre-crash account, programs and seq window.
        let (persist, sessions) = match &config.state {
            Some(state) => {
                let (persist, sessions) = recover(state, caps)?;
                (Some(persist), sessions)
            }
            None => (None, SessionRegistry::new(caps)),
        };
        let sessions = Arc::new(sessions);
        let queue = Queue::new(config.queue_capacity, config.shed_high, config.shed_low);
        let shared = Arc::new(Shared {
            config,
            addr,
            queue,
            conns: Mutex::named("server.conns", HashMap::new()),
            sessions: sessions.clone(),
            persist: persist.clone(),
            readers: Mutex::named("server.readers", Vec::new()),
            writers: Mutex::named("server.writers", Vec::new()),
            next_conn_id: AtomicU64::named("server.conn.next-id", 1),
            shutting_down: AtomicBool::named("server.shutting-down", false),
        });

        let sweeper = std::thread::Builder::new()
            .name("bpimc-session-gc".into())
            .spawn(move || {
                let registry = sessions.clone();
                sessions.run_sweeper(move || {
                    registry.sweep(Instant::now());
                    // Interval fsyncs and due snapshots ride the same
                    // tick — nothing on the request path.
                    if let Some(p) = &persist {
                        p.tick(&registry);
                    }
                });
            })
            .expect("spawning the session sweeper thread");
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("bpimc-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawning the accept thread")
        };
        let dispatcher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("bpimc-dispatch".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawning the dispatcher thread")
        };

        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
            sweeper: Some(sweeper),
        })
    }
}

/// Opens the state directory and rebuilds the registry it holds: newest
/// valid snapshot, journal-tail replay, then materialization — stored
/// programs and classifier models recompiled from their journaled source
/// streams on a scratch macro (billing nothing; the original bills are
/// already in the recovered accounts). Runs to completion before the
/// server accepts its first connection, and logs which recovery path was
/// taken.
fn recover(
    state: &StateConfig,
    caps: RegistryCaps,
) -> std::io::Result<(Arc<Persist>, SessionRegistry)> {
    let (persist, recovery) = Persist::open(state)?;
    let persist = Arc::new(persist);
    eprintln!("bpimc-server: {}", recovery.path);
    if let Some(c) = &recovery.corruption {
        eprintln!(
            "bpimc-server: journal tail dropped at byte {}: {} ({} bytes discarded)",
            c.offset, c.reason, c.dropped_bytes
        );
    }
    let Registry {
        sessions,
        expired,
        mint_counter,
    } = recovery.registry;
    let mut notes = Vec::new();
    let sessions = if sessions.is_empty() {
        Vec::new()
    } else {
        let mut mac = ImcMacro::new(MacroConfig::paper_macro());
        let params = paper_calibrated_params();
        let now = Instant::now();
        sessions
            .into_iter()
            .map(|rec| persist::materialize_session(rec, &mut mac, &params, now, &mut notes))
            .collect()
    };
    for note in notes {
        eprintln!("bpimc-server: recovery: {note}");
    }
    let recovered = Registry {
        sessions,
        expired,
        mint_counter,
    };
    let registry = SessionRegistry::restore(caps, persist.clone(), recovered);
    Ok((persist, registry))
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates a graceful shutdown and waits for every thread to finish:
    /// queued requests drain with responses, then connections close.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }

    /// Blocks until the server shuts down for another reason (a client's
    /// `shutdown` request), then joins every thread.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock());
        for h in readers {
            let _ = h.join();
        }
        let writers = std::mem::take(&mut *self.shared.writers.lock());
        for h in writers {
            let _ = h.join();
        }
        // Every thread that could mutate session state is joined (readers
        // journal their final detaches on exit), so this snapshot is the
        // complete final state: write it plus the clean-shutdown marker,
        // and the next boot skips journal replay entirely.
        if let Some(p) = &self.shared.persist {
            p.finalize(&self.shared.sessions);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            // Out of descriptors (EMFILE), `accept` fails at once for as
            // long as the pending connection waits in the backlog: back
            // off instead of spinning until a connection closes.
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        // Responses are complete lines a client acts on immediately: send
        // them now instead of letting Nagle pair small writes with delayed
        // ACKs (which stalls pipelined streams for tens of milliseconds).
        let _ = stream.set_nodelay(true);
        // Bounds every response write — inline or on the writer thread —
        // so a peer that stops reading cannot wedge a drain forever.
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(Conn {
            id,
            stream,
            outbox: Outbox::new(OUTBOX_CAPACITY),
            session: Mutex::named("server.conn.session-slot", Session::ephemeral()),
        });
        shared.conns.lock().insert(id, conn.clone());
        // Re-check AFTER registering: if a shutdown slipped in between the
        // loop-top check and the insert, `close_all_conns` may already have
        // run without seeing this connection — sever it here so its reader
        // cannot outlive the shutdown and wedge `join`.
        if shared.shutting_down.load(Ordering::SeqCst) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        let writer_conn = conn.clone();
        let writer = std::thread::Builder::new()
            .name(format!("bpimc-write-{id}"))
            .spawn(move || writer_loop(&writer_conn))
            .expect("spawning a connection writer");
        reap_and_push(&shared.writers, writer);
        let reader_shared = shared.clone();
        let reader = std::thread::Builder::new()
            .name(format!("bpimc-conn-{id}"))
            .spawn(move || reader_loop(conn, &reader_shared))
            .expect("spawning a connection reader");
        reap_and_push(&shared.readers, reader);
    }
}

/// Stores a per-connection thread handle, reaping finished ones so a
/// long-running server does not accumulate one JoinHandle per connection
/// it ever accepted.
fn reap_and_push(slot: &Mutex<Vec<JoinHandle<()>>>, handle: JoinHandle<()>) {
    let mut handles = slot.lock();
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
    handles.push(handle);
}

/// How one capped line read ended.
enum LineRead {
    /// Connection closed (or errored) with nothing buffered.
    Eof,
    /// A complete line is in the buffer.
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; the excess was discarded up
    /// to (and including) the next newline.
    TooLong,
}

/// `read_line` with a hard size cap: over-long lines are *discarded* in
/// chunks rather than buffered, bounding per-connection memory. The line
/// is built in `line`'s own buffer, which its connection reuses from line
/// to line; invalid UTF-8 becomes U+FFFD, as `String::from_utf8_lossy`
/// replaces it.
fn read_line_capped(reader: &mut impl BufRead, line: &mut String, cap: usize) -> LineRead {
    let mut buf = std::mem::take(line).into_bytes();
    buf.clear();
    let read = fill_line(reader, &mut buf, cap);
    *line = String::from_utf8(buf)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    read
}

/// The bytes of [`read_line_capped`]: appends the next line to `buf`
/// without its newline (or clears `buf` when the line is too long).
fn fill_line(reader: &mut impl BufRead, buf: &mut Vec<u8>, cap: usize) -> LineRead {
    loop {
        let available = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(_) => return LineRead::Eof,
        };
        if available.is_empty() {
            // EOF: a trailing unterminated line still counts as a line.
            if buf.is_empty() {
                return LineRead::Eof;
            }
            return LineRead::Line;
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |p| p);
        if buf.len() + take > cap {
            // Too long: drop what we have and skip to the next newline.
            buf.clear();
            loop {
                let chunk = match reader.fill_buf() {
                    Ok(c) => c,
                    Err(_) => return LineRead::Eof,
                };
                if chunk.is_empty() {
                    return LineRead::TooLong;
                }
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(p) => {
                        reader.consume(p + 1);
                        return LineRead::TooLong;
                    }
                    None => {
                        let n = chunk.len();
                        reader.consume(n);
                    }
                }
            }
        }
        buf.extend_from_slice(&available[..take]);
        match newline {
            Some(p) => {
                reader.consume(p + 1);
                return LineRead::Line;
            }
            None => reader.consume(take),
        }
    }
}

fn reader_loop(conn: Arc<Conn>, shared: &Arc<Shared>) {
    // Reads go through a shared borrow of the accepted socket, so a
    // connection holds one descriptor and needs no second one to start.
    let mut reader = BufReader::new(&conn.stream);
    let mut line = String::new();
    let limits = shared.config.limits;
    let mut seq: u64 = 0;
    loop {
        let (id, req_seq, deadline, mut body) =
            match read_line_capped(&mut reader, &mut line, MAX_LINE_BYTES) {
                LineRead::Eof => break,
                LineRead::TooLong => (
                    0,
                    None,
                    None,
                    Err(ErrorBody::generic(format!(
                        "request line exceeds {MAX_LINE_BYTES} bytes"
                    ))),
                ),
                LineRead::Line => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match Request::parse(&line) {
                        Ok(req) => {
                            // The deadline clock starts when the line is read:
                            // time spent queued counts against it.
                            let deadline = req
                                .timeout_ms
                                .map(|ms| Instant::now() + Duration::from_millis(ms));
                            (req.id, req.seq, deadline, Ok(req.body))
                        }
                        // Malformed lines go through the queue like any other
                        // request, so their error responses keep the
                        // per-connection FIFO ordering. A line whose id is
                        // unreadable is answered with the documented sentinel
                        // id 0 (`peek_id` returns `None` for those).
                        Err(e) => (
                            Request::peek_id(&line).unwrap_or(0),
                            None,
                            None,
                            Err(ErrorBody::generic(e.to_string())),
                        ),
                    }
                }
            };
        // Register the owed response *before* queueing, so the writer
        // thread cannot exit between the push and the dispatcher's answer.
        let inflight = conn.outbox.expect_response();
        // Admission control, compute requests only — control ops (ping,
        // stats, shutdown, …) always pass so health checks survive
        // overload. Refusals still ride the queue as error items, keeping
        // the per-connection FIFO response order.
        if matches!(&body, Ok(b) if is_compute(b)) {
            if let Some(max) = limits.max_inflight.filter(|&max| inflight > max) {
                body = Err(ErrorBody::limit(
                    LimitKind::Inflight,
                    None,
                    format!("{inflight} requests in flight but the limit is {max}"),
                ));
            } else if shared.queue.should_shed() {
                body = Err(ErrorBody::overloaded(
                    Some(SHED_RETRY_AFTER_MS),
                    "server overloaded: request queue is above its shed watermark",
                ));
            }
        }
        if shared
            .queue
            .push(
                conn.id,
                Item {
                    conn: conn.clone(),
                    id,
                    seq,
                    req_seq,
                    deadline,
                    body,
                },
            )
            .is_err()
        {
            // Queue closed: the dispatcher will never answer. This is the
            // one response written off-order, and only during shutdown.
            let outcome = refused("server is shutting down".into());
            finish_control(&conn, &conn.session(), id, None, outcome);
            break;
        }
        seq += 1;
    }
    // The writer finishes any in-flight responses, then exits.
    conn.outbox.no_more_requests();
    // Deregister this connection *before* detaching its session: a
    // concurrent `resume_session` that attaches a session to this
    // connection re-checks `conns` after the swap and detaches again if
    // we are already gone, so this ordering leaves no window in which a
    // session stays attached to a dead connection (see `handle_control`).
    shared.conns.lock().remove(&conn.id);
    conn.session().detach(Instant::now());
}

fn dispatch_loop(shared: &Arc<Shared>) {
    let config = &shared.config;
    let mut mac = ImcMacro::new(MacroConfig::paper_macro());
    let params = paper_calibrated_params();
    let mut chunks = Vec::new();
    while let Some(batch) = shared.queue.pop_batch(config.batch_max) {
        process_batch(batch, &mut mac, &params, shared, &mut chunks);
    }
    // Queue closed and drained: every queued request has its response in
    // an outbox. Let the writers flush those, then sever the connections
    // so readers exit.
    for conn in shared.conns.lock().values() {
        conn.outbox.no_more_requests();
    }
    let writers = std::mem::take(&mut *shared.writers.lock());
    for w in writers {
        let _ = w.join();
    }
    shared.close_all_conns();
}

/// Whether one compute item in a drained run executes on the macro, was
/// refused before touching any array state (deadline already expired in
/// queue, rate budget exhausted), or is an idempotent-retry duplicate.
/// Every variant keeps its slot in the response order.
enum Prepared {
    /// Executes as a job on the dispatcher's macro; its seq (if stamped)
    /// was claimed at job-build time, so a same-batch duplicate already
    /// resolves to `Replay`.
    Run,
    /// Refused before execution. Transient by construction — the op never
    /// ran — so a stamped seq is deliberately *not* claimed: the client's
    /// retry of the same seq gets re-admitted fresh.
    Refused(ErrorBody),
    /// The stamped seq was already claimed by an earlier request: answer
    /// from the session's replay window at record time (by then the
    /// original — which precedes this slot in response order — has cached
    /// its response), executing and billing nothing.
    Replay(u64),
}

/// One slot of a drained compute run: the connection and session it
/// settles against, response-ordering keys, and how it was prepared.
struct MetaItem {
    conn: Arc<Conn>,
    /// Snapshotted at job-build time: control ops that swap the
    /// connection's session slot cannot race a compute run (they execute
    /// between runs), so this is the session the request was admitted
    /// under — the one its outcome must settle against.
    session: Arc<Session>,
    id: u64,
    /// Conn-stream position (keys the fault plan).
    seq: u64,
    /// The claimed idempotency seq to record the response under, if the
    /// request was stamped, durable and actually executed.
    claimed: Option<u64>,
    /// The stored program a `run_stored` resolved to (run history).
    ran_pid: Option<u64>,
    prep: Prepared,
}

/// The canned answer for a stamped seq that was claimed but has fallen
/// out of the bounded replay window (a retry arriving implausibly late).
fn stale_seq_error(seq: u64) -> ErrorBody {
    ErrorBody::generic(format!(
        "request seq {seq} was already executed but its response left the replay window; \
         do not reuse seq numbers"
    ))
}

/// The responses one compute run owes one connection, serialized back to
/// back: [`deliver`] hands each to its connection's outbox in one push. A
/// run's responses to one connection take several chunks only past
/// `OUTBOX_CAPACITY` lines or at an injected delivery fault.
struct Chunk {
    conn: Arc<Conn>,
    /// Newline-terminated response lines, in arrival order.
    buf: String,
    /// Lines in `buf`, at most `OUTBOX_CAPACITY`.
    lines: usize,
    /// The delivery fault of the response this chunk starts at (left out
    /// of `buf` when it is a `Drop`).
    fault: Option<ResponseFault>,
}

/// Files one settled response of a compute run under its connection. It
/// joins that connection's last chunk, or starts a new one when it carries
/// a delivery fault or that chunk is full; a `Drop`ped response starts its
/// chunk without a line. A new chunk takes the first line's buffer from
/// `to_json_line`, so a one-response chunk costs the same one allocation
/// as a lone response.
fn add_response(
    chunks: &mut Vec<Chunk>,
    conn: Arc<Conn>,
    response: &Response,
    fault: Option<ResponseFault>,
) {
    let chunk = match chunks.iter().rposition(|c| c.conn.id == conn.id) {
        Some(i) if fault.is_none() && chunks[i].lines < OUTBOX_CAPACITY => &mut chunks[i],
        _ => {
            chunks.push(Chunk {
                conn,
                buf: String::new(),
                lines: 0,
                fault,
            });
            chunks.last_mut().expect("just pushed")
        }
    };
    if fault == Some(ResponseFault::Drop) {
        return;
    }
    if chunk.lines == 0 {
        chunk.buf = response.to_json_line();
    } else {
        response.write_json_line(&mut chunk.buf);
    }
    chunk.buf.push('\n');
    chunk.lines += 1;
}

/// Processes one drained batch in FIFO order: runs of consecutive compute
/// requests execute one after another on `mac`, the dispatcher's macro,
/// and control requests execute between runs. A run goes through
/// `par_queue_try_map` with one state slot, which runs every job on this
/// thread and turns a job's panic into that job's own `JobPanic` result.
/// Session accounting happens in arrival order, so each session observes
/// its own requests sequentially.
///
/// A compute run settles all its requests first, then serializes each
/// response into its connection's [`Chunk`] (in `chunks`, a buffer the
/// dispatcher reuses, empty between runs) and delivers the chunks
/// before the next control item runs. Every journaled byte is thus
/// written before any response of the run, and each connection's
/// responses keep their request order across runs and control responses.
///
/// Guardrails run here, at job-build time — before any array state
/// changes: a request whose deadline already expired in queue, or whose
/// session is over its cycle/energy budget, is answered with its
/// structured error instead of becoming a job.
fn process_batch(
    batch: Vec<Item>,
    mac: &mut ImcMacro,
    params: &EnergyParams,
    shared: &Arc<Shared>,
    chunks: &mut Vec<Chunk>,
) {
    let limits = shared.config.limits;
    let faults = shared.config.faults;
    let is_compute_item = |item: &Item| matches!(&item.body, Ok(body) if is_compute(body));
    let mut iter = batch.into_iter().peekable();
    while let Some(item) = iter.next() {
        if is_compute_item(&item) {
            let mut meta: Vec<MetaItem> = Vec::new();
            let mut jobs = Vec::new();
            let mut next = Some(item);
            loop {
                let it = match next.take() {
                    Some(it) => it,
                    None => match iter.next_if(is_compute_item) {
                        Some(it) => it,
                        None => break,
                    },
                };
                let body = it.body.expect("compute items carry a parsed body");
                let session = it.conn.session();
                // The idempotency guard applies to requests that carry a
                // seq on a durable session (ephemeral sessions cannot
                // reconnect, so there is nothing to guard).
                let guarded = it.req_seq.filter(|_| session.is_durable());
                let needs_snapshot = matches!(
                    &body,
                    RequestBody::Classify { .. } | RequestBody::RunStored { .. }
                );
                let needs_meter = it.deadline.is_some() || !limits.unmetered();
                // `Instant::now` and the session lock are skipped entirely
                // when nothing needs them (the default config's dot/lanes
                // path), keeping the hot path unchanged.
                let (mut model, mut stored, mut ran_pid, mut claimed) = (None, None, None, None);
                let refusal = if guarded.is_some() || needs_meter || needs_snapshot {
                    let mut inner = session.inner.lock();
                    if let Some(rseq) = guarded.filter(|&rseq| inner.is_replay(rseq)) {
                        drop(inner);
                        meta.push(MetaItem {
                            conn: it.conn,
                            session,
                            id: it.id,
                            seq: it.seq,
                            claimed: None,
                            ran_pid: None,
                            prep: Prepared::Replay(rseq),
                        });
                        continue;
                    }
                    // Deadline + rate budget, checked before the job
                    // exists — and before the seq is claimed, so these
                    // transient refusals stay retryable.
                    let refusal = if needs_meter {
                        let now = Instant::now();
                        if it.deadline.is_some_and(|d| now >= d) {
                            Some(ErrorBody::deadline(
                                "deadline expired while the request was queued",
                            ))
                        } else {
                            limits.admit(inner.rate, unix_ms_now()).err()
                        }
                    } else {
                        None
                    };
                    if refusal.is_none() {
                        if let Some(rseq) = guarded {
                            inner.claim_seq(rseq);
                            claimed = Some(rseq);
                        }
                        // Session state the job depends on is snapshotted
                        // at job-build time (Arc clones): a `load_model`
                        // or `store_program` earlier in the same drained
                        // batch is visible, and later session changes
                        // cannot race the job.
                        match &body {
                            RequestBody::Classify { .. } => model = inner.model.clone(),
                            RequestBody::RunStored { target, .. } => {
                                if let Some((pid, compiled)) = inner.resolve(target) {
                                    ran_pid = Some(pid);
                                    stored = Some(compiled);
                                }
                            }
                            _ => {}
                        }
                    }
                    refusal
                } else {
                    None
                };
                if let Some(err) = refusal {
                    meta.push(MetaItem {
                        conn: it.conn,
                        session,
                        id: it.id,
                        seq: it.seq,
                        claimed: None,
                        ran_pid: None,
                        prep: Prepared::Refused(err),
                    });
                    continue;
                }
                let fault = if faults.is_active() {
                    faults.compute_fault(it.conn.id, it.seq)
                } else {
                    None
                };
                meta.push(MetaItem {
                    conn: it.conn,
                    session,
                    id: it.id,
                    seq: it.seq,
                    claimed,
                    ran_pid,
                    prep: Prepared::Run,
                });
                jobs.push(ComputeJob {
                    body,
                    model,
                    stored,
                    deadline: it.deadline,
                    max_program_instrs: limits.max_program_instrs,
                    fault,
                });
            }
            let mut results = par_queue_try_map(std::slice::from_mut(mac), &jobs, |mac, job| {
                run_compute(mac, job, params)
            })
            .into_iter();
            let unix_ms = unix_ms_now();
            for m in meta {
                let settle = |outcome| {
                    let (ev, body) =
                        settle_event(&m.session, outcome, m.ran_pid, m.claimed, unix_ms);
                    m.session.apply(&ev);
                    body
                };
                let body = match m.prep {
                    Prepared::Replay(rseq) => {
                        // The original precedes this slot in response
                        // order, so its response — if still in the bounded
                        // window — is recorded by now. Nothing is billed:
                        // the account reflects each logical op once.
                        let cached = m.session.inner.lock().replayed(rseq);
                        cached.unwrap_or_else(|| ResponseBody::Error(stale_seq_error(rseq)))
                    }
                    Prepared::Refused(err) => settle(failed(err)),
                    Prepared::Run => settle(match results.next().expect("one result per job") {
                        Ok((Ok(body), cycles, energy_fj)) => {
                            (BillingRecord::Ok { cycles, energy_fj }, body)
                        }
                        Ok((Err(err), _, _)) => failed(err),
                        Err(panic) => failed(panic.to_string().into()),
                    }),
                };
                let fault = if faults.is_active() {
                    faults.response_fault(m.conn.id, m.seq)
                } else {
                    None
                };
                add_response(chunks, m.conn, &Response { id: m.id, body }, fault);
            }
            deliver(chunks);
        } else {
            handle_control(item, mac, params, shared);
        }
    }
}

/// Hands one compute run's chunks to their outboxes in order, so each
/// connection gets its responses in arrival order, and applies the fault
/// plan's response-delivery faults at the chunk that starts with the
/// faulted response — after the connection's earlier chunk was pushed. A
/// `Drop` severs the connection instead of responding (the response is
/// lost, as it would be to a vanished client, and the closed outbox drops
/// the rest of the run's responses to it); a `Stall` makes the
/// connection's writer sleep before its next write (off the dispatcher).
/// Session accounting already happened — a dropped response's work stays
/// billed, exactly like real work a client disconnected from.
fn deliver(chunks: &mut Vec<Chunk>) {
    for chunk in chunks.drain(..) {
        let conn = chunk.conn.as_ref();
        match chunk.fault {
            Some(ResponseFault::Drop) => conn.outbox.force_close(conn),
            Some(ResponseFault::Stall(d)) => conn.outbox.inject_stall(d),
            None => {}
        }
        if chunk.lines > 0 {
            conn.outbox.push_lines(conn, chunk.buf, chunk.lines);
        }
    }
}

/// Whether a control response may be recorded against its request's seq.
/// Transient refusals — overload sheds and rate/inflight budget errors —
/// mean the op never ran, so the seq must stay unclaimed and a retry of
/// it re-admits fresh. Everything else (success or deterministic failure)
/// is the seq's definitive outcome.
fn control_consumes_seq(body: &ResponseBody) -> bool {
    match body {
        ResponseBody::Error(e) => {
            e.kind != ErrorKind::Overloaded
                && !matches!(
                    e.limit,
                    Some(LimitKind::CycleRate | LimitKind::EnergyRate | LimitKind::Inflight)
                )
        }
        _ => true,
    }
}

/// A request that failed with `err`: billed as an error carrying its
/// message, and answered with it.
fn failed(err: ErrorBody) -> (BillingRecord, ResponseBody) {
    (
        BillingRecord::Error {
            message: err.message.clone(),
        },
        ResponseBody::Error(err),
    )
}

/// A request refused before it was parsed or admitted (a malformed line,
/// a shed, the in-flight cap, shutdown): it ran no program, so its error
/// is billed without a message.
fn refused(err: ErrorBody) -> (BillingRecord, ResponseBody) {
    (
        BillingRecord::Error {
            message: String::new(),
        },
        ResponseBody::Error(err),
    )
}

/// A request that did host work only: billed zero hardware cycles.
fn zero_cycles(body: ResponseBody) -> (BillingRecord, ResponseBody) {
    (
        BillingRecord::Ok {
            cycles: 0,
            energy_fj: 0.0,
        },
        body,
    )
}

/// The `Exec` event that settles one request on `session` at `unix_ms`:
/// it bills the outcome's billing (to `ran_pid`'s run history too) and,
/// when `seq` is set, records the outcome's response for replay —
/// serialized once, with id 0, for the replay window and the journal
/// alike. Hands the response body back.
fn settle_event(
    session: &Session,
    (billing, body): (BillingRecord, ResponseBody),
    ran_pid: Option<u64>,
    seq: Option<u64>,
    unix_ms: u64,
) -> (Event, ResponseBody) {
    let response = Response { id: 0, body };
    let ev = Event::Exec {
        token: session.event_token(),
        billing,
        ran_pid,
        seq,
        response: seq.map(|_| response.to_json_line()),
        unix_ms,
    };
    (ev, response.body)
}

/// The control-op epilogue under a held journal and session lock:
/// applies the `Exec` event settling the request — recording its response
/// for replay when the request was seq-guarded and the outcome consumes
/// the seq — and hands back the response body.
fn settle_control(
    session: &Session,
    journal: Option<&mut Journal<'_>>,
    inner: &mut SessionInner,
    guarded: Option<u64>,
    outcome: (BillingRecord, ResponseBody),
) -> ResponseBody {
    let seq = guarded.filter(|_| control_consumes_seq(&outcome.1));
    let (ev, body) = settle_event(session, outcome, None, seq, unix_ms_now());
    inner.apply(journal, &ev);
    body
}

/// [`settle_control`] under the session's own journal and lock, then the
/// response.
fn finish_control(
    conn: &Arc<Conn>,
    session: &Session,
    id: u64,
    guarded: Option<u64>,
    outcome: (BillingRecord, ResponseBody),
) {
    let mut journal = session.journal();
    let body = settle_control(
        session,
        journal.as_mut(),
        &mut session.inner.lock(),
        guarded,
        outcome,
    );
    drop(journal);
    conn.respond(id, body);
}

fn handle_control(item: Item, mac: &mut ImcMacro, params: &EnergyParams, shared: &Arc<Shared>) {
    let Item {
        conn,
        id,
        req_seq,
        body,
        ..
    } = item;
    let session = conn.session();
    let body = match body {
        Ok(body) => body,
        Err(err) => {
            // A line that never parsed, or a request refused at admission
            // (shed, over the in-flight cap): answered here, in queue
            // order. Never seq-claimed — sheds and inflight refusals are
            // transient, and malformed lines have no usable seq.
            finish_control(&conn, &session, id, None, refused(err));
            return;
        }
    };
    // The idempotency gate. `open_session`/`resume_session` are exempt:
    // they address session *identity* rather than session state, are
    // natural-idempotent anyway, and a resume's seq could only be
    // meaningful on the session it is still trying to attach to.
    let guarded = match &body {
        RequestBody::OpenSession | RequestBody::ResumeSession { .. } => None,
        _ => req_seq.filter(|_| session.is_durable()),
    };
    if let Some(rseq) = guarded {
        let replay = {
            let inner = session.inner.lock();
            inner.is_replay(rseq).then(|| inner.replayed(rseq))
        };
        if let Some(cached) = replay {
            // A duplicate of an op that already ran: replay its recorded
            // response (control ops execute inline in queue order, so the
            // original has always settled by now), billing nothing.
            let body = cached.unwrap_or_else(|| ResponseBody::Error(stale_seq_error(rseq)));
            conn.respond(id, body);
            return;
        }
    }
    match body {
        RequestBody::Ping => {
            finish_control(
                &conn,
                &session,
                id,
                guarded,
                zero_cycles(ResponseBody::Pong),
            );
        }
        RequestBody::Stats => {
            // Reports the account *before* this request, then bills the
            // stats request itself as zero-cycle work.
            let stats = session.inner.lock().stats;
            let outcome = zero_cycles(ResponseBody::Stats(stats));
            finish_control(&conn, &session, id, guarded, outcome);
        }
        RequestBody::LoadModel {
            precision,
            prototypes,
        } => {
            let limits = shared.config.limits;
            if !limits.unmetered() {
                // `load_model` bills real macro work (the norm
                // precompute), so it is metered like any compute request.
                let rate = session.inner.lock().rate;
                if let Err(err) = limits.admit(rate, unix_ms_now()) {
                    finish_control(&conn, &session, id, guarded, failed(err));
                    return;
                }
            }
            match build_model(mac, params, precision, prototypes) {
                Ok((model, cycles, energy_fj)) => {
                    // The journal records the model's *source* (precision
                    // + prototypes); recovery rebuilds norms and the fused
                    // template from it.
                    session.apply(&Event::Model {
                        token: session.event_token(),
                        precision_bits: model.precision.bits() as u32,
                        prototypes: model.prototypes_q.clone(),
                    });
                    session.inner.lock().model = Some(Arc::new(model));
                    let outcome = (BillingRecord::Ok { cycles, energy_fj }, ResponseBody::Ok);
                    finish_control(&conn, &session, id, guarded, outcome);
                }
                Err(msg) => finish_control(&conn, &session, id, guarded, failed(msg.into())),
            }
        }
        RequestBody::StoreProgram { instrs, name } => {
            let limits = shared.config.limits;
            if let Err(err) = limits.check_program_len(instrs.len()) {
                finish_control(&conn, &session, id, guarded, failed(err));
                return;
            }
            let config = *mac.config();
            let prog = Program::new(instrs);
            // Lint only a valid stream: on a validation error the
            // structured `invalid_program` response carries the same
            // code/index detail instead.
            if let Err(e) = prog.validate(&config) {
                finish_control(&conn, &session, id, guarded, failed(ErrorBody::from(&e)));
                return;
            }
            let diagnostics = prog.lint(&config);
            let compiled = match prog.compile(&config) {
                Ok(compiled) => compiled,
                Err(e) => {
                    finish_control(&conn, &session, id, guarded, failed(ErrorBody::from(&e)));
                    return;
                }
            };
            // Lock order: the journal, then the registry's global program
            // quota (durable sessions only), then the session — the whole
            // store is one journal unit.
            let mut journal = session.journal();
            let mut quota = session.is_durable().then(|| shared.sessions.quota());
            let mut inner = session.inner.lock();
            let outcome = if inner.programs.len() >= limits.max_stored_programs {
                failed(ErrorBody::limit(
                    LimitKind::StoredPrograms,
                    None,
                    format!(
                        "stored-program limit reached ({} per session)",
                        limits.max_stored_programs
                    ),
                ))
            } else if quota
                .as_ref()
                .is_some_and(|q| q.total_stored >= shared.sessions.caps.max_programs)
            {
                failed(ErrorBody::limit(
                    LimitKind::RegistryPrograms,
                    None,
                    format!(
                        "registry-wide stored-program cap reached ({} across all sessions)",
                        shared.sessions.caps.max_programs
                    ),
                ))
            } else if let Some(taken) = name.as_ref().filter(|n| inner.has_name(n)) {
                failed(ErrorBody::generic(format!(
                    "a stored program named '{taken}' already exists in this session; \
                     delete it first or pick another name"
                )))
            } else {
                let meta = StoredMeta {
                    pid: inner.next_pid,
                    cycles: compiled.cycles(),
                    writes: compiled.write_count() as u64,
                    diagnostics,
                };
                // The journal persists the submitted stream, and recovery
                // recompiles it (an ephemeral session's programs can
                // become durable later via `open_session`).
                let ev = Event::Store {
                    token: session.event_token(),
                    pid: meta.pid,
                    name,
                    instrs: prog.instrs().to_vec(),
                };
                inner.apply(journal.as_mut(), &ev);
                inner.cache_program(meta.pid, Arc::new(compiled));
                if let Some(q) = quota.as_mut() {
                    q.total_stored += 1;
                }
                // Validation, lint and lowering are host work, not macro
                // work: a store bills zero hardware cycles.
                zero_cycles(ResponseBody::Stored(meta))
            };
            let body = settle_control(&session, journal.as_mut(), &mut inner, guarded, outcome);
            drop((inner, quota, journal));
            conn.respond(id, body);
        }
        RequestBody::ListPrograms => {
            // Pure registry read: zero hardware cycles.
            let body = ResponseBody::Programs(session.inner.lock().program_entries());
            finish_control(&conn, &session, id, guarded, zero_cycles(body));
        }
        RequestBody::DeleteProgram { target } => {
            // Lock order: journal, then the registry's quota, then the
            // session — the delete and its billing are one journal unit.
            let mut journal = session.journal();
            let mut quota = session.is_durable().then(|| shared.sessions.quota());
            let mut inner = session.inner.lock();
            let outcome = match inner.pid_of(&target) {
                Some(pid) => {
                    let ev = Event::Delete {
                        token: session.event_token(),
                        pid,
                    };
                    inner.apply(journal.as_mut(), &ev);
                    if let Some(q) = quota.as_mut() {
                        q.total_stored = q.total_stored.saturating_sub(1);
                    }
                    zero_cycles(ResponseBody::Ok)
                }
                None => failed(ErrorBody::generic(format!("no {target} in this session"))),
            };
            let body = settle_control(&session, journal.as_mut(), &mut inner, guarded, outcome);
            drop((inner, quota, journal));
            conn.respond(id, body);
        }
        RequestBody::OpenSession => {
            // Idempotent by construction: a connection already holding a
            // durable session gets that session's info back rather than a
            // second token. Session-management ops are never billed to
            // the account — it must reflect executed ops exactly,
            // however many opens/resumes the transport needed.
            if session.is_durable() {
                conn.respond(id, ResponseBody::Session(session.info()));
                return;
            }
            match shared.sessions.open(&session, Instant::now()) {
                Ok(durable) => {
                    *conn.session.lock() = durable.clone();
                    // If the reader exited while we swapped (it removes
                    // the conn from `conns` *before* detaching the slot's
                    // session), its detach may have hit the old ephemeral
                    // session — re-check liveness and detach the durable
                    // one ourselves so it cannot stay attached forever.
                    if !shared.conns.lock().contains_key(&conn.id) {
                        durable.detach(Instant::now());
                    }
                    conn.respond(id, ResponseBody::Session(durable.info()));
                }
                Err(err) => conn.respond(id, ResponseBody::Error(err)),
            }
        }
        RequestBody::ResumeSession { token } => {
            match shared.sessions.resume(&token, Instant::now()) {
                Ok(resumed) => {
                    let old = {
                        let mut slot = conn.session.lock();
                        std::mem::replace(&mut *slot, resumed.clone())
                    };
                    // The session this connection held until now goes back
                    // to detached (ephemeral ones just drop).
                    old.detach(Instant::now());
                    // Same reader-exit race as in `open_session`.
                    if !shared.conns.lock().contains_key(&conn.id) {
                        resumed.detach(Instant::now());
                    }
                    conn.respond(id, ResponseBody::Session(resumed.info()));
                }
                Err(err) => conn.respond(id, ResponseBody::Error(err)),
            }
        }
        RequestBody::LintProgram { instrs } => {
            let limits = shared.config.limits;
            if let Err(err) = limits.check_program_len(instrs.len()) {
                finish_control(&conn, &session, id, guarded, failed(err));
                return;
            }
            let config = *mac.config();
            let diagnostics = Program::new(instrs).lint(&config);
            // Static analysis is pure host work: zero hardware cycles.
            let outcome = zero_cycles(ResponseBody::Diagnostics(diagnostics));
            finish_control(&conn, &session, id, guarded, outcome);
        }
        RequestBody::Shutdown => {
            finish_control(&conn, &session, id, guarded, zero_cycles(ResponseBody::Ok));
            shared.begin_shutdown();
        }
        other => {
            // Compute bodies never reach here (see `process_batch`).
            let err = format!("unexpected control request: {other:?}").into();
            finish_control(&conn, &session, id, guarded, failed(err));
        }
    }
}

/// Validates and builds a session model, computing the prototype norms on
/// `mac` so the `load_model` request is billed the exact norm-precompute
/// work (the per-batch half of the classifier's amortized accounting). The fused all-prototypes classify program is compiled
/// **here, once per model** — every `classify` request then runs the
/// pre-resolved op array with just the sample's chunks rebound, skipping
/// per-call program building, validation and lowering entirely.
pub(crate) fn build_model(
    mac: &mut ImcMacro,
    params: &EnergyParams,
    precision: bpimc_core::Precision,
    prototypes_q: Vec<Vec<u64>>,
) -> Result<(Model, u64, f64), String> {
    if prototypes_q.is_empty() {
        return Err("'prototypes' must not be empty".to_string());
    }
    let dim = prototypes_q[0].len();
    if dim == 0 {
        return Err("prototypes must not be empty vectors".to_string());
    }
    crate::exec::check_product_lanes(precision, mac.cols())?;
    for (c, p) in prototypes_q.iter().enumerate() {
        if p.len() != dim {
            return Err(format!(
                "prototype {c} has {} features but prototype 0 has {dim}",
                p.len()
            ));
        }
        if let Some(&w) = p.iter().find(|&&w| w > precision.max_value()) {
            return Err(format!(
                "prototype {c} value {w} does not fit {} bits",
                precision.bits()
            ));
        }
    }
    let config = *mac.config();
    let cols = mac.cols();
    mac.clear_activity();
    let norms = prototype_norms(mac, precision, &prototypes_q);
    let cycles = mac.activity().total_cycles();
    let energy_fj = params.log_energy_fj(mac.activity());
    mac.clear_activity();
    // Compile the classify template against an all-zero sample; the x
    // writes are rebound per request (`CompiledProgram::run_with_inputs`).
    let template = classify_program(precision, &prototypes_q, &vec![0u64; dim], cols)
        .compile(&config)
        .map_err(|e| format!("classify template failed to compile: {e}"))?;
    Ok((
        Model {
            precision,
            prototypes_q,
            norms,
            template,
        },
        cycles,
        energy_fj,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Records every `write_all` call. With a gate, each write first takes
    /// one permit from it (all writes pass once the sender is dropped), so
    /// a test can hold a drain inside its write.
    #[derive(Default)]
    struct Recorder {
        writes: std::sync::Mutex<Vec<String>>,
        gate: Option<std::sync::Mutex<mpsc::Receiver<()>>>,
    }

    impl ResponseSink for Recorder {
        fn write_all(&self, buf: &[u8]) -> bool {
            if let Some(gate) = &self.gate {
                let _ = gate.lock().unwrap().recv();
            }
            let buf = String::from_utf8(buf.to_vec()).unwrap();
            self.writes.lock().unwrap().push(buf);
            true
        }

        fn sever(&self) {
            panic!("a healthy peer is never severed");
        }
    }

    /// Lines `"{i}\n"` for each `i` in `range`, as one chunk.
    fn chunk(range: std::ops::Range<usize>) -> String {
        range.map(|i| format!("{i}\n")).collect()
    }

    /// Polls `cond` on the outbox state until it holds.
    fn wait_until(outbox: &Outbox, cond: impl Fn(&OutboxState) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond(&outbox.state.lock()) {
            assert!(Instant::now() < deadline, "the outbox never got there");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A connection over a loopback socket that nothing writes to.
    fn conn(id: u64) -> Arc<Conn> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Arc::new(Conn {
            id,
            stream,
            outbox: Outbox::new(OUTBOX_CAPACITY),
            session: Mutex::named("server.conn.session-slot", Session::ephemeral()),
        })
    }

    #[test]
    fn a_run_splits_chunks_only_when_full_or_at_a_delivery_fault() {
        let (a, b) = (conn(1), conn(2));
        let pong = |id| Response {
            id,
            body: ResponseBody::Pong,
        };
        let line = |id| pong(id).to_json_line() + "\n";
        let lines = |ids: &[u64]| ids.iter().map(|&id| line(id)).collect::<String>();
        let mut chunks = Vec::new();
        add_response(&mut chunks, b.clone(), &pong(0), None);
        for id in 1..=600 {
            add_response(&mut chunks, a.clone(), &pong(id), None);
        }
        add_response(&mut chunks, b.clone(), &pong(601), None);
        let shape: Vec<_> = chunks.iter().map(|c| (c.conn.id, c.lines)).collect();
        assert_eq!(shape, [(2, 2), (1, 256), (1, 256), (1, 88)]);
        assert_eq!(chunks[0].buf, lines(&[0, 601]));
        let a_bytes: String = chunks[1..].iter().map(|c| c.buf.as_str()).collect();
        assert_eq!(a_bytes, lines(&(1..=600).collect::<Vec<_>>()));

        let stall = Some(ResponseFault::Stall(Duration::from_millis(5)));
        let dropped = Some(ResponseFault::Drop);
        let mut chunks = Vec::new();
        add_response(&mut chunks, a.clone(), &pong(0), None);
        add_response(&mut chunks, b.clone(), &pong(1), None);
        add_response(&mut chunks, a.clone(), &pong(2), stall);
        add_response(&mut chunks, a.clone(), &pong(3), None);
        add_response(&mut chunks, a.clone(), &pong(4), dropped);
        add_response(&mut chunks, a.clone(), &pong(5), None);
        add_response(&mut chunks, b.clone(), &pong(6), None);
        let shape: Vec<_> = chunks.iter().map(|c| (c.conn.id, c.fault)).collect();
        assert_eq!(shape, [(1, None), (2, None), (1, stall), (1, dropped)]);
        let bufs: Vec<_> = chunks.iter().map(|c| c.buf.clone()).collect();
        let want = [lines(&[0]), lines(&[1, 6]), lines(&[2, 3]), lines(&[5])];
        assert_eq!(bufs, want, "a dropped response is never serialized");
    }

    #[test]
    fn an_idle_outbox_writes_a_chunk_with_one_write() {
        let outbox = Outbox::new(4);
        let sink = Recorder::default();
        for _ in 0..3 {
            outbox.expect_response();
        }
        outbox.push_lines(&sink, chunk(0..3), 3);
        assert_eq!(*sink.writes.lock().unwrap(), [chunk(0..3)]);
        let state = outbox.state.lock();
        assert_eq!((state.inflight, state.lines), (0, 0), "all three balanced");
    }

    #[test]
    fn a_producer_blocks_while_pending_and_chunk_lines_exceed_capacity() {
        let (permits, gate) = mpsc::channel::<()>();
        let sink = Arc::new(Recorder {
            gate: Some(std::sync::Mutex::new(gate)),
            ..Recorder::default()
        });
        let outbox = Arc::new(Outbox::new(4));
        for _ in 0..6 {
            outbox.expect_response();
        }
        // The held write stalls long enough to mark the peer slow, after
        // which pushes leave their chunk to the writer thread.
        let writer = {
            let (outbox, sink) = (outbox.clone(), sink.clone());
            std::thread::spawn(move || {
                while let Some(state) = outbox.claim_backlog() {
                    outbox.drain(sink.as_ref(), state);
                }
            })
        };
        let push = |lines: std::ops::Range<usize>| {
            let (outbox, sink) = (outbox.clone(), sink.clone());
            std::thread::spawn(move || {
                let n = lines.len();
                outbox.push_lines(sink.as_ref(), chunk(lines), n);
            })
        };
        // The first push finds the outbox idle and drains inline; the gate
        // holds it inside its write.
        let first = push(0..1);
        wait_until(&outbox, |s| s.draining && s.lines == 0);
        // 2 and then 2 + 2 pending lines fit the capacity of 4: queued for
        // the active drain, no wait.
        outbox.push_lines(sink.as_ref(), chunk(1..3), 2);
        outbox.push_lines(sink.as_ref(), chunk(3..5), 2);
        // 4 + 1 does not: this producer parks until the drain takes them.
        // Only a drain makes room, and the one in flight is held.
        let blocked = push(5..6);
        wait_until(&outbox, |s| s.blocked);
        assert!(!blocked.is_finished(), "the producer waits for room");
        assert_eq!(outbox.state.lock().lines, 4);
        drop(permits);
        first.join().unwrap();
        blocked.join().unwrap();
        outbox.no_more_requests();
        writer.join().unwrap();
        assert_eq!(
            *sink.writes.lock().unwrap(),
            [chunk(0..1), chunk(1..5), chunk(5..6)],
            "every line once, in push order, queued chunks coalesced"
        );
        let state = outbox.state.lock();
        assert_eq!((state.inflight, state.lines), (0, 0));
        assert!(!state.draining && !state.blocked);
    }
}
