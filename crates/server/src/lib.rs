//! A multi-client compute service over one shared [`ImcMacro`].
//!
//! The paper (like IMAC and X-SRAM) frames an SRAM-IMC macro as a shared
//! accelerator that many workloads time-multiplex. This crate is that
//! serving layer for the reproduction: a dependency-free threaded TCP
//! service (`std::net`, line-delimited JSON — the build image is offline,
//! so no tokio) that accepts concurrent client connections and multiplexes
//! their requests onto one [`ImcMacro`], which one thread at a time runs:
//! the dispatcher, or a connection reader running its own request.
//!
//! [`ImcMacro`]: bpimc_core::ImcMacro
//!
//! # Architecture
//!
//! * **One reader thread per connection** parses request lines and pushes
//!   them into the request queue, which keeps one **bounded FIFO per
//!   session** drained **round-robin** — fair scheduling: a client
//!   pipelining thousands of requests cannot starve other sessions, and a
//!   session at its queue share blocks only its own reader (backpressure
//!   propagates to that client through TCP flow control rather than
//!   through dropped or rejected requests).
//! * **One dispatcher thread** drains the queue. Each *compute* request
//!   (dot products, lane-wise macro ops at P2–P32, classification, whole
//!   `exec_program` pipelines, `run_stored` replays) is served in one pass
//!   on the server's macro, on the running thread itself — admitted
//!   against its session's guardrails, run, and settled to its account —
//!   before the next one is admitted; a worker thread woken or spawned
//!   per run costs more CPU than the run's work. Control requests (`ping`, `stats`,
//!   `load_model`, `store_program`, `shutdown`) execute between runs of
//!   compute requests, so every session observes its own requests in
//!   order.
//! * **A synchronous request skips the dispatcher** (leader/followers):
//!   requests execute only under the queue's run token, which the
//!   dispatcher holds while it runs a batch. A request whose connection
//!   owes no other response, with no further bytes buffered behind it,
//!   that would land in an empty queue with no batch running, takes the
//!   token instead, and its reader runs it — same guardrails, settling,
//!   journal and inline write — and answers it without waking the
//!   dispatcher. The reader then gives the token back, waking the
//!   dispatcher only if work was queued meanwhile. A window-1 client's
//!   request thus wakes two threads instead of three; every other request,
//!   pipelined bursts included, is queued.
//! * **Parallel response writers**: responses leave through a bounded
//!   per-connection outbox, each compute run's responses to a connection
//!   as one chunk — written inline while the client keeps up,
//!   handed to the connection's writer thread once a backlog builds, so
//!   fan-out to slow clients never serializes through the dispatcher. A
//!   peer that stops reading is timed out and dropped instead of wedging
//!   anything.
//! * **One execution path**: every arithmetic request is lowered to a
//!   typed [`Program`](bpimc_core::prog::Program) and run by the single
//!   program executor, so wire ops, client pipelines and library callers
//!   share validation, lowering (fused add+shift) and accounting.
//! * **Sessions** hold a loaded classifier model (with its
//!   classify pipeline pre-compiled once into a
//!   [`CompiledProgram`](bpimc_core::CompiledProgram) template), a
//!   *named* stored-program registry (`store_program` validates and
//!   compiles once, optionally under a name; `run_stored` replays by pid
//!   or name with rebound write values and zero per-call validation or
//!   lowering; `list_programs` reports each entry's cumulative run
//!   history; `delete_program` frees a slot), and a
//!   [`SessionActivity`](bpimc_core::SessionActivity) account: every
//!   successful request is billed the exact hardware cycles and femtojoules
//!   its job consumed, measured from the executing macro's activity log.
//! * **Durable sessions**: `open_session` upgrades the connection's
//!   session to a registry-owned object keyed by an unguessable token;
//!   after a connection drop, `resume_session` on a new connection
//!   restores the model, program registry, account and in-window rate
//!   budgets intact. Detached sessions linger under
//!   [`ServerConfig::session_ttl`] and are then garbage-collected by a
//!   sweeper thread (a late resume answers `session_expired`; a forged
//!   token answers `bad_token`), with global caps on sessions and
//!   registry-wide stored programs so orphans cannot exhaust memory. At
//!   most one live connection holds a token at a time. Requests may carry
//!   a per-session `seq` number: a retry of an executed seq replays the
//!   recorded response instead of executing again, so reconnect-and-retry
//!   can never double-execute or double-bill.
//! * **Crash-safe durable state** ([`StateConfig`]): with `state` set,
//!   every state-mutating event (session opens/resumes/detaches, model
//!   loads, program stores/deletes, executed seqs with their responses,
//!   account deltas) appends to a CRC-framed write-ahead journal, fsynced
//!   per [`FsyncPolicy`]; the sweeper thread takes periodic compacting
//!   snapshots (atomic tmp+rename). On boot the server recovers the
//!   newest valid snapshot plus the journal tail — stopping cleanly at
//!   the first torn or corrupt record — and resumes with byte-identical
//!   accounts, recompiled stored programs, restarted TTL clocks, and the
//!   seq replay window intact, so a `kill -9` can never double-bill a
//!   retried request. [`inspect`] (the `repro state` subcommand) audits a
//!   state directory offline. With `state` unset every journal hook is
//!   one `Option` branch: the hot path is unchanged.
//! * **Per-session guardrails** ([`SessionLimits`]): optional per-second
//!   cycle and energy budgets — metered against the same exact accounting
//!   the session is billed, which the paper's fixed cost model makes
//!   precise rather than heuristic — plus an in-flight request cap, a
//!   program-length cap, and the stored-program cap. A request over a
//!   limit answers a structured `limit_exceeded` error naming the limit,
//!   with a retry-after hint, before any array state changes. Each
//!   admission sees the spend of every request settled before it, so a
//!   pipelined burst overshoots a budget by at most one request, as a
//!   synchronous client does.
//! * **Deadlines**: any request may carry `timeout_ms`; a request whose
//!   deadline expired while it waited (queued, or behind earlier requests
//!   of its run) is refused at admission with a structured
//!   `deadline_exceeded` error instead of consuming macro time.
//! * **Admission control**: when the total queued backlog crosses a
//!   high watermark the server sheds new compute requests with a
//!   structured `overloaded` error (hysteresis: shedding turns off at a
//!   low watermark), instead of only backpressuring readers; control ops
//!   (`ping`, `stats`) are always admitted so health checks survive
//!   overload.
//! * **Chaos harness** ([`FaultPlan`]): a seeded, deterministic schedule
//!   of injected job panics, delayed executions, stalled response
//!   writers and mid-request connection drops — a pure function of
//!   `(seed, connection, request)`, so tests can predict every fault and
//!   assert exact accounting under fire. It is the server's one fault
//!   mechanism.
//! * **Panic containment**: a request that panics its job (a bug, or an
//!   injected chaos panic) gets an error response; sibling requests in the
//!   same run, other sessions, and the dispatcher are unaffected.
//! * **Client resilience**: [`Client`] surfaces `overloaded` /
//!   `limit_exceeded` / `deadline_exceeded` as typed errors, and can be
//!   given a [`RetryPolicy`] to reconnect with capped exponential backoff.
//!   With a durable session open, the client stamps every request with a
//!   seq number, auto-resumes its session inside the reconnect path, and
//!   safely retries *all* seq-guarded ops across transport errors — not
//!   just idempotent read-only ones.
//! * **Client writes**: [`Client::send`] queues a request instead of
//!   writing it. The queue reaches the socket in one `write` when
//!   [`Client::recv`] or [`Client::call`] must wait for a response, when
//!   it outgrows its `BufWriter`'s buffer, or when the client is dropped,
//!   so a pipelining client writes every request it refilled during a run
//!   of buffered responses at once. [`Client::reconnect`] discards it.
//! * **Graceful shutdown** (client `shutdown` op or
//!   [`ServerHandle::shutdown`]): the listener stops accepting, queued
//!   requests drain and get responses, then connections close and all
//!   threads join.
//!
//! # Examples
//!
//! ```
//! use bpimc_server::{Client, Server, ServerConfig};
//! use bpimc_core::Precision;
//!
//! let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let dot = client
//!     .dot(Precision::P8, &[1, 2, 3], &[4, 5, 6])
//!     .unwrap();
//! assert_eq!(dot, 1 * 4 + 2 * 5 + 3 * 6);
//! let stats = client.stats().unwrap();
//! assert_eq!(stats.requests, 1);
//! assert!(stats.cycles > 0);
//! drop(client);
//! handle.shutdown();
//! ```

mod client;
mod exec;
mod fault;
mod guard;
#[cfg(feature = "model")]
pub mod models;
mod persist;
mod server;
mod session;

pub use client::{Client, ClientError, RetryPolicy};
pub use fault::{ComputeFault, FaultPlan, ResponseFault};
pub use guard::SessionLimits;
pub use persist::{
    inspect, Corruption, FileReport, FsyncPolicy, SessionSummary, StateConfig, StateReport,
};
pub use server::{Server, ServerConfig, ServerHandle};
