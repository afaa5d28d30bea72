//! Concurrency models for the serving stack (`model` feature).
//!
//! Each [`ModelSpec`] drives the **production** `Queue` / `Outbox`
//! protocol objects — the same waits, wakeups, shed hysteresis and
//! drainer-role hand-offs the server runs — inside a deterministic model
//! execution, with an in-memory `ResponseSink` standing in for the TCP
//! peer. Harness bookkeeping (counters, transcripts) deliberately uses
//! `std` primitives so it observes the schedule without perturbing it.
//!
//! Run via `cargo test --features model` (the root `concurrency_models`
//! test) or `repro model-check`; replay any failure with the printed seed.

use crate::guard::{charge, SessionLimits};
use crate::persist::{BillingRecord, Event};
use crate::server::{Outbox, Queue, ResponseSink};
use crate::session::{RegistryCaps, Session, SessionRegistry};
use bpimc_core::{ErrorKind, Response, ResponseBody};
use bpimc_stats::sync::model::ModelSpec;
use bpimc_stats::sync::thread;
use bpimc_stats::sync::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// In-memory peer: records every drained buffer, never blocks. The model
/// analogue of a healthy client socket.
#[derive(Default)]
struct MemPeer {
    written: std::sync::Mutex<String>,
    severed: AtomicBool,
}

impl ResponseSink for MemPeer {
    fn write_all(&self, buf: &[u8]) -> bool {
        let mut written = self.written.lock().expect("harness lock");
        written.push_str(std::str::from_utf8(buf).expect("responses are UTF-8"));
        true
    }

    fn sever(&self) {
        self.severed.store(true, Ordering::SeqCst);
    }
}

/// Per-session FIFO order survives the round-robin drain and shed
/// refusals: with two sessions pushing concurrently into one-slot shares
/// (so producers hit the `not_full` wait) and shed admission racing the
/// drain, each session's items still pop in submission order.
fn queue_session_fifo_survives_round_robin() {
    const PER_CONN: u64 = 3;
    const CONNS: u64 = 2;
    let queue = Arc::new(Queue::new(1, 3, 1));
    let producers: Vec<_> = (1..=CONNS)
        .map(|conn| {
            let queue = queue.clone();
            thread::spawn(move || {
                for seq in 0..PER_CONN {
                    // A shed refusal still rides the queue (as an error
                    // item in production), keeping its FIFO slot.
                    let refused = queue.should_shed();
                    queue
                        .push(conn, (conn, seq, refused))
                        .expect("queue open while producing");
                }
            })
        })
        .collect();
    let mut seen: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut total = 0usize;
    while total < (CONNS * PER_CONN) as usize {
        let batch = queue.pop_batch(2).expect("queue open while draining");
        for (conn, seq, _refused) in batch {
            seen.entry(conn).or_default().push(seq);
            total += 1;
        }
    }
    for p in producers {
        p.join().expect("producer exits");
    }
    queue.close();
    assert!(
        queue.pop_batch(4).is_none(),
        "a closed, drained queue reports None"
    );
    for (conn, seqs) in seen {
        assert_eq!(
            seqs,
            (0..PER_CONN).collect::<Vec<_>>(),
            "session {conn} must observe its own requests in order"
        );
    }
}

/// Drain-then-stop shutdown terminates from every explored schedule, and
/// every successfully enqueued item is drained before the consumer sees
/// `None` — queued work always gets responses before shutdown completes.
fn queue_drain_then_stop_shutdown() {
    const PER_CONN: u64 = 3;
    let queue = Arc::new(Queue::<u64>::new(2, 100, 50));
    let pushed_ok = Arc::new(AtomicUsize::new(0));
    let producers: Vec<_> = (1..=2u64)
        .map(|conn| {
            let queue = queue.clone();
            let pushed_ok = pushed_ok.clone();
            thread::spawn(move || {
                for seq in 0..PER_CONN {
                    if queue.push(conn, seq).is_err() {
                        break; // shutdown refused the rest of the stream
                    }
                    pushed_ok.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    let closer = {
        let queue = queue.clone();
        thread::spawn(move || queue.close())
    };
    let mut drained = 0usize;
    while let Some(batch) = queue.pop_batch(2) {
        drained += batch.len();
    }
    for p in producers {
        p.join().expect("producer exits");
    }
    closer.join().expect("closer exits");
    assert_eq!(
        drained,
        pushed_ok.load(Ordering::SeqCst),
        "every accepted item must drain before shutdown completes"
    );
}

/// The reader-leads hand-off keeps the queue's promises. Three producers
/// (connection readers) submit items under the lead rule: an item whose
/// connection owes nothing else and has nothing buffered behind it takes
/// the run token when the queue is open and idle ([`Queue::lead`]) and
/// runs on its producer's thread; any other item is pushed. Each producer
/// is a client that sends an item once its previous ones have run, except
/// that producer 1 sends its first two as one burst, so its reader finds
/// the second buffered behind the first. Producer 1's last item is the
/// closer, a `shutdown` whose run closes the queue midway, as
/// `handle_control` does, so the close can land while a reader holds the
/// token. Producers 2 and 3 send one item each, which leads or queues
/// beside producer 1's stream. The dispatcher drains with `pop_batch`. In
/// every schedule:
/// * at most one thread runs at a time (the token is exclusive);
/// * each connection's items run in submission order, led and queued alike;
/// * every accepted item runs exactly once, before `pop_batch` returns `None`;
/// * no queued item waits on a wake-up that never comes: a producer that
///   waits for its items to run is woken by their runs, or the schedule
///   deadlocks.
fn queue_reader_leads() {
    /// Items each producer sends.
    const ITEMS: [u64; 3] = [4, 1, 1];
    /// Per connection: items accepted but not yet run (what its reader's
    /// `expect_response` counts), and items run.
    #[derive(Default)]
    struct Progress {
        owed: [u64; 3],
        ran: [u64; 3],
    }
    struct Harness {
        queue: Queue<(usize, u64)>,
        /// A run is in progress (the exclusivity check).
        busy: AtomicBool,
        /// `(conn, seq)` of every run, in run order.
        runs: std::sync::Mutex<Vec<(usize, u64)>>,
        progress: Mutex<Progress>,
        /// Notified after every run.
        ran: Condvar,
    }
    impl Harness {
        fn run(&self, (conn, seq): (usize, u64)) {
            assert!(
                !self.busy.swap(true, Ordering::SeqCst),
                "two threads run at once: the run token is not exclusive"
            );
            // A run spans several schedule points, so other threads can
            // act (lead, push, pop) while it is in progress.
            for step in 0..6 {
                if step == 3 && (conn, seq) == (0, ITEMS[0] - 1) {
                    self.queue.close();
                }
                thread::yield_now();
            }
            self.runs.lock().expect("harness lock").push((conn, seq));
            self.busy.store(false, Ordering::SeqCst);
            let mut progress = self.progress.lock();
            progress.owed[conn] -= 1;
            progress.ran[conn] += 1;
            drop(progress);
            self.ran.notify_all();
        }
    }
    let h = Arc::new(Harness {
        queue: Queue::new(4, 100, 50),
        busy: AtomicBool::new(false),
        runs: std::sync::Mutex::new(Vec::new()),
        progress: Mutex::named("model.leads.progress", Progress::default()),
        ran: Condvar::new(),
    });
    let producers: Vec<_> = (0..3usize)
        .map(|conn| {
            let h = h.clone();
            thread::spawn(move || {
                for seq in 0..ITEMS[conn] {
                    let burst_head = conn == 0 && seq == 0;
                    let in_burst = conn == 0 && seq == 1;
                    let mut progress = h.progress.lock();
                    while !in_burst && progress.owed[conn] > 0 {
                        progress = h.ran.wait(progress);
                    }
                    let owes_nothing_else = progress.owed[conn] == 0;
                    progress.owed[conn] += 1;
                    drop(progress);
                    let lead = (owes_nothing_else && !burst_head)
                        .then(|| h.queue.lead())
                        .flatten();
                    if let Some(_token) = lead {
                        h.run((conn, seq));
                    } else if h.queue.push(conn as u64, (conn, seq)).is_err() {
                        h.progress.lock().owed[conn] -= 1;
                        break; // shutdown refused the rest of the stream
                    }
                }
            })
        })
        .collect();
    let _token = h.queue.dispatcher_guard();
    while let Some(batch) = h.queue.pop_batch(2) {
        for item in batch {
            h.run(item);
        }
    }
    assert!(
        !h.busy.load(Ordering::SeqCst),
        "pop_batch returned None while a reader was running"
    );
    let at_none = h.runs.lock().expect("harness lock").clone();
    for p in producers {
        p.join().expect("producer exits");
    }
    let runs = h.runs.lock().expect("harness lock").clone();
    assert_eq!(runs, at_none, "nothing runs after pop_batch returns None");
    let progress = h.progress.lock();
    for conn in 0..3 {
        let seqs: Vec<u64> = runs.iter().filter(|r| r.0 == conn).map(|r| r.1).collect();
        assert_eq!(
            seqs,
            (0..progress.ran[conn]).collect::<Vec<_>>(),
            "connection {conn}: every accepted item runs once, in submission order"
        );
        assert_eq!(
            progress.owed[conn], 0,
            "connection {conn}: an accepted item never ran"
        );
    }
    assert_eq!(progress.ran[0], ITEMS[0], "producer 1 runs its shutdown");
}

/// Pushes `sizes` chunks of lines `"{tag}{i}\n"` (numbered across the
/// chunks), each after registering its responses, as the dispatcher does.
fn push_chunks(outbox: &Outbox, peer: &MemPeer, tag: char, sizes: &[usize]) {
    let mut next = 0;
    for &n in sizes {
        let chunk: String = (next..next + n).map(|i| format!("{tag}{i}\n")).collect();
        next += n;
        for _ in 0..n {
            outbox.expect_response();
        }
        outbox.push_lines(peer, chunk, n);
    }
}

/// The outbox never drops or reorders a response. The producer pushes a
/// mix of one- and two-line chunks, more lines than the capacity of 2. A
/// second producer (a reader answering during shutdown) pushes too, so
/// one of them can find the other draining and hand off to the writer
/// thread, and a chunk can arrive while its lines would overflow what is
/// pending — the `not_full` wait, which a lone producer on a healthy peer
/// never reaches (it always drains inline). Every line still arrives
/// exactly once, each producer's in push order.
fn outbox_never_drops_or_reorders() {
    const PRODUCER: [usize; 4] = [1, 2, 1, 2];
    const READER: [usize; 2] = [2, 1];
    let outbox = Arc::new(Outbox::new(2));
    let peer = Arc::new(MemPeer::default());
    let writer = {
        let outbox = outbox.clone();
        let peer = peer.clone();
        thread::spawn(move || {
            while let Some(state) = outbox.claim_backlog() {
                outbox.drain(peer.as_ref(), state);
            }
        })
    };
    let reader = {
        let outbox = outbox.clone();
        let peer = peer.clone();
        thread::spawn(move || push_chunks(&outbox, &peer, 'r', &READER))
    };
    push_chunks(&outbox, &peer, 'p', &PRODUCER);
    reader.join().expect("reader exits");
    outbox.no_more_requests();
    writer
        .join()
        .expect("writer exits once the backlog is settled");
    let written = peer.written.lock().expect("harness lock").clone();
    for (tag, sizes) in [('p', &PRODUCER[..]), ('r', &READER[..])] {
        let got: Vec<&str> = written.lines().filter(|l| l.starts_with(tag)).collect();
        let want: Vec<String> = (0..sizes.iter().sum())
            .map(|i| format!("{tag}{i}"))
            .collect();
        assert_eq!(
            got, want,
            "responses must arrive complete and in production order"
        );
    }
    assert_eq!(
        written.lines().count(),
        PRODUCER.iter().chain(&READER).sum::<usize>(),
        "nothing beyond the pushed lines"
    );
    assert!(
        !peer.severed.load(Ordering::SeqCst),
        "a healthy peer is never severed"
    );
}

/// Budget metering never double-bills (or loses a charge) under
/// contention: two sessions' worth of racing requests against one shared
/// window admit exactly budget/cost requests — fewer means a charge was
/// applied twice, more means one was lost.
fn rate_window_never_double_bills() {
    const COST: u64 = 10;
    const BUDGET: u64 = 40;
    let limits = SessionLimits {
        max_cycles_per_sec: Some(BUDGET),
        ..SessionLimits::default()
    };
    let window = Arc::new(Mutex::named("server.session.inner", None));
    let t0 = 1_000;
    let admitted = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let window = window.clone();
            let admitted = admitted.clone();
            thread::spawn(move || {
                for _ in 0..3 {
                    let mut win = window.lock();
                    if limits.admit(*win, t0).is_ok() {
                        charge(&mut win, t0, COST, 0.0);
                        admitted.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker exits");
    }
    assert_eq!(
        admitted.load(Ordering::SeqCst) as u64,
        BUDGET / COST,
        "exactly budget/cost requests admit in one window"
    );
    assert!(
        limits.admit(*window.lock(), t0).is_err(),
        "the exhausted budget stays visible"
    );
}

/// Registry sizing for the session models: room to spare, so only the
/// modelled race — never an incidental cap — decides the outcome.
fn model_caps(ttl: Duration) -> RegistryCaps {
    RegistryCaps {
        ttl,
        max_sessions: 4,
        max_programs: 16,
    }
}

/// A dying reader's detach racing a reconnecting client's resume hands
/// the session to **exactly one** holder in every schedule: a resume that
/// beats the detach is busy-refused (with a retry hint) and succeeds once
/// the detach lands; a resume that loses blocks nothing and leaves the
/// session attached for the new connection. The session itself survives
/// either way.
fn session_resume_vs_drain_exclusive() {
    let registry = Arc::new(SessionRegistry::new(model_caps(Duration::from_secs(60))));
    let now = Instant::now();
    let session = registry
        .open(&Session::ephemeral(), now)
        .expect("registry has room");
    let token = session
        .token
        .clone()
        .expect("durable sessions carry a token");
    // T1: the old connection's reader exits and lets go of the session.
    let drainer = {
        let session = session.clone();
        thread::spawn(move || session.detach(now))
    };
    // T2: the reconnecting client races the detach with one resume.
    let racer = {
        let registry = registry.clone();
        let token = token.clone();
        thread::spawn(move || registry.resume(&token, now).is_ok())
    };
    let raced_in = racer.join().expect("racer exits");
    drainer.join().expect("drainer exits");
    let second = registry.resume(&token, now).map(|_| ());
    match (raced_in, &second) {
        // The racer attached; any further resume must be busy-refused.
        (true, Err(err)) => assert!(
            err.retry_after_ms.is_some(),
            "a busy refusal carries a retry hint: {err:?}"
        ),
        // The racer was busy-refused; after the detach the session is
        // free, so the retry attaches cleanly.
        (false, Ok(())) => {}
        _ => panic!("attach must be exclusive: raced_in={raced_in}, second={second:?}"),
    }
    assert_eq!(registry.len(), 1, "the session survives the race");
}

/// The per-session seq guard makes delivery exactly-once under races: an
/// original execution and a post-reconnect resend of the same logical
/// request (same seq) settle **one** bill in every schedule — the loser
/// observes the executed seq and answers from the replay window instead
/// of executing again.
fn session_seq_guard_never_double_bills() {
    const COST: u64 = 7;
    const SEQ: u64 = 0;
    let session = Session::ephemeral();
    let billed = Arc::new(AtomicUsize::new(0));
    let attempts: Vec<_> = (0..2)
        .map(|_| {
            let session = session.clone();
            let billed = billed.clone();
            thread::spawn(move || {
                // One delivery attempt of the same logical request. The
                // server serializes each request's replay check and
                // settle under the run token; holding the session lock
                // across both serializes them the same way.
                let mut inner = session.inner.lock();
                if inner.is_replay(SEQ) {
                    assert!(
                        inner.replayed(SEQ).is_some(),
                        "an executed seq answers from the replay window"
                    );
                } else {
                    let response = Response {
                        id: 0,
                        body: ResponseBody::Ok,
                    };
                    let ev = Event::Exec {
                        token: String::new(),
                        billing: BillingRecord::Ok {
                            cycles: COST,
                            energy_fj: 1.0,
                        },
                        ran_pid: None,
                        seq: Some(SEQ),
                        response: Some(response.to_json_line()),
                        unix_ms: 0,
                    };
                    inner.apply(None, &ev);
                    billed.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for a in attempts {
        a.join().expect("attempt exits");
    }
    let inner = session.inner.lock();
    assert_eq!(
        billed.load(Ordering::SeqCst),
        1,
        "exactly one attempt executes"
    );
    assert_eq!(inner.stats.requests, 1, "the account sees one request");
    assert_eq!(inner.stats.cycles, COST, "the op is billed exactly once");
    assert_eq!(
        inner.last_seq(),
        Some(SEQ),
        "the seq watermark advanced once"
    );
}

/// The TTL sweeper racing a resume of the same expired session resolves
/// exclusively in every schedule: either the resume wins (the session
/// attaches and the sweep must spare it) or the sweep wins (the session
/// is collected and the resume answers `session_expired`) — never both,
/// and the registry count agrees with whichever happened.
fn session_gc_vs_resume_exclusive() {
    // A zero TTL makes the detached session collectible immediately.
    let registry = Arc::new(SessionRegistry::new(model_caps(Duration::ZERO)));
    let now = Instant::now();
    let session = registry
        .open(&Session::ephemeral(), now)
        .expect("registry has room");
    let token = session
        .token
        .clone()
        .expect("durable sessions carry a token");
    session.detach(now);
    let sweeper = {
        let registry = registry.clone();
        thread::spawn(move || registry.sweep(now))
    };
    let resumer = {
        let registry = registry.clone();
        let token = token.clone();
        thread::spawn(move || registry.resume(&token, now).map(|_| ()))
    };
    let swept = sweeper.join().expect("sweeper exits");
    let resumed = resumer.join().expect("resumer exits");
    match resumed {
        Ok(()) => {
            assert!(swept.is_empty(), "a resumed session is never collected");
            assert_eq!(registry.len(), 1, "the resumed session stays registered");
        }
        Err(err) => {
            assert_eq!(
                err.kind,
                ErrorKind::SessionExpired,
                "a swept token answers session_expired: {err:?}"
            );
            assert_eq!(
                swept,
                vec![token],
                "the losing resume implies the sweep collected it"
            );
            assert_eq!(registry.len(), 0, "the collected session is gone");
        }
    }
}

/// The write-ahead journal agrees with the live registry in every
/// schedule of the sweep / resume race: both racers append their events
/// under the persist lock exactly as the server does (lock, mutate,
/// append — one atomic unit), and replaying the journal through
/// [`apply_event`](crate::persist::apply_event) reconstructs whichever
/// outcome the schedule picked. A schedule where the journal could
/// record an Expire for a session the resume kept (or vice versa) would
/// mean a crash right there recovers the wrong registry.
fn journal_vs_gc_vs_resume_consistent() {
    use crate::persist::{apply_event, Event, RegistryRecord, SessionRecord};
    let registry = Arc::new(SessionRegistry::new(model_caps(Duration::ZERO)));
    let now = Instant::now();
    let session = registry
        .open(&Session::ephemeral(), now)
        .expect("registry has room");
    let token = session
        .token
        .clone()
        .expect("durable sessions carry a token");
    session.detach(now);
    // The journal as the server writes it, seeded with the events that
    // built the live state above. The persist lock is outermost, so
    // taking the registry lock inside it is the production lock order.
    let journal = Arc::new(Mutex::named(
        "server.persist.journal",
        vec![
            Event::Open {
                token: token.clone(),
                record: Box::new(SessionRecord::empty(token.clone())),
            },
            Event::Detach {
                token: token.clone(),
                unix_ms: 0,
            },
        ],
    ));
    let sweeper = {
        let registry = registry.clone();
        let journal = journal.clone();
        thread::spawn(move || {
            let mut journal = journal.lock();
            for t in registry.sweep(now) {
                journal.push(Event::Expire { token: t });
            }
        })
    };
    let resumer = {
        let registry = registry.clone();
        let journal = journal.clone();
        let token = token.clone();
        thread::spawn(move || {
            let mut journal = journal.lock();
            let attached = registry.resume(&token, now).is_ok();
            if attached {
                journal.push(Event::Attach { token });
            }
            attached
        })
    };
    let attached = resumer.join().expect("resumer exits");
    sweeper.join().expect("sweeper exits");
    let mut replayed = RegistryRecord::default();
    for ev in journal.lock().iter() {
        apply_event(&mut replayed, ev);
    }
    let recovered = replayed.sessions.iter().find(|s| s.token == token);
    if attached {
        assert_eq!(registry.len(), 1, "the resume kept the session live");
        let rec = recovered.expect("the journal preserves the resumed session");
        assert!(
            rec.detached_since_ms.is_none(),
            "the Attach event cleared the recorded TTL clock"
        );
        assert!(replayed.expired.is_empty(), "nothing was collected");
    } else {
        assert_eq!(registry.len(), 0, "the sweep collected the session");
        assert!(
            recovered.is_none(),
            "the journal must not resurrect a collected session"
        );
        assert_eq!(
            replayed.expired,
            vec![token],
            "the Expire event landed in the journal"
        );
    }
}

/// The serving stack's model suite, in the shape `repro model-check` and
/// the root `concurrency_models` test both consume.
pub const MODELS: &[ModelSpec] = &[
    ModelSpec {
        name: "server-queue-session-fifo",
        invariant: "per-session FIFO order survives round-robin drain and shed refusals",
        run: queue_session_fifo_survives_round_robin,
    },
    ModelSpec {
        name: "server-queue-drain-then-stop",
        invariant: "shutdown drains every accepted item, then terminates, in every schedule",
        run: queue_drain_then_stop_shutdown,
    },
    ModelSpec {
        name: "server-queue-reader-leads",
        invariant: "a reader leading its own request keeps the token exclusive, FIFO, exactly-once and no-lost-wakeup",
        run: queue_reader_leads,
    },
    ModelSpec {
        name: "server-outbox-no-drop-no-reorder",
        invariant: "the outbox delivers every response exactly once, in order, under backpressure",
        run: outbox_never_drops_or_reorders,
    },
    ModelSpec {
        name: "server-rate-window-no-double-billing",
        invariant: "budget metering admits exactly budget/cost racing requests per window",
        run: rate_window_never_double_bills,
    },
    ModelSpec {
        name: "server-session-resume-vs-drain",
        invariant: "a resume racing a reader's detach attaches exactly one holder, never two",
        run: session_resume_vs_drain_exclusive,
    },
    ModelSpec {
        name: "server-session-seq-no-double-billing",
        invariant: "an original and its seq-stamped resend settle exactly one bill",
        run: session_seq_guard_never_double_bills,
    },
    ModelSpec {
        name: "server-session-gc-vs-resume",
        invariant: "a sweep racing a resume resolves exclusively: attach or session_expired",
        run: session_gc_vs_resume_exclusive,
    },
    ModelSpec {
        name: "server-journal-vs-gc-vs-resume",
        invariant: "journal replay reconstructs the live registry in every sweep/resume schedule",
        run: journal_vs_gc_vs_resume_consistent,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_stats::sync::model::{check, ExploreConfig};

    #[test]
    fn server_models_hold_across_the_default_matrix() {
        let cfg = ExploreConfig::from_env(8);
        for spec in MODELS {
            check(spec.name, &cfg, spec.run);
        }
    }
}
