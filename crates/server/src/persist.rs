//! Crash-safe durable state: write-ahead journal, compacting snapshots
//! and restart recovery for the session registry.
//!
//! PR 9 made durable sessions survive the *connection*; this module makes
//! them survive the *process*. It is strictly opt-in (`--state-dir` /
//! [`StateConfig`]) and structured around one invariant:
//!
//! > Durable state changes only by folding a journal [`Event`] into it:
//! > [`SessionRecord::apply`] for one session, [`apply_event`] for the
//! > registry. Serving appends a durable session's event to the journal
//! > and then applies it, under one journal lock; recovery applies the
//! > same events to the last snapshot. Both run the same functions, so
//! > the recovered registry is the live one — byte-identical cycle/energy
//! > accounts included.
//!
//! # On-disk layout
//!
//! A state directory holds generation-numbered files:
//!
//! | file | contents |
//! |---|---|
//! | `snap-<g>.bpimc` | one framed record: the full registry at generation `g` |
//! | `journal-<g>.log` | framed events applied **after** snapshot `g` |
//! | `clean` | clean-shutdown marker naming the final snapshot generation |
//!
//! Every frame is `[u32 len LE][u32 crc32 LE][payload]` where the payload
//! is one JSON document. The CRC (IEEE 802.3, the PNG/zlib polynomial) is
//! over the payload bytes, so a torn tail or a flipped bit is detected
//! rather than replayed. Snapshots are written to a temp file, fsynced,
//! and renamed into place (then the directory is fsynced) — a crash
//! mid-snapshot leaves the previous generation intact.
//!
//! # Recovery
//!
//! Boot picks the newest snapshot that passes its CRC and parse, then
//! replays every `journal-<k>.log` with `k >=` that generation in order,
//! stopping cleanly at the first torn or corrupt record: the journal is
//! truncated there and the dropped byte count is logged. If the clean
//! marker names the chosen snapshot, journal replay is skipped entirely
//! (the warm path). Either way the result is a set of pure-data
//! [`SessionRecord`]s; the server materializes them — recompiling stored
//! programs and classifier models from their journaled source streams
//! into the live sessions' caches — and resumes serving with accounts
//! that are byte-identical to the pre-crash ones (energy is persisted as
//! `f64` bit patterns and replayed through the same additions in the same
//! order).
//!
//! # Exactness
//!
//! A snapshot is a clone of the durable state, and serving and recovery
//! fold events with the same [`SessionRecord::apply`] and [`apply_event`],
//! so there is no second copy of any mutation to keep in step. The
//! deterministic concurrency model `journal-vs-gc-vs-resume`
//! (`crate::models`) checks that a journal produced under racing
//! appenders, sweeps and resumes replays to the live outcome.

use crate::guard;
use crate::session::{SessionInner, SessionRegistry, EXPIRED_TOKENS, REPLAY_WINDOW};
use bpimc_core::json::Json;
use bpimc_core::{
    instr_from_json, instr_to_json, ImcMacro, Instr, Program, RunStatus, SessionActivity,
};
use bpimc_metrics::EnergyParams;
use bpimc_stats::sync::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// When the journal is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended record: a `kill -9` loses at most
    /// the record being written. The safest and slowest policy.
    Always,
    /// Sync at most once per interval (piggybacked on appends and the
    /// sweeper tick): bounds loss to the interval's worth of events.
    Interval(Duration),
    /// Never sync explicitly; the OS flushes on its own schedule. A crash
    /// of the *process* alone loses nothing (the page cache survives);
    /// a machine crash may lose recent events.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI form: `always`, `interval:<ms>` or `never`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(Self::Always),
            "never" => Ok(Self::Never),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| Self::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("bad fsync interval '{ms}': expected milliseconds")),
                None => Err(format!(
                    "bad fsync policy '{other}': expected always|interval:<ms>|never"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Always => write!(f, "always"),
            Self::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            Self::Never => write!(f, "never"),
        }
    }
}

/// Persistence settings ([`crate::ServerConfig::state`]). `None` there
/// means in-memory only — the pre-persistence behaviour, with zero cost
/// on the serving path.
#[derive(Debug, Clone)]
pub struct StateConfig {
    /// The state directory (created if missing).
    pub dir: PathBuf,
    /// Journal fsync policy (default [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Write a compacting snapshot (and truncate the journal) once this
    /// much time passed since the last one *and* the journal is non-empty.
    pub snapshot_interval: Duration,
    /// …or as soon as the journal holds this many records, whichever
    /// comes first. Snapshots ride the sweeper tick, so neither trigger
    /// adds work to the request path.
    pub snapshot_min_records: u64,
}

impl StateConfig {
    /// Defaults for a state directory: fsync `always`, snapshot every 30
    /// seconds or 4096 journal records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_interval: Duration::from_secs(30),
            snapshot_min_records: 4096,
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 + framing
// ---------------------------------------------------------------------------

/// CRC32 (IEEE 802.3, reflected — the zlib/PNG polynomial), table-driven.
/// Hand-rolled because the build image has no crates.io access.
fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends one `[len][crc][payload]` frame.
///
/// # Errors
///
/// `InvalidInput` for a payload of 4 GiB or more, which the `u32` length
/// prefix cannot describe; otherwise the write's own error.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "a {}-byte frame does not fit its length prefix",
                payload.len()
            ),
        )
    })?;
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Why frame decoding stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// Byte offset of the first frame that failed to decode.
    pub offset: u64,
    /// Bytes from `offset` to the end of the file.
    pub dropped_bytes: u64,
    /// What was wrong with the frame.
    pub reason: String,
}

/// Splits a file's bytes into CRC-checked frame payloads, stopping at the
/// first torn (short) or corrupt (CRC/length mismatch) frame. A length
/// prefix is trusted only as far as the bytes left in the file, so the
/// file's size bounds what a hostile prefix can make the reader allocate.
fn read_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, Option<Corruption>) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let corrupt = |pos: usize, reason: String| {
        Some(Corruption {
            offset: pos as u64,
            dropped_bytes: (bytes.len() - pos) as u64,
            reason,
        })
    };
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            return (frames, corrupt(pos, "torn frame header".into()));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if bytes.len() - pos - 8 < len {
            return (frames, corrupt(pos, "torn frame payload".into()));
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            return (frames, corrupt(pos, "CRC mismatch".into()));
        }
        frames.push(payload.to_vec());
        pos += 8 + len;
    }
    (frames, None)
}

// ---------------------------------------------------------------------------
// The durable state and the events that change it
// ---------------------------------------------------------------------------

/// One stored program's journaled form: the **submitted** instruction
/// stream (recompiled through the same validate/compile pipeline on
/// recovery) plus its cumulative run history.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProgramRecord {
    /// The session-scoped program id.
    pub(crate) pid: u64,
    /// The registry name, if the program was stored with one.
    pub(crate) name: Option<String>,
    /// The instruction stream exactly as the client submitted it.
    pub(crate) instrs: Vec<Instr>,
    /// Successful runs billed to this program.
    pub(crate) runs: u64,
    /// Failed runs.
    pub(crate) errors: u64,
    /// Cycles billed across all successful runs.
    pub(crate) total_cycles: u64,
    /// Energy billed across all successful runs (femtojoules).
    pub(crate) total_energy_fj: f64,
    /// Outcome of the most recent run.
    pub(crate) last_status: Option<RunStatus>,
}

/// One session's durable state: what the journal's events fold into
/// ([`SessionRecord::apply`]), what a snapshot clones and what recovery
/// rebuilds. A live session is this plus caches derived from it; the
/// record itself holds no locks, clocks or compiled artifacts. Energy
/// fields are persisted as `f64` **bit patterns**, so a recovered account
/// is byte-identical, not just approximately equal.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SessionRecord {
    /// The session token (the registry key; empty for an ephemeral
    /// session).
    pub(crate) token: String,
    /// The cycle/energy account ([`SessionActivity`]).
    pub(crate) stats: SessionActivity,
    /// The rate window, as `(window start unix-ms, cycles, energy_fj)`;
    /// `None` until the first billed request. Each billed `Exec` rolls it
    /// on its own settle time, so a restart neither refills an exhausted
    /// per-second budget nor meters stale spend.
    pub(crate) rate: Option<(u64, u64, f64)>,
    /// The loaded classifier model's source: `(precision bits, quantized
    /// prototypes)`. Norms and the fused classify template are recomputed
    /// on a scratch macro at recovery (without billing — the original
    /// `load_model` bill is already in `stats`).
    pub(crate) model: Option<(u32, Vec<Vec<u64>>)>,
    /// The next program id `store_program` would assign.
    pub(crate) next_pid: u64,
    /// The idempotency watermark: highest executed seq.
    pub(crate) last_seq: Option<u64>,
    /// Wall-clock milliseconds (unix epoch) when the session's current
    /// detachment began; `None` while a connection holds it. Recovery
    /// credits the elapsed time against the TTL so a restart never grants
    /// a detached session a fresh clock.
    pub(crate) detached_since_ms: Option<u64>,
    /// Stored programs, ordered by pid.
    pub(crate) programs: Vec<ProgramRecord>,
    /// The replay window: `(seq, serialized wire response)` pairs, oldest
    /// first, bounded at [`REPLAY_WINDOW`] — the lines the journal
    /// records, parsed back only when a retry replays one.
    pub(crate) replay: Vec<(u64, String)>,
}

impl SessionRecord {
    pub(crate) fn empty(token: String) -> Self {
        Self {
            token,
            stats: SessionActivity::new(),
            rate: None,
            model: None,
            next_pid: 1,
            last_seq: None,
            detached_since_ms: None,
            programs: Vec::new(),
            replay: Vec::new(),
        }
    }

    /// Folds one event into this session's durable state: the only code
    /// that changes it, for serving and recovery alike. The caller routed
    /// the event here by its token; the registry-level events (`Open`,
    /// `Expire`) are [`apply_event`]'s.
    pub(crate) fn apply(&mut self, ev: &Event) {
        match ev {
            Event::Open { .. } | Event::Expire { .. } => {}
            Event::Attach { .. } => self.detached_since_ms = None,
            // The TTL clock starts at the *first* detach.
            Event::Detach { unix_ms, .. } => {
                self.detached_since_ms.get_or_insert(*unix_ms);
            }
            Event::Model {
                precision_bits,
                prototypes,
                ..
            } => self.model = Some((*precision_bits, prototypes.clone())),
            Event::Store {
                pid, name, instrs, ..
            } => {
                self.programs.push(ProgramRecord {
                    pid: *pid,
                    name: name.clone(),
                    instrs: instrs.clone(),
                    runs: 0,
                    errors: 0,
                    total_cycles: 0,
                    total_energy_fj: 0.0,
                    last_status: None,
                });
                self.next_pid = self.next_pid.max(pid + 1);
            }
            Event::Delete { pid, .. } => self.programs.retain(|p| p.pid != *pid),
            Event::Exec {
                billing,
                ran_pid,
                seq,
                response,
                unix_ms,
                ..
            } => {
                let ran = ran_pid.and_then(|pid| self.programs.iter_mut().find(|p| p.pid == pid));
                match billing {
                    BillingRecord::Ok { cycles, energy_fj } => {
                        self.stats.record_ok(*cycles, *energy_fj);
                        guard::charge(&mut self.rate, *unix_ms, *cycles, *energy_fj);
                        if let Some(p) = ran {
                            p.runs += 1;
                            p.total_cycles += cycles;
                            p.total_energy_fj += energy_fj;
                            p.last_status = Some(RunStatus::Success);
                        }
                    }
                    BillingRecord::Error { message } => {
                        self.stats.record_error();
                        if let Some(p) = ran {
                            p.errors += 1;
                            p.last_status = Some(RunStatus::Error {
                                message: message.clone(),
                            });
                        }
                    }
                    BillingRecord::None => {}
                }
                if let Some(seq) = *seq {
                    if self.last_seq.is_none_or(|last| seq > last) {
                        self.last_seq = Some(seq);
                    }
                    if self.replay.len() >= REPLAY_WINDOW {
                        self.replay.remove(0);
                    }
                    self.replay
                        .push((seq, response.clone().unwrap_or_default()));
                }
            }
        }
    }
}

/// How one settled request bills its session (an `Exec` event's billing).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BillingRecord {
    /// Executed: bills exact cycles/energy into the account, the rate
    /// window and the ran program's history.
    Ok {
        /// Exact hardware cycles billed.
        cycles: u64,
        /// Exact energy billed (femtojoules).
        energy_fj: f64,
    },
    /// Failed or was refused: bills an error (requests count too);
    /// `message` becomes the ran program's `last_status`.
    Error {
        /// The error message of the failed request.
        message: String,
    },
    /// No accounting: the account reflects each logical op exactly once,
    /// however many times its request was (re)sent.
    None,
}

/// One change to durable state. Serving journals the events of
/// **durable** sessions (ephemeral ones die with their connection by
/// design) and applies every session's events, its own ephemeral ones
/// included.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event {
    /// `open_session` minted `token`, adopting the connection's ephemeral
    /// state (usually empty, but a client may stage programs first).
    Open {
        /// The minted token.
        token: String,
        /// The adopted state.
        record: Box<SessionRecord>,
    },
    /// `resume_session` re-attached the session.
    Attach {
        /// The resumed token.
        token: String,
    },
    /// The session's connection let go; the TTL clock started.
    Detach {
        /// The detached token.
        token: String,
        /// Wall-clock milliseconds of the detach (TTL recovery).
        unix_ms: u64,
    },
    /// The TTL sweeper garbage-collected the session.
    Expire {
        /// The swept token.
        token: String,
    },
    /// `load_model` replaced the session's classifier model.
    Model {
        /// The session token.
        token: String,
        /// Lane width in bits.
        precision_bits: u32,
        /// Quantized prototypes (the model's full source).
        prototypes: Vec<Vec<u64>>,
    },
    /// `store_program` added a program.
    Store {
        /// The session token.
        token: String,
        /// The assigned program id.
        pid: u64,
        /// The registry name, if any.
        name: Option<String>,
        /// The submitted instruction stream.
        instrs: Vec<Instr>,
    },
    /// `delete_program` removed a program.
    Delete {
        /// The session token.
        token: String,
        /// The removed program id.
        pid: u64,
    },
    /// One request settled against the session: its billing, the stored
    /// program it ran and, when it was stamped, its seq and response.
    Exec {
        /// The session token.
        token: String,
        /// The billing applied.
        billing: BillingRecord,
        /// The stored program the request ran, if any (run history).
        ran_pid: Option<u64>,
        /// The idempotency seq the request consumed, if it was stamped.
        seq: Option<u64>,
        /// The serialized response recorded for replay (`seq` set only).
        response: Option<String>,
        /// Wall-clock milliseconds of the settle (keys the rate window).
        unix_ms: u64,
    },
}

impl Event {
    /// The token of the session the event concerns.
    pub(crate) fn token(&self) -> &str {
        match self {
            Event::Open { token, .. }
            | Event::Attach { token }
            | Event::Detach { token, .. }
            | Event::Expire { token }
            | Event::Model { token, .. }
            | Event::Store { token, .. }
            | Event::Delete { token, .. }
            | Event::Exec { token, .. } => token,
        }
    }
}

/// Wall clock as unix milliseconds.
pub(crate) fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A registry's durable state: its sessions, the tokens of swept sessions
/// and the token-minting counter. Recovery holds the sessions as records
/// ([`RegistryRecord`]) and serving as live sessions; both change it only
/// through [`apply_event`].
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Registry<S> {
    /// The sessions (a snapshot's are sorted by token).
    pub(crate) sessions: S,
    /// Swept tokens still answering `session_expired`, oldest first,
    /// bounded at [`EXPIRED_TOKENS`].
    pub(crate) expired: VecDeque<String>,
    /// The registry's token-minting counter.
    pub(crate) mint_counter: u64,
}

/// The pure-data registry a snapshot stores and replay reconstructs.
pub(crate) type RegistryRecord = Registry<Vec<SessionRecord>>;

/// How a [`Registry`] holds its sessions.
pub(crate) trait Sessions {
    /// Adds the session an `Open` event carries, unless `token` is taken.
    fn open(&mut self, token: &str, record: &SessionRecord);
    /// Drops the session `token` names, if any.
    fn expire(&mut self, token: &str);
    /// Folds a session-level event into the session `token` names, if any.
    fn apply(&mut self, token: &str, ev: &Event);
}

impl Sessions for Vec<SessionRecord> {
    fn open(&mut self, token: &str, record: &SessionRecord) {
        if !self.iter().any(|r| r.token == token) {
            self.push(record.clone());
        }
    }

    fn expire(&mut self, token: &str) {
        self.retain(|r| r.token != token);
    }

    fn apply(&mut self, token: &str, ev: &Event) {
        if let Some(rec) = self.iter_mut().find(|r| r.token == token) {
            rec.apply(ev);
        }
    }
}

/// Folds one event into a registry, live or recovered alike: `Open` adds
/// its session and advances the mint counter, `Expire` drops its session
/// and remembers the token (keeping the newest [`EXPIRED_TOKENS`]), and
/// every other event goes to its session's [`SessionRecord::apply`].
pub(crate) fn apply_event<S: Sessions>(reg: &mut Registry<S>, ev: &Event) {
    match ev {
        Event::Open { token, record } => {
            reg.sessions.open(token, record);
            reg.mint_counter = reg.mint_counter.wrapping_add(1);
        }
        Event::Expire { token } => {
            reg.sessions.expire(token);
            while reg.expired.len() >= EXPIRED_TOKENS {
                reg.expired.pop_front();
            }
            reg.expired.push_back(token.clone());
        }
        ev => reg.sessions.apply(ev.token(), ev),
    }
}

// ---------------------------------------------------------------------------
// JSON codec (events, records, snapshots)
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn u64s_json(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::UInt(v)).collect())
}

fn status_json(status: &Option<RunStatus>) -> Json {
    match status {
        None => Json::Null,
        Some(RunStatus::Success) => obj(vec![("ok", Json::Bool(true))]),
        Some(RunStatus::Error { message }) => obj(vec![
            ("ok", Json::Bool(false)),
            ("message", Json::Str(message.clone())),
        ]),
    }
}

fn status_from_json(v: &Json) -> Result<Option<RunStatus>, String> {
    match v {
        Json::Null => Ok(None),
        Json::Obj(_) => match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(Some(RunStatus::Success)),
            Some(false) => Ok(Some(RunStatus::Error {
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            })),
            None => Err("status object without 'ok'".into()),
        },
        _ => Err("status must be null or an object".into()),
    }
}

fn prototypes_json(prototypes: &[Vec<u64>]) -> Json {
    Json::Arr(prototypes.iter().map(|p| u64s_json(p)).collect())
}

fn prototypes_from_json(v: &Json) -> Result<Vec<Vec<u64>>, String> {
    v.as_array()
        .ok_or("prototypes must be an array")?
        .iter()
        .map(|p| p.as_u64_array().ok_or_else(|| "bad prototype row".into()))
        .collect()
}

fn instrs_json(instrs: &[Instr]) -> Json {
    Json::Arr(instrs.iter().map(instr_to_json).collect())
}

fn instrs_from_json(v: &Json) -> Result<Vec<Instr>, String> {
    v.as_array()
        .ok_or("instrs must be an array")?
        .iter()
        .map(|i| instr_from_json(i).map_err(|e| e.to_string()))
        .collect()
}

fn record_json(rec: &SessionRecord) -> Json {
    let mut fields = vec![
        ("token", Json::Str(rec.token.clone())),
        ("requests", Json::UInt(rec.stats.requests)),
        ("errors", Json::UInt(rec.stats.errors)),
        ("cycles", Json::UInt(rec.stats.cycles)),
        ("energy_bits", Json::UInt(rec.stats.energy_fj.to_bits())),
        ("next_pid", Json::UInt(rec.next_pid)),
    ];
    if let Some((start, cycles, energy)) = &rec.rate {
        fields.push((
            "rate",
            obj(vec![
                ("start_ms", Json::UInt(*start)),
                ("cycles", Json::UInt(*cycles)),
                ("energy_bits", Json::UInt(energy.to_bits())),
            ]),
        ));
    }
    if let Some((bits, prototypes)) = &rec.model {
        fields.push((
            "model",
            obj(vec![
                ("precision", Json::UInt(*bits as u64)),
                ("prototypes", prototypes_json(prototypes)),
            ]),
        ));
    }
    if let Some(seq) = rec.last_seq {
        fields.push(("last_seq", Json::UInt(seq)));
    }
    if let Some(ms) = rec.detached_since_ms {
        fields.push(("detached_since_ms", Json::UInt(ms)));
    }
    fields.push((
        "programs",
        Json::Arr(
            rec.programs
                .iter()
                .map(|p| {
                    let mut f = vec![
                        ("pid", Json::UInt(p.pid)),
                        ("instrs", instrs_json(&p.instrs)),
                        ("runs", Json::UInt(p.runs)),
                        ("errors", Json::UInt(p.errors)),
                        ("total_cycles", Json::UInt(p.total_cycles)),
                        ("total_energy_bits", Json::UInt(p.total_energy_fj.to_bits())),
                        ("status", status_json(&p.last_status)),
                    ];
                    if let Some(name) = &p.name {
                        f.insert(1, ("name", Json::Str(name.clone())));
                    }
                    obj(f)
                })
                .collect(),
        ),
    ));
    fields.push((
        "replay",
        Json::Arr(
            rec.replay
                .iter()
                .map(|(seq, resp)| {
                    obj(vec![
                        ("seq", Json::UInt(*seq)),
                        ("response", Json::Str(resp.clone())),
                    ])
                })
                .collect(),
        ),
    ));
    obj(fields)
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field '{key}'"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn record_from_json(v: &Json) -> Result<SessionRecord, String> {
    let mut rec = SessionRecord::empty(req_str(v, "token")?);
    rec.stats = SessionActivity {
        requests: req_u64(v, "requests")?,
        errors: req_u64(v, "errors")?,
        cycles: req_u64(v, "cycles")?,
        energy_fj: f64::from_bits(req_u64(v, "energy_bits")?),
    };
    rec.next_pid = req_u64(v, "next_pid")?;
    if let Some(rate) = v.get("rate") {
        rec.rate = Some((
            req_u64(rate, "start_ms")?,
            req_u64(rate, "cycles")?,
            f64::from_bits(req_u64(rate, "energy_bits")?),
        ));
    }
    if let Some(model) = v.get("model") {
        rec.model = Some((
            req_u64(model, "precision")? as u32,
            prototypes_from_json(model.get("prototypes").ok_or("model without prototypes")?)?,
        ));
    }
    rec.last_seq = v.get("last_seq").and_then(Json::as_u64);
    rec.detached_since_ms = v.get("detached_since_ms").and_then(Json::as_u64);
    for p in v
        .get("programs")
        .and_then(Json::as_array)
        .ok_or("record without programs")?
    {
        rec.programs.push(ProgramRecord {
            pid: req_u64(p, "pid")?,
            name: p.get("name").and_then(Json::as_str).map(str::to_string),
            instrs: instrs_from_json(p.get("instrs").ok_or("program without instrs")?)?,
            runs: req_u64(p, "runs")?,
            errors: req_u64(p, "errors")?,
            total_cycles: req_u64(p, "total_cycles")?,
            total_energy_fj: f64::from_bits(req_u64(p, "total_energy_bits")?),
            last_status: status_from_json(p.get("status").unwrap_or(&Json::Null))?,
        });
    }
    for r in v
        .get("replay")
        .and_then(Json::as_array)
        .ok_or("record without replay")?
    {
        rec.replay
            .push((req_u64(r, "seq")?, req_str(r, "response")?));
    }
    Ok(rec)
}

fn event_json(ev: &Event) -> Json {
    let mut fields: Vec<(&str, Json)> = Vec::new();
    let kind = match ev {
        Event::Open { token, record } => {
            fields.push(("token", Json::Str(token.clone())));
            fields.push(("record", record_json(record)));
            "open"
        }
        Event::Attach { token } => {
            fields.push(("token", Json::Str(token.clone())));
            "attach"
        }
        Event::Detach { token, unix_ms } => {
            fields.push(("token", Json::Str(token.clone())));
            fields.push(("at_ms", Json::UInt(*unix_ms)));
            "detach"
        }
        Event::Expire { token } => {
            fields.push(("token", Json::Str(token.clone())));
            "expire"
        }
        Event::Model {
            token,
            precision_bits,
            prototypes,
        } => {
            fields.push(("token", Json::Str(token.clone())));
            fields.push(("precision", Json::UInt(*precision_bits as u64)));
            fields.push(("prototypes", prototypes_json(prototypes)));
            "model"
        }
        Event::Store {
            token,
            pid,
            name,
            instrs,
        } => {
            fields.push(("token", Json::Str(token.clone())));
            fields.push(("pid", Json::UInt(*pid)));
            if let Some(name) = name {
                fields.push(("name", Json::Str(name.clone())));
            }
            fields.push(("instrs", instrs_json(instrs)));
            "store"
        }
        Event::Delete { token, pid } => {
            fields.push(("token", Json::Str(token.clone())));
            fields.push(("pid", Json::UInt(*pid)));
            "delete"
        }
        Event::Exec {
            token,
            billing,
            ran_pid,
            seq,
            response,
            unix_ms,
        } => {
            fields.push(("token", Json::Str(token.clone())));
            match billing {
                BillingRecord::Ok { cycles, energy_fj } => {
                    fields.push(("billing", Json::Str("ok".into())));
                    fields.push(("cycles", Json::UInt(*cycles)));
                    fields.push(("energy_bits", Json::UInt(energy_fj.to_bits())));
                }
                BillingRecord::Error { message } => {
                    fields.push(("billing", Json::Str("error".into())));
                    fields.push(("message", Json::Str(message.clone())));
                }
                BillingRecord::None => fields.push(("billing", Json::Str("none".into()))),
            }
            if let Some(pid) = ran_pid {
                fields.push(("ran_pid", Json::UInt(*pid)));
            }
            if let Some(seq) = seq {
                fields.push(("seq", Json::UInt(*seq)));
            }
            if let Some(resp) = response {
                fields.push(("response", Json::Str(resp.clone())));
            }
            fields.push(("at_ms", Json::UInt(*unix_ms)));
            "exec"
        }
    };
    let mut all = vec![("ev", Json::Str(kind.into()))];
    all.extend(fields);
    obj(all)
}

fn event_from_json(v: &Json) -> Result<Event, String> {
    let kind = v
        .get("ev")
        .and_then(Json::as_str)
        .ok_or("event without 'ev'")?;
    let token = req_str(v, "token")?;
    Ok(match kind {
        "open" => Event::Open {
            token,
            record: Box::new(record_from_json(
                v.get("record").ok_or("open without record")?,
            )?),
        },
        "attach" => Event::Attach { token },
        "detach" => Event::Detach {
            token,
            unix_ms: req_u64(v, "at_ms")?,
        },
        "expire" => Event::Expire { token },
        "model" => Event::Model {
            token,
            precision_bits: req_u64(v, "precision")? as u32,
            prototypes: prototypes_from_json(
                v.get("prototypes").ok_or("model without prototypes")?,
            )?,
        },
        "store" => Event::Store {
            token,
            pid: req_u64(v, "pid")?,
            name: v.get("name").and_then(Json::as_str).map(str::to_string),
            instrs: instrs_from_json(v.get("instrs").ok_or("store without instrs")?)?,
        },
        "delete" => Event::Delete {
            token,
            pid: req_u64(v, "pid")?,
        },
        "exec" => Event::Exec {
            billing: match v.get("billing").and_then(Json::as_str) {
                Some("ok") => BillingRecord::Ok {
                    cycles: req_u64(v, "cycles")?,
                    energy_fj: f64::from_bits(req_u64(v, "energy_bits")?),
                },
                Some("error") => BillingRecord::Error {
                    message: req_str(v, "message")?,
                },
                Some("none") => BillingRecord::None,
                _ => return Err("exec with unknown billing".into()),
            },
            ran_pid: v.get("ran_pid").and_then(Json::as_u64),
            seq: v.get("seq").and_then(Json::as_u64),
            response: v.get("response").and_then(Json::as_str).map(str::to_string),
            unix_ms: req_u64(v, "at_ms")?,
            token,
        },
        other => return Err(format!("unknown event kind '{other}'")),
    })
}

fn snapshot_json(reg: &RegistryRecord, created_ms: u64) -> Json {
    obj(vec![
        ("version", Json::UInt(1)),
        ("created_ms", Json::UInt(created_ms)),
        ("mint_counter", Json::UInt(reg.mint_counter)),
        (
            "expired",
            Json::Arr(reg.expired.iter().map(|t| Json::Str(t.clone())).collect()),
        ),
        (
            "sessions",
            Json::Arr(reg.sessions.iter().map(record_json).collect()),
        ),
    ])
}

fn snapshot_from_json(v: &Json) -> Result<RegistryRecord, String> {
    match v.get("version").and_then(Json::as_u64) {
        Some(1) => {}
        other => return Err(format!("unsupported snapshot version {other:?}")),
    }
    let mut reg = RegistryRecord {
        mint_counter: req_u64(v, "mint_counter")?,
        ..RegistryRecord::default()
    };
    for t in v
        .get("expired")
        .and_then(Json::as_array)
        .ok_or("snapshot without expired ring")?
    {
        reg.expired.push_back(
            t.as_str()
                .ok_or("expired token must be a string")?
                .to_string(),
        );
    }
    for s in v
        .get("sessions")
        .and_then(Json::as_array)
        .ok_or("snapshot without sessions")?
    {
        reg.sessions.push(record_from_json(s)?);
    }
    Ok(reg)
}

// ---------------------------------------------------------------------------
// Materializing records back into live sessions
// ---------------------------------------------------------------------------

/// Rebuilds a recovered session's caches from its durable state:
/// programs and the model are recompiled from their journaled source
/// streams (on a scratch macro, billing nothing — the original bills are
/// already in the account), and the session comes back detached with its
/// TTL clock restarted at `now` ([`SessionInner::restored`]). A program or
/// model that no longer compiles (e.g. the server was restarted with a
/// different macro geometry) keeps its durable record but gets no cache
/// entry, so it cannot run; `notes` collects one line per such artifact.
pub(crate) fn materialize_session(
    rec: SessionRecord,
    mac: &mut ImcMacro,
    params: &EnergyParams,
    now: Instant,
    notes: &mut Vec<String>,
) -> SessionInner {
    let config = *mac.config();
    let mut compiled = Vec::new();
    for p in &rec.programs {
        match Program::new(p.instrs.clone()).compile(&config) {
            Ok(program) => compiled.push((p.pid, Arc::new(program))),
            Err(e) => notes.push(format!(
                "session {}: stored program {} cannot run (no longer compiles: {e})",
                rec.token, p.pid
            )),
        }
    }
    let model = rec.model.as_ref().and_then(|(bits, prototypes)| {
        let precision = match bpimc_core::Precision::try_from_bits(*bits as usize) {
            Ok(p) => p,
            Err(e) => {
                notes.push(format!("session {}: model cannot run ({e})", rec.token));
                return None;
            }
        };
        match crate::server::build_model(mac, params, precision, prototypes.clone()) {
            Ok((model, _, _)) => Some(Arc::new(model)),
            Err(e) => {
                notes.push(format!(
                    "session {}: model cannot run (no longer builds: {e})",
                    rec.token
                ));
                None
            }
        }
    });
    let mut inner = SessionInner::restored(rec, now, unix_ms_now());
    for (pid, program) in compiled {
        inner.cache_program(pid, program);
    }
    inner.model = model;
    inner
}

// ---------------------------------------------------------------------------
// The persist handle: journal appends, snapshots, rotation
// ---------------------------------------------------------------------------

fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen}.bpimc"))
}

fn journal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("journal-{gen}.log"))
}

fn marker_path(dir: &Path) -> PathBuf {
    dir.join("clean")
}

/// The journal writer behind the persist lock.
struct PersistState {
    journal: File,
    /// Records appended to the current journal generation.
    records: u64,
    /// An append has happened since the last sync (interval policy).
    dirty: bool,
    last_sync: Instant,
    /// Current snapshot generation (the journal file is `journal-<gen>`).
    gen: u64,
    last_snapshot: Instant,
}

/// The persistence engine: one journal lock (named
/// `server.persist.journal`) that every durable-session mutation takes
/// **before** the registry or session locks it mutates under — making
/// snapshot-plus-truncate atomic against appenders, so no event is ever
/// both inside a snapshot and in the journal that survives it.
pub(crate) struct Persist {
    dir: PathBuf,
    fsync: FsyncPolicy,
    snapshot_interval: Duration,
    snapshot_min_records: u64,
    state: Mutex<PersistState>,
    finalized: std::sync::atomic::AtomicBool,
}

/// Which path recovery took, plus what it found.
#[derive(Debug)]
pub(crate) struct Recovery {
    /// The reconstructed registry.
    pub(crate) registry: RegistryRecord,
    /// Human-readable one-line description of the recovery path.
    pub(crate) path: String,
    /// The snapshot generation recovery started from.
    pub(crate) chosen_snapshot: Option<u64>,
    /// Whether the clean-shutdown marker let recovery skip the journal.
    pub(crate) warm: bool,
    /// Journal events applied on top of the chosen snapshot.
    pub(crate) replayed_events: u64,
    /// Corruption found in the replayed journal tail, if any (already
    /// truncated away).
    pub(crate) corruption: Option<Corruption>,
    /// `(journal generation, byte offset)` where frame decoding failed —
    /// boot truncates that file there so the bad tail is not re-scanned.
    truncate: Option<(u64, u64)>,
}

impl Persist {
    /// Opens (or creates) a state directory: runs recovery, detaches every
    /// recovered session that was still attached (its connection died
    /// with the old process), truncates any torn journal tail, clears the
    /// clean-shutdown marker and opens a fresh journal generation for the
    /// new process lifetime.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory or its files cannot be
    /// created/read. Corrupt records are *not* errors — recovery stops at
    /// them by design.
    pub(crate) fn open(config: &StateConfig) -> std::io::Result<(Self, Recovery)> {
        std::fs::create_dir_all(&config.dir)?;
        let scan = scan_state_dir(&config.dir, false)?;
        let mut recovery = recover_from_scan(&scan);
        // Every connection died with the old process: a session that was
        // attached is detached from now on, and the boot snapshot says so.
        let boot_ms = unix_ms_now();
        for rec in &mut recovery.registry.sessions {
            rec.apply(&Event::Detach {
                token: rec.token.clone(),
                unix_ms: boot_ms,
            });
        }

        // Truncate the corrupt tail so the next boot does not re-scan it.
        if let Some((gen, offset)) = recovery.truncate {
            let f = OpenOptions::new()
                .write(true)
                .open(journal_path(&config.dir, gen))?;
            f.set_len(offset)?;
            f.sync_data()?;
        }
        let _ = std::fs::remove_file(marker_path(&config.dir));

        // A fresh generation for this lifetime: snapshot what we recovered
        // so every older generation is subsumed, then journal from there.
        let gen = scan.max_gen.map_or(0, |g| g + 1);
        let now = Instant::now();
        let persist = Self {
            dir: config.dir.clone(),
            fsync: config.fsync,
            snapshot_interval: config.snapshot_interval,
            snapshot_min_records: config.snapshot_min_records,
            state: Mutex::named(
                "server.persist.journal",
                PersistState {
                    journal: open_journal(&config.dir, gen)?,
                    records: 0,
                    dirty: false,
                    last_sync: now,
                    gen,
                    last_snapshot: now,
                },
            ),
            finalized: std::sync::atomic::AtomicBool::new(false),
        };
        persist.write_snapshot_file(gen, &recovery.registry)?;
        persist.prune(gen);
        Ok((persist, recovery))
    }

    /// Takes the journal lock, for appending events ([`Journal::append`])
    /// before they are applied.
    pub(crate) fn begin(&self) -> Journal<'_> {
        Journal {
            persist: self,
            st: self.state.lock(),
        }
    }

    /// The sweeper tick: flushes an overdue interval-policy sync and
    /// writes a compacting snapshot when either trigger fires.
    pub(crate) fn tick(&self, registry: &SessionRegistry) {
        let mut st = self.state.lock();
        if st.dirty {
            if let FsyncPolicy::Interval(d) = self.fsync {
                if st.last_sync.elapsed() >= d {
                    let _ = st.journal.sync_data();
                    st.dirty = false;
                    st.last_sync = Instant::now();
                }
            }
        }
        let due = st.records >= self.snapshot_min_records
            || (st.records > 0 && st.last_snapshot.elapsed() >= self.snapshot_interval);
        if due {
            self.snapshot_locked(&mut st, registry);
        }
    }

    /// Graceful shutdown: a final snapshot plus the clean-shutdown marker,
    /// so the next boot takes the warm path. Idempotent (`shutdown()` and
    /// `Drop` may both land here). Call only after every request-serving
    /// thread has exited.
    pub(crate) fn finalize(&self, registry: &SessionRegistry) {
        if self
            .finalized
            .swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            return;
        }
        let mut st = self.state.lock();
        self.snapshot_locked(&mut st, registry);
        let gen = st.gen;
        drop(st);
        let path = marker_path(&self.dir);
        if std::fs::write(&path, format!("{gen}\n")).is_ok() {
            if let Ok(f) = File::open(&path) {
                let _ = f.sync_data();
            }
            sync_dir(&self.dir);
        }
    }

    /// Writes snapshot `gen+1`, rotates the journal to the new generation
    /// and prunes old files. Holding the persist lock makes this atomic
    /// against appenders: events are either inside the snapshot or in the
    /// new journal, never both, never neither.
    fn snapshot_locked(&self, st: &mut PersistState, registry: &SessionRegistry) {
        let reg = registry.snapshot();
        let next = st.gen + 1;
        if let Err(e) = self.write_snapshot_file(next, &reg) {
            eprintln!("bpimc-server: snapshot {next} failed: {e}");
            return;
        }
        match open_journal(&self.dir, next) {
            Ok(journal) => {
                // The old journal's events are all inside the durable
                // snapshot now; rotating *is* the truncation.
                let _ = st.journal.sync_data();
                st.journal = journal;
                st.gen = next;
                st.records = 0;
                st.dirty = false;
                st.last_snapshot = Instant::now();
                self.prune(next);
            }
            Err(e) => eprintln!("bpimc-server: journal rotation to gen {next} failed: {e}"),
        }
    }

    /// Atomic snapshot write: temp file, fsync, rename, directory fsync.
    fn write_snapshot_file(&self, gen: u64, reg: &RegistryRecord) -> std::io::Result<()> {
        let payload = snapshot_json(reg, unix_ms_now()).to_string();
        let tmp = self.dir.join(format!("snap-{gen}.tmp"));
        let mut f = File::create(&tmp)?;
        write_frame(&mut f, payload.as_bytes())?;
        f.sync_data()?;
        drop(f);
        std::fs::rename(&tmp, snap_path(&self.dir, gen))?;
        sync_dir(&self.dir);
        Ok(())
    }

    /// Keeps the newest two generations (the current one plus one fallback
    /// in case the current snapshot is later found corrupt).
    fn prune(&self, current: u64) {
        for gen in (0..current.saturating_sub(1)).rev().take(8) {
            let _ = std::fs::remove_file(snap_path(&self.dir, gen));
            let _ = std::fs::remove_file(journal_path(&self.dir, gen));
        }
    }
}

/// The held journal lock. Serving appends a durable session's events
/// through it and applies them before letting go, so a concurrent snapshot
/// sees each event either inside its capture or in the journal after it.
pub(crate) struct Journal<'a> {
    persist: &'a Persist,
    st: MutexGuard<'a, PersistState>,
}

impl Journal<'_> {
    /// Appends one event frame and applies the fsync policy. I/O errors
    /// are reported to stderr, not propagated: a full disk degrades
    /// durability, never availability.
    pub(crate) fn append(&mut self, ev: &Event) {
        let st = &mut *self.st;
        let payload = event_json(ev).to_string();
        if let Err(e) = write_frame(&mut st.journal, payload.as_bytes()) {
            eprintln!("bpimc-server: journal append failed: {e}");
            return;
        }
        st.records += 1;
        st.dirty = true;
        match self.persist.fsync {
            FsyncPolicy::Always => {
                let _ = st.journal.sync_data();
                st.dirty = false;
                st.last_sync = Instant::now();
            }
            FsyncPolicy::Interval(d) => {
                if st.last_sync.elapsed() >= d {
                    let _ = st.journal.sync_data();
                    st.dirty = false;
                    st.last_sync = Instant::now();
                }
            }
            FsyncPolicy::Never => {}
        }
    }
}

fn open_journal(dir: &Path, gen: u64) -> std::io::Result<File> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(journal_path(dir, gen))
}

fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

// ---------------------------------------------------------------------------
// Recovery + inspection
// ---------------------------------------------------------------------------

/// One journal file's scan: its generation, the decoded events, and the
/// corruption that stopped the read, if any.
type JournalScan = (u64, Vec<Result<Event, String>>, Option<Corruption>);

/// Everything found in one pass over a state directory.
struct StateScan {
    /// Snapshot generations present, ascending.
    snapshots: Vec<(u64, Result<RegistryRecord, String>)>,
    /// Journal generations decoded, ascending: every one present, or only
    /// those recovery replays (see [`scan_state_dir`]).
    journals: Vec<JournalScan>,
    /// The clean-shutdown marker's generation, if present and readable.
    clean_marker: Option<u64>,
    /// Highest generation seen across snapshots and journals.
    max_gen: Option<u64>,
}

/// Scans a state directory. With `every_journal` unset it decodes only
/// the journals [`recover_from_scan`] replays: none when the clean marker
/// names the newest valid snapshot, else those from that snapshot's
/// generation on. A boot then holds no superseded journal in memory; the
/// audit ([`inspect`]) decodes every file.
fn scan_state_dir(dir: &Path, every_journal: bool) -> std::io::Result<StateScan> {
    let mut snap_gens: Vec<u64> = Vec::new();
    let mut journal_gens: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(g) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".bpimc"))
            .and_then(|s| s.parse().ok())
        {
            snap_gens.push(g);
        } else if let Some(g) = name
            .strip_prefix("journal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse().ok())
        {
            journal_gens.push(g);
        }
    }
    snap_gens.sort_unstable();
    journal_gens.sort_unstable();
    let max_gen = snap_gens.iter().chain(journal_gens.iter()).max().copied();

    let snapshots = snap_gens
        .into_iter()
        .map(|g| {
            let parsed = read_file(&snap_path(dir, g)).and_then(|bytes| {
                let (frames, corrupt) = read_frames(&bytes);
                match (frames.into_iter().next(), corrupt) {
                    (Some(payload), None) => String::from_utf8(payload)
                        .map_err(|_| "snapshot is not UTF-8".to_string())
                        .and_then(|s| Json::parse(&s).map_err(|e| e.to_string()))
                        .and_then(|v| snapshot_from_json(&v)),
                    (_, Some(c)) => Err(format!("{} at byte {}", c.reason, c.offset)),
                    (None, None) => Err("empty snapshot file".to_string()),
                }
            });
            (g, parsed)
        })
        .collect::<Vec<_>>();

    let clean_marker = std::fs::read_to_string(marker_path(dir))
        .ok()
        .and_then(|s| s.trim().parse().ok());
    let base = snapshots
        .iter()
        .rev()
        .find_map(|(g, parsed)| parsed.is_ok().then_some(*g));
    let replayed = |g: u64| base.is_none_or(|b| g >= b && clean_marker != Some(b));

    let mut journals = Vec::new();
    for g in journal_gens {
        if !every_journal && !replayed(g) {
            continue;
        }
        let bytes = read_file(&journal_path(dir, g)).unwrap_or_default();
        let (frames, corruption) = read_frames(&bytes);
        let events = frames
            .into_iter()
            .map(|payload| {
                String::from_utf8(payload)
                    .map_err(|_| "event is not UTF-8".to_string())
                    .and_then(|s| Json::parse(&s).map_err(|e| e.to_string()))
                    .and_then(|v| event_from_json(&v))
            })
            .collect();
        journals.push((g, events, corruption));
    }

    Ok(StateScan {
        snapshots,
        journals,
        clean_marker,
        max_gen,
    })
}

fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| e.to_string())
}

/// Reconstructs the registry from a scan: newest valid snapshot, then the
/// journal tail, stopping at the first corrupt record (an unparseable but
/// CRC-valid event counts as corruption too — it means a format bug, and
/// replaying past it would apply events against unknown state).
fn recover_from_scan(scan: &StateScan) -> Recovery {
    let chosen = scan
        .snapshots
        .iter()
        .rev()
        .find_map(|(g, parsed)| parsed.as_ref().ok().map(|reg| (*g, reg.clone())));
    let (base_gen, mut registry) = match chosen {
        Some((g, reg)) => (Some(g), reg),
        None => (None, RegistryRecord::default()),
    };

    // Warm path: the clean marker names the chosen snapshot, so the
    // journal holds nothing newer.
    if let (Some(marker), Some(base)) = (scan.clean_marker, base_gen) {
        if marker == base {
            return Recovery {
                path: format!(
                    "warm restart: clean-shutdown snapshot gen {base} ({} sessions), journal \
                     replay skipped",
                    registry.sessions.len()
                ),
                registry,
                chosen_snapshot: base_gen,
                warm: true,
                replayed_events: 0,
                corruption: None,
                truncate: None,
            };
        }
    }

    let mut replayed = 0u64;
    let mut corruption = None;
    let mut truncate = None;
    'journals: for (g, events, file_corruption) in &scan.journals {
        if base_gen.is_some_and(|base| *g < base) {
            continue;
        }
        for ev in events {
            match ev {
                Ok(ev) => {
                    apply_event(&mut registry, ev);
                    replayed += 1;
                }
                Err(e) => {
                    corruption = Some(Corruption {
                        offset: 0,
                        dropped_bytes: 0,
                        reason: format!("unparseable event: {e}"),
                    });
                    break 'journals;
                }
            }
        }
        if let Some(c) = file_corruption {
            corruption = Some(c.clone());
            truncate = Some((*g, c.offset));
            break;
        }
    }
    let path = match (base_gen, &corruption) {
        (base, Some(c)) => format!(
            "recovered {} sessions from {} + {replayed} journal events; stopped at corrupt \
             record ({}, {} bytes dropped)",
            registry.sessions.len(),
            base.map_or("empty state".to_string(), |g| format!("snapshot gen {g}")),
            c.reason,
            c.dropped_bytes,
        ),
        (Some(g), None) => format!(
            "recovered {} sessions from snapshot gen {g} + {replayed} journal events",
            registry.sessions.len()
        ),
        (None, None) => format!(
            "recovered {} sessions from journal replay alone ({replayed} events)",
            registry.sessions.len()
        ),
    };
    Recovery {
        registry,
        path,
        chosen_snapshot: base_gen,
        warm: false,
        replayed_events: replayed,
        corruption,
        truncate,
    }
}

/// Per-file detail in a [`StateReport`].
#[derive(Debug)]
pub struct FileReport {
    /// Generation number from the file name.
    pub gen: u64,
    /// Decoded records (events for journals, 1 for a valid snapshot).
    pub records: u64,
    /// `None` when the file decoded cleanly.
    pub corruption: Option<Corruption>,
}

/// One session's summary in a [`StateReport`].
#[derive(Debug)]
pub struct SessionSummary {
    /// The session token.
    pub token: String,
    /// The recovered account.
    pub stats: SessionActivity,
    /// Stored programs.
    pub programs: usize,
    /// Idempotency watermark.
    pub last_seq: Option<u64>,
    /// Replay-window entries.
    pub replay: usize,
    /// Unix-epoch milliseconds when its current detachment began, if it
    /// was detached.
    pub detached_since_ms: Option<u64>,
}

/// What [`inspect`] found in a state directory — the `repro state`
/// payload.
#[derive(Debug)]
pub struct StateReport {
    /// Snapshot files, ascending by generation.
    pub snapshots: Vec<FileReport>,
    /// Journal files, ascending by generation.
    pub journals: Vec<FileReport>,
    /// The snapshot generation recovery would start from.
    pub chosen_snapshot: Option<u64>,
    /// The clean-shutdown marker's generation, if present.
    pub clean_marker: Option<u64>,
    /// Whether the warm (marker) path would be taken.
    pub warm: bool,
    /// Journal events recovery would replay.
    pub replayed_events: u64,
    /// The recovered sessions, summarized.
    pub sessions: Vec<SessionSummary>,
    /// Any corruption found (torn tail, CRC failure, unparseable record).
    pub corruptions: Vec<(String, Corruption)>,
}

impl StateReport {
    /// True when any file failed its CRC, length or parse checks —
    /// `repro state` exits non-zero on this.
    pub fn corrupt(&self) -> bool {
        !self.corruptions.is_empty()
    }
}

/// Read-only inspection of a state directory: what every file holds,
/// where decoding stops, and the per-session summary of what recovery
/// would reconstruct. Never modifies the directory.
///
/// # Errors
///
/// Returns the I/O error when the directory cannot be read (missing
/// files and corrupt records are reported in the result, not as errors).
pub fn inspect(dir: &Path) -> std::io::Result<StateReport> {
    let scan = scan_state_dir(dir, true)?;
    let recovery = recover_from_scan(&scan);
    let mut corruptions = Vec::new();
    let snapshots = scan
        .snapshots
        .iter()
        .map(|(g, parsed)| match parsed {
            Ok(_) => FileReport {
                gen: *g,
                records: 1,
                corruption: None,
            },
            Err(e) => {
                let c = Corruption {
                    offset: 0,
                    dropped_bytes: 0,
                    reason: e.clone(),
                };
                corruptions.push((format!("snap-{g}.bpimc"), c.clone()));
                FileReport {
                    gen: *g,
                    records: 0,
                    corruption: Some(c),
                }
            }
        })
        .collect();
    let journals = scan
        .journals
        .iter()
        .map(|(g, events, corruption)| {
            let bad_event = events.iter().find_map(|e| e.as_ref().err());
            let corruption = match (corruption, bad_event) {
                (Some(c), _) => Some(c.clone()),
                (None, Some(e)) => Some(Corruption {
                    offset: 0,
                    dropped_bytes: 0,
                    reason: format!("unparseable event: {e}"),
                }),
                (None, None) => None,
            };
            if let Some(c) = &corruption {
                corruptions.push((format!("journal-{g}.log"), c.clone()));
            }
            FileReport {
                gen: *g,
                records: events.iter().filter(|e| e.is_ok()).count() as u64,
                corruption,
            }
        })
        .collect();
    let mut sessions: Vec<SessionSummary> = recovery
        .registry
        .sessions
        .iter()
        .map(|r| SessionSummary {
            token: r.token.clone(),
            stats: r.stats,
            programs: r.programs.len(),
            last_seq: r.last_seq,
            replay: r.replay.len(),
            detached_since_ms: r.detached_since_ms,
        })
        .collect();
    sessions.sort_by(|a, b| a.token.cmp(&b.token));
    Ok(StateReport {
        snapshots,
        journals,
        chosen_snapshot: recovery.chosen_snapshot,
        clean_marker: scan.clean_marker,
        warm: recovery.warm,
        replayed_events: recovery.replayed_events,
        sessions,
        corruptions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_core::{Response, ResponseBody};

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert!(FsyncPolicy::parse("interval:soon").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(
            FsyncPolicy::Interval(Duration::from_millis(250)).to_string(),
            "interval:250"
        );
    }

    #[test]
    fn frames_roundtrip_and_stop_at_torn_or_flipped_bytes() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let (frames, corruption) = read_frames(&buf);
        assert_eq!(frames, vec![b"first".to_vec(), b"second".to_vec()]);
        assert!(corruption.is_none());

        // Torn tail: drop the last 3 bytes.
        let torn = &buf[..buf.len() - 3];
        let (frames, corruption) = read_frames(torn);
        assert_eq!(frames, vec![b"first".to_vec()]);
        let c = corruption.expect("torn frame detected");
        assert_eq!(c.offset, 13, "first frame is 8 + 5 bytes");
        assert!(c.reason.contains("torn"));

        // Bit flip inside the second payload: CRC catches it.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let (frames, corruption) = read_frames(&flipped);
        assert_eq!(frames.len(), 1);
        assert!(corruption.expect("flip detected").reason.contains("CRC"));
    }

    fn sample_record() -> SessionRecord {
        let mut rec = SessionRecord::empty("cafe".into());
        rec.stats.record_ok(7, 1.25);
        rec.stats.record_error();
        rec.rate = Some((1000, 7, 1.25));
        rec.model = Some((8, vec![vec![1, 2], vec![3, 4]]));
        rec.next_pid = 3;
        rec.last_seq = Some(9);
        rec.detached_since_ms = Some(42);
        rec.programs.push(ProgramRecord {
            pid: 2,
            name: Some("p".into()),
            instrs: vec![
                Instr::Write {
                    dst: bpimc_core::Reg(0),
                    precision: bpimc_core::Precision::P8,
                    values: vec![1, 2],
                },
                Instr::Read {
                    src: bpimc_core::Reg(0),
                    precision: bpimc_core::Precision::P8,
                    n: 2,
                },
            ],
            runs: 4,
            errors: 1,
            total_cycles: 40,
            total_energy_fj: 0.1 + 0.2, // deliberately non-representable
            last_status: Some(RunStatus::Error {
                message: "boom".into(),
            }),
        });
        rec.replay.push((
            9,
            Response {
                id: 0,
                body: ResponseBody::Scalar(42),
            }
            .to_json_line(),
        ));
        rec
    }

    #[test]
    fn records_roundtrip_with_exact_energy_bits() {
        let rec = sample_record();
        let back = record_from_json(&Json::parse(&record_json(&rec).to_string()).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(
            back.programs[0].total_energy_fj.to_bits(),
            rec.programs[0].total_energy_fj.to_bits(),
            "energy must survive as exact bits, not as a decimal approximation"
        );
    }

    /// One event of every kind, with every billing kind.
    fn sample_events() -> Vec<Event> {
        vec![
            Event::Open {
                token: "t".into(),
                record: Box::new(sample_record()),
            },
            Event::Attach { token: "t".into() },
            Event::Detach {
                token: "t".into(),
                unix_ms: 123,
            },
            Event::Expire { token: "t".into() },
            Event::Model {
                token: "t".into(),
                precision_bits: 8,
                prototypes: vec![vec![1, 2]],
            },
            Event::Store {
                token: "t".into(),
                pid: 1,
                name: None,
                instrs: sample_record().programs[0].instrs.clone(),
            },
            Event::Store {
                token: "t".into(),
                pid: 2,
                name: Some("named".into()),
                instrs: sample_record().programs[0].instrs.clone(),
            },
            Event::Delete {
                token: "t".into(),
                pid: 1,
            },
            Event::Exec {
                token: "t".into(),
                billing: BillingRecord::Ok {
                    cycles: 3,
                    energy_fj: 0.3,
                },
                ran_pid: Some(1),
                seq: Some(0),
                response: Some("{}".into()),
                unix_ms: 5,
            },
            Event::Exec {
                token: "t".into(),
                billing: BillingRecord::Error {
                    message: "nope".into(),
                },
                ran_pid: None,
                seq: None,
                response: None,
                unix_ms: 6,
            },
            Event::Exec {
                token: "t".into(),
                billing: BillingRecord::None,
                ran_pid: None,
                seq: Some(1),
                response: Some("{\"id\":0,\"ok\":true}".into()),
                unix_ms: 7,
            },
        ]
    }

    /// Pins the bytes of every journal and snapshot encoding: FNV-1a over
    /// the encodings of [`sample_events`], of [`sample_record`] and of a
    /// two-session snapshot. A refactor must leave the constant alone; a
    /// deliberate format change updates it and says so.
    #[test]
    fn journal_and_snapshot_bytes_are_pinned() {
        let mut registry = RegistryRecord {
            mint_counter: 7,
            ..RegistryRecord::default()
        };
        let mut second = SessionRecord::empty("beef".into());
        second.stats.record_ok(13, 29870.8);
        second.last_seq = Some(0);
        second.replay.push((0, "{\"id\":0,\"ok\":true}".into()));
        registry.sessions.push(second);
        registry.sessions.push(sample_record());
        registry
            .expired
            .extend(["gone".to_string(), "older".to_string()]);
        let mut lines: Vec<String> = sample_events()
            .iter()
            .map(|ev| event_json(ev).to_string())
            .collect();
        lines.push(record_json(&sample_record()).to_string());
        lines.push(snapshot_json(&registry, 1_700_000_000_000).to_string());
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for line in &lines {
            for &b in line.as_bytes().iter().chain(b"\n") {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(
            hash,
            0x25dc_d521_5e33_64b3,
            "journal/snapshot encoding changed:\n{}",
            lines.join("\n")
        );
    }

    #[test]
    fn events_roundtrip_through_their_wire_form() {
        for ev in sample_events() {
            let back =
                event_from_json(&Json::parse(&event_json(&ev).to_string()).unwrap()).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn apply_event_folds_session_and_registry_events() {
        let mut reg = RegistryRecord::default();
        apply_event(
            &mut reg,
            &Event::Open {
                token: "a".into(),
                record: Box::new(SessionRecord::empty("a".into())),
            },
        );
        assert_eq!(reg.mint_counter, 1);
        apply_event(
            &mut reg,
            &Event::Store {
                token: "a".into(),
                pid: 1,
                name: Some("p".into()),
                instrs: vec![],
            },
        );
        // A billed run updates stats, the window and the program history.
        apply_event(
            &mut reg,
            &Event::Exec {
                token: "a".into(),
                billing: BillingRecord::Ok {
                    cycles: 10,
                    energy_fj: 2.5,
                },
                ran_pid: Some(1),
                seq: Some(0),
                response: Some("r0".into()),
                unix_ms: 1000,
            },
        );
        // A failed run in the same window.
        apply_event(
            &mut reg,
            &Event::Exec {
                token: "a".into(),
                billing: BillingRecord::Error {
                    message: "bad".into(),
                },
                ran_pid: Some(1),
                seq: Some(1),
                response: Some("r1".into()),
                unix_ms: 1500,
            },
        );
        let rec = &reg.sessions[0];
        assert_eq!(rec.stats.requests, 2);
        assert_eq!(rec.stats.errors, 1);
        assert_eq!(rec.stats.cycles, 10);
        assert_eq!(rec.rate, Some((1000, 10, 2.5)));
        assert_eq!(rec.next_pid, 2);
        assert_eq!(rec.programs[0].runs, 1);
        assert_eq!(rec.programs[0].errors, 1);
        assert_eq!(
            rec.programs[0].last_status,
            Some(RunStatus::Error {
                message: "bad".into()
            })
        );
        assert_eq!(rec.last_seq, Some(1));
        assert_eq!(rec.replay.len(), 2);

        // A new window starts once the old one ages out.
        apply_event(
            &mut reg,
            &Event::Exec {
                token: "a".into(),
                billing: BillingRecord::Ok {
                    cycles: 1,
                    energy_fj: 0.5,
                },
                ran_pid: None,
                seq: None,
                response: None,
                unix_ms: 2500,
            },
        );
        assert_eq!(reg.sessions[0].rate, Some((2500, 1, 0.5)));

        // Replay window stays bounded, like the live one.
        for seq in 2..(REPLAY_WINDOW as u64 + 4) {
            apply_event(
                &mut reg,
                &Event::Exec {
                    token: "a".into(),
                    billing: BillingRecord::None,
                    ran_pid: None,
                    seq: Some(seq),
                    response: Some(format!("r{seq}")),
                    unix_ms: 2500,
                },
            );
        }
        assert_eq!(reg.sessions[0].replay.len(), REPLAY_WINDOW);

        // Expiry removes the session and remembers the token.
        apply_event(&mut reg, &Event::Expire { token: "a".into() });
        assert!(reg.sessions.is_empty());
        assert_eq!(reg.expired, vec!["a".to_string()]);
    }

    /// Replayed expiries keep the ring at the bound the live registry
    /// keeps, and a ring recovered over the bound shrinks back to it on
    /// the next expiry.
    #[test]
    fn the_expired_ring_stays_bounded_on_replay() {
        let mut reg = RegistryRecord::default();
        for i in 0..1100 {
            let token = format!("t{i}");
            apply_event(&mut reg, &Event::Expire { token });
        }
        assert_eq!(reg.expired.len(), EXPIRED_TOKENS);
        assert_eq!(reg.expired.front().map(String::as_str), Some("t76"));
        assert_eq!(reg.expired.back().map(String::as_str), Some("t1099"));

        let mut oversized = RegistryRecord::default();
        oversized
            .expired
            .extend((0..1100).map(|i| format!("old{i}")));
        let token = "new".to_string();
        apply_event(&mut oversized, &Event::Expire { token });
        assert_eq!(oversized.expired.len(), EXPIRED_TOKENS);
        assert_eq!(oversized.expired.back().map(String::as_str), Some("new"));
    }

    /// Recovery reads back every frame the writer accepts: a 17 MiB
    /// snapshot-sized payload round-trips.
    #[test]
    fn frames_past_16_mib_read_back() {
        let payload = vec![b'x'; 17 << 20];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let (frames, corruption) = read_frames(&buf);
        assert!(corruption.is_none(), "{corruption:?}");
        assert_eq!(frames.len(), 1);
        assert!(frames[0] == payload);
    }

    /// `inspect` reports the events recovery replayed, not the frames
    /// that decode: replay stops at an unparseable (CRC-valid) event, so
    /// [Open, garbage, Attach] replays one.
    #[test]
    fn inspect_reports_what_recovery_replayed() {
        let dir = TempDir::new("inspect");
        let mut journal = Vec::new();
        let open = Event::Open {
            token: "t".into(),
            record: Box::new(SessionRecord::empty("t".into())),
        };
        let attach = Event::Attach { token: "t".into() };
        write_frame(&mut journal, event_json(&open).to_string().as_bytes()).expect("frame");
        write_frame(&mut journal, b"{\"ev\":\"bogus\"}").expect("frame");
        write_frame(&mut journal, event_json(&attach).to_string().as_bytes()).expect("frame");
        std::fs::write(journal_path(&dir.0, 0), journal).expect("write journal");
        let report = inspect(&dir.0).expect("inspect");
        assert_eq!(report.chosen_snapshot, None);
        assert!(!report.warm);
        assert_eq!(report.replayed_events, 1);
        assert_eq!(report.sessions.len(), 1);
    }

    /// A state directory under the system temp dir that deletes itself
    /// on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "bpimc-persist-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create state dir");
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Live state equals replay: one server runs a fixed script over both
    /// kinds of session and shuts down gracefully. Its final snapshot (a
    /// capture of the live registry) must equal snapshot gen 0 plus the
    /// whole journal, replayed from a copy of the directory without the
    /// final snapshot and the clean marker — session by session, field by
    /// field, energies to the bit.
    #[test]
    fn the_final_snapshot_equals_the_replayed_journal() {
        use crate::{Client, RetryPolicy, Server, ServerConfig};
        use bpimc_core::{LaneOp, Precision, ProgramBuilder, StoredTarget};

        let dir = TempDir::new("equiv");
        let handle = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                state: Some(StateConfig::new(dir.0.clone())),
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let shape = {
            let mut b = ProgramBuilder::new();
            let x = b.write_mult(Precision::P8, vec![0, 0, 0]);
            let w = b.write_mult(Precision::P8, vec![0, 0, 0]);
            let prod = b.mult(x, w, Precision::P8);
            b.read_products(prod, Precision::P8, 3);
            b.finish()
        };
        let good = [Some(vec![1, 2, 3]), Some(vec![4, 5, 6])];
        let protos: Vec<Vec<u64>> = (0..3)
            .map(|p| (0..8).map(|i| (p * 50 + i * 11) % 256).collect())
            .collect();

        // An ephemeral session stages a program and a billed ping, then
        // becomes durable.
        let mut a = Client::connect(handle.local_addr()).expect("connect a");
        let staged = a.store_program(&shape).expect("staged store");
        a.ping().expect("ping");
        a.open_session().expect("open a");
        a.load_model(Precision::P8, &protos).expect("load_model");
        a.classify(&[9, 8, 7, 6, 5, 4, 3, 2]).expect("classify");
        a.store_program_named(&shape, "dots").expect("named store");
        let unnamed = a.store_program(&shape).expect("unnamed store");
        a.run_stored_named("dots", &good).expect("good run");
        assert!(a.run_stored(unnamed.pid, &[Some(vec![1])]).is_err());
        a.dot(Precision::P8, &[1, 2, 3], &[4, 5, 6]).expect("dot");
        a.lanes(LaneOp::Add, Precision::P8, &[1, 2], &[3, 4])
            .expect("lanes");
        a.delete_program(StoredTarget::Pid(staged.pid))
            .expect("delete that finds its program");
        assert!(a.delete_program(StoredTarget::Name("nope".into())).is_err());
        a.stats().expect("stats");
        a.list_programs().expect("list_programs");
        a.lint_program(&shape).expect("lint_program");

        // A second durable session drops its connection, is resumed on
        // another, and bills across a gap longer than the 1-s window.
        let mut b = Client::connect(handle.local_addr()).expect("connect b");
        let token_b = b.open_session().expect("open b").token;
        b.dot(Precision::P8, &[2, 2], &[3, 3]).expect("dot b");
        drop(b);
        let mut c = Client::connect(handle.local_addr()).expect("connect c");
        c.set_retry_policy(Some(RetryPolicy::default()));
        c.resume_session(token_b).expect("resume b");
        c.dot(Precision::P8, &[1, 1], &[1, 1]).expect("dot c");
        std::thread::sleep(Duration::from_millis(1100));
        c.dot(Precision::P8, &[5, 1], &[1, 5])
            .expect("dot c after the gap");
        drop((a, c));
        handle.shutdown();

        // The final snapshot: what the live registry held at shutdown.
        let scan = scan_state_dir(&dir.0, true).expect("scan");
        let last = scan.clean_marker.expect("a graceful shutdown marks clean");
        let live = recover_from_scan(&scan).registry;
        // Snapshot gen 0 plus the whole journal, from a copy without the
        // final snapshot and the marker.
        let copy = TempDir::new("equiv-replay");
        for entry in std::fs::read_dir(&dir.0).expect("read state dir") {
            let name = entry.expect("dir entry").file_name();
            if name != "clean" && name.to_string_lossy() != format!("snap-{last}.bpimc") {
                std::fs::copy(dir.0.join(&name), copy.0.join(&name)).expect("copy");
            }
        }
        let recovery = recover_from_scan(&scan_state_dir(&copy.0, true).expect("scan copy"));
        assert!(recovery.corruption.is_none(), "{}", recovery.path);
        assert!(
            recovery.path.contains("snapshot gen 0"),
            "{}",
            recovery.path
        );
        let replayed = recovery.registry;

        assert_eq!(live.mint_counter, replayed.mint_counter);
        assert_eq!(live.expired, replayed.expired);
        let sorted = |reg: &RegistryRecord| {
            let mut sessions = reg.sessions.clone();
            sessions.sort_by(|x, y| x.token.cmp(&y.token));
            sessions
        };
        let (live, replayed) = (sorted(&live), sorted(&replayed));
        assert_eq!(live.len(), 2);
        assert_eq!(
            live.iter().map(|s| &s.token).collect::<Vec<_>>(),
            replayed.iter().map(|s| &s.token).collect::<Vec<_>>()
        );
        for (l, r) in live.iter().zip(&replayed) {
            let token = &l.token;
            assert_eq!(l.stats, r.stats, "session {token}: account");
            assert_eq!(l.stats.energy_fj.to_bits(), r.stats.energy_fj.to_bits());
            assert_eq!(l.rate, r.rate, "session {token}: rate window");
            assert_eq!(l.model, r.model, "session {token}: model");
            assert_eq!(l.next_pid, r.next_pid, "session {token}: next_pid");
            assert_eq!(l.last_seq, r.last_seq, "session {token}: last_seq");
            assert_eq!(
                l.detached_since_ms, r.detached_since_ms,
                "session {token}: detached_since_ms"
            );
            assert_eq!(l.programs, r.programs, "session {token}: programs");
            for (lp, rp) in l.programs.iter().zip(&r.programs) {
                assert_eq!(lp.total_energy_fj.to_bits(), rp.total_energy_fj.to_bits());
            }
            assert_eq!(l.replay, r.replay, "session {token}: replay window");
            assert_eq!(l, r);
        }
        let a = live.iter().find(|s| s.model.is_some()).expect("session a");
        assert!(
            a.programs
                .iter()
                .any(|p| matches!(p.last_status, Some(RunStatus::Error { .. }))),
            "the script records a failed run"
        );
        assert!(!a.replay.is_empty(), "the script records replay lines");
    }
}
