//! Crash-safe durable state: write-ahead journal, compacting snapshots
//! and restart recovery for the session registry.
//!
//! PR 9 made durable sessions survive the *connection*; this module makes
//! them survive the *process*. It is strictly opt-in (`--state-dir` /
//! [`StateConfig`]) and structured around one invariant:
//!
//! > Every state mutation of a **durable** session is appended to the
//! > journal under the same critical section that applies it, and
//! > replaying the journal over the last snapshot reproduces the live
//! > registry — including byte-identical cycle/energy accounts.
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
//! programs and classifier models from their journaled source streams —
//! and resumes serving with accounts that are byte-identical to the
//! pre-crash ones (energy is persisted as `f64` bit patterns and replayed
//! through the same additions in the same order).
//!
//! # Exactness
//!
//! [`apply_event`] mirrors `SessionInner::settle` field by field; the
//! deterministic concurrency model `journal-vs-gc-vs-resume`
//! (`crate::models`) checks that a journal produced under racing
//! appenders, sweeps and resumes still replays to the live outcome.

use crate::guard::RateWindow;
use crate::session::{Billing, Session, SessionInner, SessionRegistry, StoredEntry, REPLAY_WINDOW};
use bpimc_core::json::Json;
use bpimc_core::{
    instr_from_json, instr_to_json, Instr, MacroBank, Program, Response, ResponseBody, RunStatus,
    SessionActivity,
};
use bpimc_metrics::EnergyParams;
use bpimc_stats::sync::{Mutex, MutexGuard};
use std::collections::HashMap;
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

/// Longest accepted frame payload (16 MiB): a length prefix beyond this is
/// treated as corruption, not an allocation request.
const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Appends one `[len][crc][payload]` frame.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
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
/// first torn (short) or corrupt (CRC/length mismatch) frame.
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
        if len as u32 > MAX_FRAME_BYTES {
            return (
                frames,
                corrupt(pos, format!("implausible frame length {len}")),
            );
        }
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
// Pure-data model: session records and journal events
// ---------------------------------------------------------------------------

/// One stored program's journaled form: the **submitted** instruction
/// stream (recompiled through the same validate/compile pipeline on
/// recovery) plus its cumulative run history.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramRecord {
    /// The session-scoped program id.
    pub pid: u64,
    /// The registry name, if the program was stored with one.
    pub name: Option<String>,
    /// The instruction stream exactly as the client submitted it.
    pub instrs: Vec<Instr>,
    /// Successful runs billed to this program.
    pub runs: u64,
    /// Failed runs.
    pub errors: u64,
    /// Cycles billed across all successful runs.
    pub total_cycles: u64,
    /// Energy billed across all successful runs (femtojoules).
    pub total_energy_fj: f64,
    /// Outcome of the most recent run.
    pub last_status: Option<RunStatus>,
}

/// One durable session as pure data — what snapshots store and journal
/// replay reconstructs, with no locks, clocks or compiled artifacts.
/// Energy fields are persisted as `f64` **bit patterns**, so a recovered
/// account is byte-identical, not just approximately equal.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// The session token (the registry key).
    pub token: String,
    /// The cycle/energy account ([`SessionActivity`]).
    pub stats: SessionActivity,
    /// The rate window, as `(window start unix-ms, cycles, energy_fj)`;
    /// `None` for a window that had nothing billed. Restored on recovery
    /// so a restart does not refill an exhausted per-second budget.
    pub rate: Option<(u64, u64, f64)>,
    /// The loaded classifier model's source: `(precision bits, quantized
    /// prototypes)`. Norms and the fused classify template are recomputed
    /// on a scratch macro at recovery (without billing — the original
    /// `load_model` bill is already in `stats`).
    pub model: Option<(u32, Vec<Vec<u64>>)>,
    /// The next program id `store_program` would assign.
    pub next_pid: u64,
    /// The idempotency watermark: highest executed seq.
    pub last_seq: Option<u64>,
    /// Wall-clock milliseconds (unix epoch) when the session's current
    /// detachment began; `None` when it was attached. Recovery credits
    /// the elapsed time against the TTL so a restart never grants a
    /// detached session a fresh clock.
    pub detached_since_ms: Option<u64>,
    /// Stored programs, ordered by pid.
    pub programs: Vec<ProgramRecord>,
    /// The replay window: `(seq, serialized wire response)` pairs, oldest
    /// first, bounded at [`REPLAY_WINDOW`].
    pub replay: Vec<(u64, String)>,
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
}

/// How one journaled request settled (the pure-data twin of
/// [`Billing`], carrying the error message `settle` reads off the
/// response body).
#[derive(Debug, Clone, PartialEq)]
pub enum BillingRecord {
    /// Executed and billed.
    Ok {
        /// Exact hardware cycles billed.
        cycles: u64,
        /// Exact energy billed (femtojoules).
        energy_fj: f64,
    },
    /// Failed; `message` feeds the ran program's `last_status`.
    Error {
        /// The error message of the failed request.
        message: String,
    },
    /// No accounting (replays, session management).
    None,
}

/// One journaled state mutation. Events exist only for **durable**
/// sessions — ephemeral ones die with their connection by design.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
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
    /// One request settled against the session — the journal twin of
    /// `SessionInner::settle`, carrying exactly its arguments.
    Exec {
        /// The session token.
        token: String,
        /// The billing applied.
        billing: BillingRecord,
        /// The stored program the request ran, if any (run history).
        ran_pid: Option<u64>,
        /// The claimed idempotency seq, if the request was stamped.
        seq: Option<u64>,
        /// The serialized response recorded for replay (`seq` set only).
        response: Option<String>,
        /// Wall-clock milliseconds (rate-window reconstruction).
        unix_ms: u64,
    },
}

/// Wall clock as unix milliseconds.
pub(crate) fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The pure-data registry a snapshot stores and replay reconstructs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistryRecord {
    /// Live sessions by token (insertion order is not meaningful).
    pub sessions: Vec<SessionRecord>,
    /// Swept tokens still answering `session_expired`, oldest first.
    pub expired: Vec<String>,
    /// The registry's token-minting counter.
    pub mint_counter: u64,
}

/// Applies one journal event to the pure-data registry — the replay twin
/// of the live mutation paths. `Exec` mirrors `SessionInner::settle`
/// field by field; the concurrency models assert the two stay in lock
/// step.
pub fn apply_event(reg: &mut RegistryRecord, ev: &Event) {
    let find = |sessions: &mut Vec<SessionRecord>, token: &str| -> Option<usize> {
        sessions.iter().position(|r| r.token == token)
    };
    match ev {
        Event::Open { token, record } => {
            if find(&mut reg.sessions, token).is_none() {
                reg.sessions.push((**record).clone());
            }
            reg.mint_counter = reg.mint_counter.wrapping_add(1);
        }
        Event::Attach { token } => {
            if let Some(i) = find(&mut reg.sessions, token) {
                reg.sessions[i].detached_since_ms = None;
            }
        }
        Event::Detach { token, unix_ms } => {
            if let Some(i) = find(&mut reg.sessions, token) {
                // The TTL clock starts at the *first* detach; replay keys
                // the elapsed time off the event's wall clock later, in
                // `Recovered::materialize`.
                if reg.sessions[i].detached_since_ms.is_none() {
                    reg.sessions[i].detached_since_ms = Some(*unix_ms);
                }
            }
        }
        Event::Expire { token } => {
            if let Some(i) = find(&mut reg.sessions, token) {
                reg.sessions.remove(i);
            }
            reg.expired.push(token.clone());
        }
        Event::Model {
            token,
            precision_bits,
            prototypes,
        } => {
            if let Some(i) = find(&mut reg.sessions, token) {
                reg.sessions[i].model = Some((*precision_bits, prototypes.clone()));
            }
        }
        Event::Store {
            token,
            pid,
            name,
            instrs,
        } => {
            if let Some(i) = find(&mut reg.sessions, token) {
                let rec = &mut reg.sessions[i];
                rec.programs.push(ProgramRecord {
                    pid: *pid,
                    name: name.clone(),
                    instrs: instrs.clone(),
                    runs: 0,
                    errors: 0,
                    total_cycles: 0,
                    total_energy_fj: 0.0,
                    last_status: None,
                });
                rec.next_pid = rec.next_pid.max(pid + 1);
            }
        }
        Event::Delete { token, pid } => {
            if let Some(i) = find(&mut reg.sessions, token) {
                reg.sessions[i].programs.retain(|p| p.pid != *pid);
            }
        }
        Event::Exec {
            token,
            billing,
            ran_pid,
            seq,
            response,
            unix_ms,
        } => {
            let Some(i) = find(&mut reg.sessions, token) else {
                return;
            };
            let rec = &mut reg.sessions[i];
            match billing {
                BillingRecord::Ok { cycles, energy_fj } => {
                    rec.stats.record_ok(*cycles, *energy_fj);
                    match &mut rec.rate {
                        Some((start, rc, re)) if unix_ms.saturating_sub(*start) < 1000 => {
                            *rc += cycles;
                            *re += energy_fj;
                        }
                        slot => *slot = Some((*unix_ms, *cycles, *energy_fj)),
                    }
                    if let Some(p) =
                        ran_pid.and_then(|pid| rec.programs.iter_mut().find(|p| p.pid == pid))
                    {
                        p.runs += 1;
                        p.total_cycles += cycles;
                        p.total_energy_fj += energy_fj;
                        p.last_status = Some(RunStatus::Success);
                    }
                }
                BillingRecord::Error { message } => {
                    rec.stats.record_error();
                    if let Some(p) =
                        ran_pid.and_then(|pid| rec.programs.iter_mut().find(|p| p.pid == pid))
                    {
                        p.errors += 1;
                        p.last_status = Some(RunStatus::Error {
                            message: message.clone(),
                        });
                    }
                }
                BillingRecord::None => {}
            }
            if let Some(seq) = seq {
                if rec.last_seq.is_none_or(|last| *seq > last) {
                    rec.last_seq = Some(*seq);
                }
                if rec.replay.len() >= REPLAY_WINDOW {
                    rec.replay.remove(0);
                }
                rec.replay
                    .push((*seq, response.clone().unwrap_or_default()));
            }
        }
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
        reg.expired.push(
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
// Capturing live sessions into records
// ---------------------------------------------------------------------------

/// Captures one live session into its pure-data record. `now` /
/// `now_unix_ms` are the same moment on both clocks, so monotonic ages
/// convert to absolute wall times consistently across one capture.
pub(crate) fn capture_session(
    token: &str,
    inner: &SessionInner,
    now: Instant,
    now_unix_ms: u64,
) -> SessionRecord {
    let (rate_age, rate_cycles, rate_energy) = inner.rate.export(now);
    let rate = (rate_cycles > 0 || rate_energy != 0.0).then(|| {
        (
            now_unix_ms.saturating_sub(rate_age.as_millis() as u64),
            rate_cycles,
            rate_energy,
        )
    });
    let mut programs: Vec<ProgramRecord> = inner
        .stored
        .iter()
        .map(|(&pid, e)| ProgramRecord {
            pid,
            name: e.name.clone(),
            instrs: e.source.clone(),
            runs: e.runs,
            errors: e.errors,
            total_cycles: e.total_cycles,
            total_energy_fj: e.total_energy_fj,
            last_status: e.last_status.clone(),
        })
        .collect();
    programs.sort_by_key(|p| p.pid);
    SessionRecord {
        token: token.to_string(),
        stats: inner.stats,
        rate,
        model: inner
            .model
            .as_ref()
            .map(|m| (m.precision.bits() as u32, m.prototypes_q.clone())),
        next_pid: inner.next_pid,
        last_seq: inner.last_seq(),
        detached_since_ms: inner
            .detached_for(now)
            .map(|d| now_unix_ms.saturating_sub(d.as_millis() as u64)),
        programs,
        replay: inner
            .replay_entries()
            .map(|(seq, body)| {
                let line = Response {
                    id: 0,
                    body: body.clone(),
                }
                .to_json_line();
                (*seq, line)
            })
            .collect(),
    }
}

/// Captures the whole registry. Callers hold the persist guard, so no
/// journaled mutation can interleave with the capture.
fn capture_registry(registry: &SessionRegistry, now: Instant, now_unix_ms: u64) -> RegistryRecord {
    let (sessions, expired, mint_counter) = registry.snapshot_parts();
    let mut records: Vec<SessionRecord> = sessions
        .iter()
        .filter_map(|s| {
            let token = s.token.as_deref()?;
            let inner = s.inner.lock();
            Some(capture_session(token, &inner, now, now_unix_ms))
        })
        .collect();
    records.sort_by(|a, b| a.token.cmp(&b.token));
    RegistryRecord {
        sessions: records,
        expired,
        mint_counter,
    }
}

// ---------------------------------------------------------------------------
// Materializing records back into live sessions
// ---------------------------------------------------------------------------

/// Rebuilds one live session from its record: programs and the model are
/// recompiled from their journaled source streams (on a scratch bank,
/// billing nothing — the original bills are already in the account), the
/// replay window is re-parsed, and the TTL clock restarts at `now` with
/// the pre-crash detachment credited. Artifacts that no longer compile
/// (e.g. the server was restarted with a different macro geometry) are
/// dropped with a note rather than failing the whole recovery; `notes`
/// collects one line per dropped artifact.
pub(crate) fn materialize_session(
    rec: &SessionRecord,
    bank: &mut MacroBank,
    params: &EnergyParams,
    now: Instant,
    notes: &mut Vec<String>,
) -> SessionInner {
    let config = *bank.macro_at(0).config();
    let mut stored = HashMap::new();
    let mut names = HashMap::new();
    for p in &rec.programs {
        match Program::new(p.instrs.clone()).compile(&config) {
            Ok(compiled) => {
                if let Some(name) = &p.name {
                    names.insert(name.clone(), p.pid);
                }
                stored.insert(
                    p.pid,
                    StoredEntry {
                        compiled: Arc::new(compiled),
                        name: p.name.clone(),
                        source: p.instrs.clone(),
                        runs: p.runs,
                        errors: p.errors,
                        total_cycles: p.total_cycles,
                        total_energy_fj: p.total_energy_fj,
                        last_status: p.last_status.clone(),
                    },
                );
            }
            Err(e) => notes.push(format!(
                "session {}: dropped stored program {} (no longer compiles: {e})",
                rec.token, p.pid
            )),
        }
    }
    let model = rec.model.as_ref().and_then(|(bits, prototypes)| {
        let precision = match bpimc_core::Precision::try_from_bits(*bits as usize) {
            Ok(p) => p,
            Err(e) => {
                notes.push(format!("session {}: dropped model ({e})", rec.token));
                return None;
            }
        };
        match crate::server::build_model(bank, params, precision, prototypes.clone()) {
            Ok((model, _, _)) => Some(Arc::new(model)),
            Err(e) => {
                notes.push(format!(
                    "session {}: dropped model (no longer builds: {e})",
                    rec.token
                ));
                None
            }
        }
    });
    let replay = rec
        .replay
        .iter()
        .filter_map(|(seq, line)| match Response::parse(line) {
            Ok(resp) => Some((*seq, resp.body)),
            Err(e) => {
                notes.push(format!(
                    "session {}: dropped replay entry for seq {seq} ({e})",
                    rec.token
                ));
                None
            }
        })
        .collect();
    let rate = match &rec.rate {
        Some((start_ms, cycles, energy_fj)) => {
            let age = Duration::from_millis(unix_ms_now().saturating_sub(*start_ms));
            RateWindow::restore(age, *cycles, *energy_fj, now)
        }
        None => RateWindow::new(),
    };
    SessionInner::restore(
        rec.stats,
        rate,
        model,
        stored,
        names,
        rec.next_pid,
        rec.last_seq,
        replay,
        Duration::from_millis(
            rec.detached_since_ms
                .map(|since| unix_ms_now().saturating_sub(since))
                .unwrap_or(0),
        ),
        now,
    )
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
pub(crate) struct PersistState {
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
    pub registry: RegistryRecord,
    /// Human-readable one-line description of the recovery path.
    pub path: String,
    /// Corruption found in the replayed journal tail, if any (already
    /// truncated away).
    pub corruption: Option<Corruption>,
    /// `(journal generation, byte offset)` where frame decoding failed —
    /// boot truncates that file there so the bad tail is not re-scanned.
    truncate: Option<(u64, u64)>,
}

impl Persist {
    /// Opens (or creates) a state directory: runs recovery, truncates any
    /// torn journal tail, clears the clean-shutdown marker and opens a
    /// fresh journal generation for the new process lifetime.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory or its files cannot be
    /// created/read. Corrupt records are *not* errors — recovery stops at
    /// them by design.
    pub(crate) fn open(config: &StateConfig) -> std::io::Result<(Self, Recovery)> {
        std::fs::create_dir_all(&config.dir)?;
        let scan = scan_state_dir(&config.dir)?;
        let recovery = recover_from_scan(&scan);

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

    /// Takes the journal lock. Callers append with [`Persist::append`]
    /// while holding it, around the live mutation the event describes.
    pub(crate) fn begin(&self) -> MutexGuard<'_, PersistState> {
        self.state.lock()
    }

    /// Appends one event frame and applies the fsync policy. I/O errors
    /// are reported to stderr, not propagated: a full disk degrades
    /// durability, never availability.
    pub(crate) fn append(&self, st: &mut PersistState, ev: &Event) {
        let payload = event_json(ev).to_string();
        if let Err(e) = write_frame(&mut st.journal, payload.as_bytes()) {
            eprintln!("bpimc-server: journal append failed: {e}");
            return;
        }
        st.records += 1;
        st.dirty = true;
        match self.fsync {
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

    /// The sweeper tick: flushes an overdue interval-policy sync and
    /// writes a compacting snapshot when either trigger fires.
    pub(crate) fn tick(&self, registry: &SessionRegistry) {
        let mut st = self.begin();
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
        let mut st = self.begin();
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
        let reg = capture_registry(registry, Instant::now(), unix_ms_now());
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
    /// Journal generations present, ascending.
    journals: Vec<JournalScan>,
    /// The clean-shutdown marker's generation, if present and readable.
    clean_marker: Option<u64>,
    /// Highest generation seen across snapshots and journals.
    max_gen: Option<u64>,
}

fn scan_state_dir(dir: &Path) -> std::io::Result<StateScan> {
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
        .collect();

    let mut journals = Vec::new();
    for g in journal_gens {
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

    let clean_marker = std::fs::read_to_string(marker_path(dir))
        .ok()
        .and_then(|s| s.trim().parse().ok());

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
                corruption: None,
                truncate: None,
            };
        }
    }

    let mut replayed = 0usize;
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
    let scan = scan_state_dir(dir)?;
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
    let chosen_snapshot = scan
        .snapshots
        .iter()
        .rev()
        .find_map(|(g, parsed)| parsed.is_ok().then_some(*g));
    let warm = matches!(
        (scan.clean_marker, chosen_snapshot),
        (Some(m), Some(c)) if m == c
    );
    let replayed_events = if warm {
        0
    } else {
        scan.journals
            .iter()
            .filter(|(g, _, _)| chosen_snapshot.is_none_or(|base| *g >= base))
            .map(|(_, events, _)| events.iter().filter(|e| e.is_ok()).count() as u64)
            .sum()
    };
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
        chosen_snapshot,
        clean_marker: scan.clean_marker,
        warm,
        replayed_events,
        sessions,
        corruptions,
    })
}

// ---------------------------------------------------------------------------
// Journal-hook helpers (called from the dispatcher / control handlers)
// ---------------------------------------------------------------------------

/// Builds the `Exec` event for one settle, mirroring `settle`'s inputs:
/// the billing, the ran program, and — when the outcome consumed a seq —
/// the serialized response the replay window records.
pub(crate) fn exec_event(
    token: &str,
    billing: &Billing,
    ran_pid: Option<u64>,
    seq: Option<u64>,
    body: &ResponseBody,
) -> Event {
    let billing = match billing {
        Billing::Ok { cycles, energy_fj } => BillingRecord::Ok {
            cycles: *cycles,
            energy_fj: *energy_fj,
        },
        Billing::Error => BillingRecord::Error {
            message: match body {
                ResponseBody::Error(e) => e.message.clone(),
                _ => String::new(),
            },
        },
        Billing::None => BillingRecord::None,
    };
    let response = seq.map(|_| {
        Response {
            id: 0,
            body: body.clone(),
        }
        .to_json_line()
    });
    Event::Exec {
        token: token.to_string(),
        billing,
        ran_pid,
        seq,
        response,
        unix_ms: unix_ms_now(),
    }
}

/// Captures a just-opened durable session into its `Open` event. Locks
/// the session's inner state; call with the persist guard held and no
/// session lock held.
pub(crate) fn open_event(session: &Session) -> Option<Event> {
    let token = session.token.as_deref()?;
    let inner = session.inner.lock();
    Some(Event::Open {
        token: token.to_string(),
        record: Box::new(capture_session(
            token,
            &inner,
            Instant::now(),
            unix_ms_now(),
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_core::ErrorBody;

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

    #[test]
    fn events_roundtrip_through_their_wire_form() {
        let events = vec![
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
        ];
        for ev in events {
            let back =
                event_from_json(&Json::parse(&event_json(&ev).to_string()).unwrap()).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn apply_event_mirrors_settle_semantics() {
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

    #[test]
    fn exec_event_extracts_error_messages_like_settle_does() {
        let body = ResponseBody::Error(ErrorBody::generic("array on fire"));
        let ev = exec_event("t", &Billing::Error, Some(1), Some(3), &body);
        match ev {
            Event::Exec {
                billing: BillingRecord::Error { message },
                seq: Some(3),
                response: Some(resp),
                ..
            } => {
                assert_eq!(message, "array on fire");
                let parsed = Response::parse(&resp).expect("recorded responses re-parse");
                assert!(matches!(parsed.body, ResponseBody::Error(_)));
            }
            other => panic!("wrong event shape: {other:?}"),
        }
    }
}
