//! The line-delimited JSON wire protocol of the compute service.
//!
//! Every request and response is exactly one JSON object on one line. The
//! vocabulary maps directly onto the macro's ISA (the paper's Table I) plus
//! the session-level verbs a multi-client service needs.
//!
//! # Requests
//!
//! | `op` | fields | meaning |
//! |---|---|---|
//! | `ping` | — | liveness probe |
//! | `dot` | `precision`, `x`, `w` | in-memory dot product `Σ x[i]·w[i]` |
//! | `add` / `sub` / `mult` | `precision`, `a`, `b` | lane-wise arithmetic |
//! | `and` / `or` / `xor` / `nand` / `nor` / `xnor` | `precision`, `a`, `b` | lane-wise logic |
//! | `load_model` | `precision`, `prototypes` | store quantized class prototypes in the session |
//! | `classify` | `x` | nearest-prototype class of a quantized sample |
//! | `exec_program` | `instrs` | run a whole [`Program`](crate::prog::Program) in one round trip |
//! | `store_program` | `instrs`, `name?` | validate + compile once into the session's stored-program registry |
//! | `run_stored` | `pid`\|`name`, `inputs?` | run a stored program, optionally binding fresh write values |
//! | `list_programs` | — | the session's stored-program registry with per-entry run history |
//! | `delete_program` | `pid`\|`name` | drop one stored program from the registry |
//! | `lint_program` | `instrs` | static analysis only: answer the program's [`Diagnostic`]s without executing |
//! | `open_session` | — | mint a durable session keyed by an unguessable token |
//! | `resume_session` | `token` | re-attach a later connection to a durable session |
//! | `stats` | — | the session's activity account so far |
//! | `shutdown` | — | ask the server to drain and stop |
//!
//! `precision` is the lane width in bits (2/4/8/16/32); vectors are arrays
//! of non-negative integers that must fit the precision (`mult` operands
//! occupy `2P`-bit product lanes and results may use all 64 bits at P32).
//! Every request carries a client-chosen `id` echoed in its response.
//!
//! An `exec_program` request carries one JSON object per instruction, each
//! tagged with its name under `"i"` and naming virtual row registers by
//! index (see [`crate::prog`]):
//!
//! ```text
//! {"i":"write","dst":0,"precision":8,"values":[1,2]}
//! {"i":"write_mult","dst":1,"precision":8,"values":[3,4]}
//! {"i":"read","src":0,"precision":8,"n":2}
//! {"i":"read_products","src":2,"precision":8,"n":2}
//! {"i":"and","a":0,"b":1,"dst":2}          (or/xor/nand/nor/xnor)
//! {"i":"not","src":0,"dst":1}              (copy likewise)
//! {"i":"shl","src":0,"dst":1,"precision":8}
//! {"i":"add","a":0,"b":1,"dst":2,"precision":8}   (sub/add_shift/mult likewise)
//! {"i":"reduce_add","srcs":[0,1,2],"dst":3,"precision":8}
//! ```
//!
//! # Responses
//!
//! `{"id":N,"ok":true,"kind":K,"result":…}` on success, with `kind` one of
//! `pong`, `scalar`, `words`, `class`, `ok`, `stats`, `program`, `stored`,
//! `diagnostics`, `session`, `programs`; `{"id":N,"ok":false,"error":"…"}`
//! on failure. A
//! response's `id` matches its request; per connection, responses arrive
//! in request order.
//!
//! A failure may carry a machine-readable class beyond the human-readable
//! `error` string ([`ErrorBody`]): `"kind"` is one of `limit_exceeded`
//! (plus `"limit"` naming which per-session limit — `cycle_rate`,
//! `energy_rate`, `inflight`, `program_length`, `stored_programs`),
//! `overloaded` (the server is shedding load), `deadline_exceeded`
//! (the request's `timeout_ms` expired in queue or mid-execution),
//! `invalid_program` (a submitted instruction stream failed validation;
//! `"code"` carries the stable [`ProgError`] code such as `E002` and
//! `"index"` the offending instruction's position when one is known),
//! `session_expired` (the presented session token was valid once but its
//! session has been garbage-collected past the server's TTL), or
//! `bad_token` (the presented token never named a session here — forged,
//! truncated, or from another server). `limit_exceeded` and `overloaded`
//! errors may add `"retry_after_ms"`, a hint for how long to back off
//! before retrying. A failure without a `"kind"` field is a generic
//! request error (bad argument, ISA error, unknown stored id, …) —
//! retrying it unchanged will fail again.
//!
//! Any request may carry an optional `timeout_ms` field: a deadline,
//! relative to the server reading the line, after which the server may
//! answer `deadline_exceeded` instead of executing.
//!
//! # Sessions, tokens and idempotent retries
//!
//! By default a connection is an *ephemeral* session: its state dies with
//! the socket. `open_session` upgrades it to a durable one, answering
//! `{"kind":"session","result":{"token":T,…}}` with an unguessable token.
//! After a disconnect, a new connection presents the token via
//! `resume_session` and gets the whole session back — model, stored
//! programs, accounting totals, in-window rate budgets. At most one
//! connection is attached to a token at a time; a second `resume_session`
//! of a live token is refused (generic error with a `retry_after_ms`
//! hint) until the holder detaches. Detached sessions linger for the
//! server's TTL, then are swept; resuming after that answers
//! `session_expired`, while a token the server never minted answers
//! `bad_token`.
//!
//! Requests on a durable session may carry a `seq` field — a strictly
//! increasing per-session sequence number. The server remembers the last
//! `seq` it executed (plus a bounded window of recent responses), so a
//! client that resends a request after a mid-request drop gets the
//! original response replayed instead of a second execution: seq-stamped
//! ops are retry-safe end to end, never double-executed or double-billed.
//!
//! A `program` result reports the outputs of the program's read
//! instructions plus exact per-instruction accounting:
//! `{"outputs":[[…]…],"cycles":[…],"energy_fj":[…]}` (one `cycles` /
//! `energy_fj` entry per submitted instruction; an instruction fused away
//! by the lowering pass bills 0).
//!
//! A `store_program` request validates, lowers and compiles its
//! instruction stream **once** against the server's macro configuration
//! and answers `{"kind":"stored","result":{"pid":P,"cycles":C,"writes":W}}`
//! with a session-local id. When the linter has something to say the
//! result adds a `"diagnostics"` array (one
//! `{"code","severity","start","end","message"}` object per finding, see
//! [`Diagnostic`]); a `lint_program` request answers the same array under
//! `{"kind":"diagnostics","result":[…]}` without storing or executing
//! anything. Subsequent `run_stored` requests
//! (`{"op":"run_stored","pid":P,"inputs":[[…],null,…]}`) skip parsing the
//! instruction stream, validation and lowering entirely and answer with
//! the same `program` result shape; `inputs` optionally rebinds the
//! program's write values — one entry per `write`/`write_mult` in
//! submitted order, `null` keeping the stored values, each bound vector
//! exactly as long as the stored one. Stored ids are private to their
//! session; on an ephemeral session they die with the connection, on a
//! durable one they survive reconnects until deleted or the session is
//! swept.
//!
//! `store_program` may also carry a `"name"`: a session-unique registry
//! name under which `run_stored` and `delete_program` can address the
//! entry instead of by pid. `list_programs` answers the registry under
//! `{"kind":"programs","result":[…]}`, one object per entry with its
//! compile-time facts plus run history: `{"pid","name"?,"cycles",
//! "writes","runs","errors","total_cycles","total_energy_fj",
//! "last_status"?,"last_error"?}` (`last_status` is `"success"` or
//! `"error"`, absent until the first run).
//!
//! # Examples
//!
//! ```
//! use bpimc_core::wire::{Request, RequestBody, Response, ResponseBody};
//! use bpimc_core::Precision;
//!
//! let req = Request {
//!     id: 7,
//!     timeout_ms: None,
//!     seq: None,
//!     body: RequestBody::Dot {
//!         precision: Precision::P8,
//!         x: vec![1, 2, 3],
//!         w: vec![4, 5, 6],
//!     },
//! };
//! let line = req.to_json_line();
//! assert_eq!(Request::parse(&line).unwrap(), req);
//!
//! let resp = Response {
//!     id: 7,
//!     body: ResponseBody::Scalar(32),
//! };
//! assert_eq!(Response::parse(&resp.to_json_line()).unwrap(), resp);
//! ```

use crate::activity::SessionActivity;
use crate::json::{self, Json, JsonError, ObjWriter, Parser, Scalar};
use crate::prog::analysis::{Diagnostic, Severity};
use crate::prog::{Instr, ProgError, Reg};
use bpimc_periph::{LogicOp, Precision};
use std::borrow::Cow;
use std::fmt;

#[cfg(test)]
mod reference;

/// Lane-wise operations addressable over the wire (a subset of the ISA's
/// `OpKind` that takes two packed operand vectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOp {
    /// Lane-wise addition (wrapping at the lane width).
    Add,
    /// Lane-wise subtraction (two's complement, wrapping).
    Sub,
    /// Lane-wise multiplication into `2P`-bit product lanes.
    Mult,
    /// Lane-wise bitwise logic.
    Logic(LogicOp),
}

impl LaneOp {
    /// The wire name of this op.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            LaneOp::Add => "add",
            LaneOp::Sub => "sub",
            LaneOp::Mult => "mult",
            LaneOp::Logic(LogicOp::And) => "and",
            LaneOp::Logic(LogicOp::Or) => "or",
            LaneOp::Logic(LogicOp::Xor) => "xor",
            LaneOp::Logic(LogicOp::Nand) => "nand",
            LaneOp::Logic(LogicOp::Nor) => "nor",
            LaneOp::Logic(LogicOp::Xnor) => "xnor",
        }
    }

    /// The op for a wire name, if any.
    pub(crate) fn from_name(name: &str) -> Option<LaneOp> {
        Some(match name {
            "add" => LaneOp::Add,
            "sub" => LaneOp::Sub,
            "mult" => LaneOp::Mult,
            "and" => LaneOp::Logic(LogicOp::And),
            "or" => LaneOp::Logic(LogicOp::Or),
            "xor" => LaneOp::Logic(LogicOp::Xor),
            "nand" => LaneOp::Logic(LogicOp::Nand),
            "nor" => LaneOp::Logic(LogicOp::Nor),
            "xnor" => LaneOp::Logic(LogicOp::Xnor),
            _ => return None,
        })
    }
}

/// How `run_stored` / `delete_program` address a stored program: by the
/// session-local id `store_program` returned, or by the registry name it
/// was stored under. On the wire exactly one of `"pid"` / `"name"` is
/// present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredTarget {
    /// The id `store_program` returned.
    Pid(u64),
    /// The registry name the program was stored under.
    Name(String),
}

impl fmt::Display for StoredTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoredTarget::Pid(pid) => write!(f, "stored program {pid}"),
            StoredTarget::Name(name) => write!(f, "stored program '{name}'"),
        }
    }
}

/// What a request asks the service to do.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness probe.
    Ping,
    /// In-memory dot product of two equal-length quantized vectors.
    Dot {
        /// Lane width of the operands.
        precision: Precision,
        /// First vector.
        x: Vec<u64>,
        /// Second vector.
        w: Vec<u64>,
    },
    /// A lane-wise two-operand op over packed vectors.
    Lanes {
        /// Which op.
        op: LaneOp,
        /// Lane width.
        precision: Precision,
        /// First operand vector.
        a: Vec<u64>,
        /// Second operand vector.
        b: Vec<u64>,
    },
    /// Stores quantized class prototypes in the session for `classify`.
    LoadModel {
        /// Lane width the prototypes are quantized to.
        precision: Precision,
        /// One quantized weight vector per class.
        prototypes: Vec<Vec<u64>>,
    },
    /// Classifies one quantized sample against the session's model.
    Classify {
        /// The quantized sample.
        x: Vec<u64>,
    },
    /// Runs a whole typed instruction stream ([`crate::prog::Program`])
    /// in one round trip.
    ExecProgram {
        /// The program's instructions, in order.
        instrs: Vec<Instr>,
    },
    /// Validates and compiles a program into the session's stored-program
    /// registry — the validate-once half of the stored-program fast path.
    StoreProgram {
        /// The program's instructions, in order.
        instrs: Vec<Instr>,
        /// Optional session-unique registry name; `run_stored` and
        /// `delete_program` can then address the entry by name.
        name: Option<String>,
    },
    /// Runs a stored program by id or registry name, optionally binding
    /// fresh values to its `write`/`write_mult` instructions.
    RunStored {
        /// Which stored program to run.
        target: StoredTarget,
        /// One entry per write instruction in submitted order (`None` /
        /// JSON `null` keeps the stored values); empty runs all-stored.
        inputs: Vec<Option<Vec<u64>>>,
    },
    /// Lists the session's stored-program registry, one [`ProgramEntry`]
    /// per stored program with compile-time facts and run history.
    ListPrograms,
    /// Deletes one stored program from the session's registry.
    DeleteProgram {
        /// Which stored program to delete.
        target: StoredTarget,
    },
    /// Mints a durable session keyed by an unguessable token; the reply
    /// is `kind:"session"` carrying the token to present on resume.
    OpenSession,
    /// Re-attaches this connection to the durable session a token names,
    /// restoring its model, stored programs, accounting and rate budgets.
    ResumeSession {
        /// The token `open_session` returned.
        token: String,
    },
    /// Statically analyzes a program — validation plus lint — and answers
    /// its diagnostics without storing or executing anything.
    LintProgram {
        /// The program's instructions, in order.
        instrs: Vec<Instr>,
    },
    /// The session's activity account (state *before* this request).
    Stats,
    /// Asks the server to finish queued work and shut down.
    Shutdown,
}

/// One request: a client-chosen id plus the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the response.
    pub id: u64,
    /// Optional deadline, milliseconds from the server reading the line.
    /// Past it the server may answer `deadline_exceeded` instead of
    /// executing.
    pub timeout_ms: Option<u64>,
    /// Optional per-session sequence number (strictly increasing). On a
    /// durable session the server executes each `seq` at most once and
    /// replays the recorded response for a resent one, making the request
    /// retry-safe across reconnects. Ignored on ephemeral sessions.
    pub seq: Option<u64>,
    /// What to do.
    pub body: RequestBody,
}

/// What a successful request returns.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// `ping` reply.
    Pong,
    /// A scalar result (`dot`).
    Scalar(u64),
    /// A vector result (lane-wise ops).
    Words(Vec<u64>),
    /// A predicted class index (`classify`).
    Class(usize),
    /// Acknowledgement with no payload (`load_model`, `shutdown`).
    Ok,
    /// The session's account (`stats`).
    Stats(SessionActivity),
    /// An executed program's outputs and per-instruction accounting
    /// (`exec_program`).
    Program(ProgramReport),
    /// A stored program's id and compile-time facts (`store_program`).
    Stored(StoredMeta),
    /// A linted program's findings (`lint_program`).
    Diagnostics(Vec<Diagnostic>),
    /// A durable session's token and restored state facts
    /// (`open_session`, `resume_session`).
    Session(SessionInfo),
    /// The session's stored-program registry (`list_programs`).
    Programs(Vec<ProgramEntry>),
    /// The request failed; message plus optional machine-readable class.
    Error(ErrorBody),
}

/// What `open_session` / `resume_session` return: the durable session's
/// token plus a snapshot of the state the token now commands.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    /// The unguessable token that names the session; present it via
    /// `resume_session` on a later connection to get the session back.
    pub token: String,
    /// The session's accounting totals at this moment — fresh zeros from
    /// `open_session`, the restored account from `resume_session`.
    pub stats: SessionActivity,
    /// How many compiled programs the session's registry holds.
    pub stored_programs: u64,
    /// The highest request `seq` the session has executed, if any — a
    /// resuming client continues its idempotency sequence from the next
    /// value.
    pub last_seq: Option<u64>,
}

/// Outcome of a stored program's most recent run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The last run completed and was billed.
    Success,
    /// The last run failed; the message says why.
    Error {
        /// The error message of the failed run.
        message: String,
    },
}

impl RunStatus {}

/// One stored program in the session's registry (`list_programs`):
/// compile-time facts plus cumulative run history.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramEntry {
    /// Session-local stored-program id.
    pub pid: u64,
    /// Registry name, when the program was stored with one.
    pub name: Option<String>,
    /// Predicted hardware cycles of one run (the static cost model).
    pub cycles: u64,
    /// Input slots a `run_stored` binding covers.
    pub writes: u64,
    /// Completed `run_stored` executions of this entry.
    pub runs: u64,
    /// Failed `run_stored` attempts at this entry.
    pub errors: u64,
    /// Hardware cycles billed across every run of this entry.
    pub total_cycles: u64,
    /// Energy billed across every run of this entry, femtojoules.
    pub total_energy_fj: f64,
    /// Outcome of the most recent run (`None` until the first).
    pub last_status: Option<RunStatus>,
}

/// Machine-readable class of a failed request.
///
/// `Generic` failures (bad argument, ISA error, unknown stored id, …)
/// carry no `"kind"` field on the wire; retrying them unchanged fails
/// again. The other kinds are transient conditions a client can react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorKind {
    /// A request error with no more specific class.
    #[default]
    Generic,
    /// A per-session limit was exceeded; [`ErrorBody::limit`] says which
    /// and [`ErrorBody::retry_after_ms`] hints when the budget refills.
    LimitExceeded,
    /// The server is shedding load; back off and retry.
    Overloaded,
    /// The request's `timeout_ms` expired in queue or mid-execution.
    DeadlineExceeded,
    /// A submitted instruction stream failed validation;
    /// [`ErrorBody::code`] carries the stable [`ProgError`] code and
    /// [`ErrorBody::index`] the offending instruction when known.
    InvalidProgram,
    /// The presented token once named a session, but it sat detached past
    /// the server's TTL and was garbage-collected. The state is gone;
    /// open a fresh session.
    SessionExpired,
    /// The presented token never named a session on this server —
    /// forged, truncated, or minted elsewhere.
    BadToken,
}

impl ErrorKind {
    /// The wire name of this kind (`None` for `Generic`, which is encoded
    /// by omitting the field).
    pub(crate) fn name(&self) -> Option<&'static str> {
        match self {
            ErrorKind::Generic => None,
            ErrorKind::LimitExceeded => Some("limit_exceeded"),
            ErrorKind::Overloaded => Some("overloaded"),
            ErrorKind::DeadlineExceeded => Some("deadline_exceeded"),
            ErrorKind::InvalidProgram => Some("invalid_program"),
            ErrorKind::SessionExpired => Some("session_expired"),
            ErrorKind::BadToken => Some("bad_token"),
        }
    }

    /// The kind for a wire name, if any.
    pub(crate) fn from_name(name: &str) -> Option<ErrorKind> {
        Some(match name {
            "limit_exceeded" => ErrorKind::LimitExceeded,
            "overloaded" => ErrorKind::Overloaded,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "invalid_program" => ErrorKind::InvalidProgram,
            "session_expired" => ErrorKind::SessionExpired,
            "bad_token" => ErrorKind::BadToken,
            _ => return None,
        })
    }
}

/// Which per-session limit a `limit_exceeded` error tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// The session's hardware-cycles-per-second budget.
    CycleRate,
    /// The session's energy-per-second budget.
    EnergyRate,
    /// Too many requests in flight on the connection at once.
    Inflight,
    /// A submitted program has more instructions than allowed.
    ProgramLength,
    /// The session's stored-program cache is full.
    StoredPrograms,
    /// The server's durable-session registry is full.
    Sessions,
    /// The server-wide cap on stored programs across every durable
    /// session (orphans included) is full.
    RegistryPrograms,
}

impl LimitKind {
    /// The wire name of this limit.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            LimitKind::CycleRate => "cycle_rate",
            LimitKind::EnergyRate => "energy_rate",
            LimitKind::Inflight => "inflight",
            LimitKind::ProgramLength => "program_length",
            LimitKind::StoredPrograms => "stored_programs",
            LimitKind::Sessions => "sessions",
            LimitKind::RegistryPrograms => "registry_programs",
        }
    }

    /// The limit for a wire name, if any.
    pub(crate) fn from_name(name: &str) -> Option<LimitKind> {
        Some(match name {
            "cycle_rate" => LimitKind::CycleRate,
            "energy_rate" => LimitKind::EnergyRate,
            "inflight" => LimitKind::Inflight,
            "program_length" => LimitKind::ProgramLength,
            "stored_programs" => LimitKind::StoredPrograms,
            "sessions" => LimitKind::Sessions,
            "registry_programs" => LimitKind::RegistryPrograms,
            _ => return None,
        })
    }
}

/// A failed request: human-readable message plus optional machine class.
///
/// On the wire: `{"id":N,"ok":false,"error":MSG}` with `"kind"`,
/// `"limit"`, `"retry_after_ms"`, `"code"` and `"index"` added only when
/// set.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    /// Machine-readable class (`Generic` is encoded by omission).
    pub kind: ErrorKind,
    /// Which limit tripped, for `LimitExceeded` errors.
    pub limit: Option<LimitKind>,
    /// Back-off hint in milliseconds, for transient errors.
    pub retry_after_ms: Option<u64>,
    /// Stable [`ProgError`] code (`E001`…), for `InvalidProgram` errors.
    pub code: Option<String>,
    /// Offending instruction index, for `InvalidProgram` errors that
    /// implicate one instruction.
    pub index: Option<u64>,
    /// Human-readable reason.
    pub message: String,
}

impl ErrorBody {
    /// A plain request error with no machine-readable class.
    pub fn generic(message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::Generic,
            limit: None,
            retry_after_ms: None,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// A `limit_exceeded` error naming the limit that tripped.
    pub fn limit(
        limit: LimitKind,
        retry_after_ms: Option<u64>,
        message: impl Into<String>,
    ) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::LimitExceeded,
            limit: Some(limit),
            retry_after_ms,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// An `overloaded` shed with a back-off hint.
    pub fn overloaded(retry_after_ms: Option<u64>, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::Overloaded,
            limit: None,
            retry_after_ms,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// A `deadline_exceeded` error.
    pub fn deadline(message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::DeadlineExceeded,
            limit: None,
            retry_after_ms: None,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// A `session_expired` error: the token was real but its session sat
    /// detached past the TTL and was garbage-collected.
    pub fn session_expired(message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::SessionExpired,
            limit: None,
            retry_after_ms: None,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// A `bad_token` error: the token never named a session here.
    pub fn bad_token(message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::BadToken,
            limit: None,
            retry_after_ms: None,
            code: None,
            index: None,
            message: message.into(),
        }
    }

    /// An `invalid_program` error carrying the stable [`ProgError`] code
    /// and, when one instruction is implicated, its index.
    pub(crate) fn invalid_program(
        code: impl Into<String>,
        index: Option<u64>,
        message: impl Into<String>,
    ) -> ErrorBody {
        ErrorBody {
            kind: ErrorKind::InvalidProgram,
            limit: None,
            retry_after_ms: None,
            code: Some(code.into()),
            index,
            message: message.into(),
        }
    }
}

impl From<&ProgError> for ErrorBody {
    fn from(e: &ProgError) -> ErrorBody {
        ErrorBody::invalid_program(e.code(), e.instr().map(|i| i as u64), e.to_string())
    }
}

impl From<String> for ErrorBody {
    fn from(message: String) -> ErrorBody {
        ErrorBody::generic(message)
    }
}

impl From<&str> for ErrorBody {
    fn from(message: &str) -> ErrorBody {
        ErrorBody::generic(message)
    }
}

impl fmt::Display for ErrorBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// What `store_program` returns: the session-local id to pass to
/// `run_stored`, plus the compiled program's static facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredMeta {
    /// Session-local stored-program id.
    pub pid: u64,
    /// Predicted hardware cycles of one run (the static cost model).
    pub cycles: u64,
    /// `write`/`write_mult` instructions — the input slots a `run_stored`
    /// binding covers, in submitted order.
    pub writes: u64,
    /// Lint findings for the submitted stream (empty when the linter is
    /// silent; omitted from the wire encoding then).
    pub diagnostics: Vec<Diagnostic>,
}

/// One response, tagged with the request's id.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// Result or error.
    pub body: ResponseBody,
}

/// What `exec_program` returns: read outputs plus exact per-instruction
/// accounting, aligned with the submitted instruction list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgramReport {
    /// One vector per `read`/`read_products` instruction, in order.
    pub outputs: Vec<Vec<u64>>,
    /// Hardware cycles billed to each submitted instruction (an
    /// instruction fused away by the lowering pass bills 0).
    pub cycles: Vec<u64>,
    /// Energy billed to each submitted instruction, femtojoules.
    pub energy_fj: Vec<f64>,
}

impl ProgramReport {
    /// Total hardware cycles of the run.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Total energy of the run, femtojoules.
    pub fn total_energy_fj(&self) -> f64 {
        self.energy_fj.iter().sum()
    }
}

/// A malformed wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed message: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Initial capacity of a serialized line: room for the five-op mix's
/// requests and responses, so most lines never reallocate.
const LINE_CAPACITY: usize = 256;

fn wire_err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

fn missing(key: &str) -> WireError {
    wire_err(format!("missing field '{key}'"))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    v.get(key).ok_or_else(|| missing(key))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, WireError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| wire_err(format!("field '{key}' must be a non-negative integer")))
}

fn words_field(v: &Json, key: &str) -> Result<Vec<u64>, WireError> {
    field(v, key)?
        .as_u64_array()
        .ok_or_else(|| wire_err(format!("field '{key}' must be an array of integers")))
}

fn precision_field(v: &Json) -> Result<Precision, WireError> {
    precision(u64_field(v, "precision")?)
}

fn precision(bits: u64) -> Result<Precision, WireError> {
    Precision::try_from_bits(bits as usize)
        .map_err(|_| wire_err(format!("unsupported precision {bits} (use 2/4/8/16/32)")))
}

fn words_json(words: &[u64]) -> Json {
    Json::Arr(words.iter().map(|&w| Json::UInt(w)).collect())
}

fn reg_field(v: &Json, key: &str) -> Result<Reg, WireError> {
    let n = u64_field(v, key)?;
    u16::try_from(n)
        .map(Reg)
        .map_err(|_| wire_err(format!("register '{key}' out of range")))
}

fn regs_field(v: &Json, key: &str) -> Result<Vec<Reg>, WireError> {
    words_field(v, key)?
        .into_iter()
        .map(|n| {
            u16::try_from(n)
                .map(Reg)
                .map_err(|_| wire_err(format!("register in '{key}' out of range")))
        })
        .collect()
}

fn usize_field(v: &Json, key: &str) -> Result<usize, WireError> {
    usize::try_from(u64_field(v, key)?).map_err(|_| wire_err(format!("field '{key}' out of range")))
}

fn reg_json(r: Reg) -> Json {
    Json::UInt(r.0 as u64)
}

/// Serializes one program instruction to its wire object (see the module
/// docs for the vocabulary). Public so the server's persistence layer can
/// journal submitted instruction streams in the exact wire vocabulary —
/// one representation, one parser, whether a program arrives over TCP or
/// out of a recovery journal.
pub fn instr_to_json(instr: &Instr) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    let mut push = |k: &str, v: Json| fields.push((k.to_string(), v));
    match instr {
        Instr::Write {
            dst,
            precision,
            values,
        }
        | Instr::WriteMult {
            dst,
            precision,
            values,
        } => {
            push("i", Json::Str(instr.name().into()));
            push("dst", reg_json(*dst));
            push("precision", Json::UInt(precision.bits() as u64));
            push("values", words_json(values));
        }
        Instr::Read { src, precision, n } | Instr::ReadProducts { src, precision, n } => {
            push("i", Json::Str(instr.name().into()));
            push("src", reg_json(*src));
            push("precision", Json::UInt(precision.bits() as u64));
            push("n", Json::UInt(*n as u64));
        }
        Instr::Logic { a, b, dst, .. } => {
            push("i", Json::Str(instr.name().into()));
            push("a", reg_json(*a));
            push("b", reg_json(*b));
            push("dst", reg_json(*dst));
        }
        Instr::Not { src, dst } | Instr::Copy { src, dst } => {
            push("i", Json::Str(instr.name().into()));
            push("src", reg_json(*src));
            push("dst", reg_json(*dst));
        }
        Instr::Shl {
            src,
            dst,
            precision,
        } => {
            push("i", Json::Str("shl".into()));
            push("src", reg_json(*src));
            push("dst", reg_json(*dst));
            push("precision", Json::UInt(precision.bits() as u64));
        }
        Instr::Add {
            a,
            b,
            dst,
            precision,
        }
        | Instr::AddShift {
            a,
            b,
            dst,
            precision,
        }
        | Instr::Sub {
            a,
            b,
            dst,
            precision,
        }
        | Instr::Mult {
            a,
            b,
            dst,
            precision,
        } => {
            push("i", Json::Str(instr.name().into()));
            push("a", reg_json(*a));
            push("b", reg_json(*b));
            push("dst", reg_json(*dst));
            push("precision", Json::UInt(precision.bits() as u64));
        }
        Instr::ReduceAdd {
            srcs,
            dst,
            precision,
        } => {
            push("i", Json::Str("reduce_add".into()));
            push(
                "srcs",
                Json::Arr(srcs.iter().map(|&r| reg_json(r)).collect()),
            );
            push("dst", reg_json(*dst));
            push("precision", Json::UInt(precision.bits() as u64));
        }
    }
    Json::Obj(fields)
}

/// Parses one program instruction from its wire object — the inverse of
/// [`instr_to_json`], shared by the request parser and the server's
/// recovery path.
///
/// # Errors
///
/// Returns a [`WireError`] naming the missing or malformed field.
pub fn instr_from_json(v: &Json) -> Result<Instr, WireError> {
    let name = field(v, "i")?
        .as_str()
        .ok_or_else(|| wire_err("instruction field 'i' must be a string"))?;
    Ok(match name {
        "write" => Instr::Write {
            dst: reg_field(v, "dst")?,
            precision: precision_field(v)?,
            values: words_field(v, "values")?,
        },
        "write_mult" => Instr::WriteMult {
            dst: reg_field(v, "dst")?,
            precision: precision_field(v)?,
            values: words_field(v, "values")?,
        },
        "read" => Instr::Read {
            src: reg_field(v, "src")?,
            precision: precision_field(v)?,
            n: usize_field(v, "n")?,
        },
        "read_products" => Instr::ReadProducts {
            src: reg_field(v, "src")?,
            precision: precision_field(v)?,
            n: usize_field(v, "n")?,
        },
        "not" => Instr::Not {
            src: reg_field(v, "src")?,
            dst: reg_field(v, "dst")?,
        },
        "copy" => Instr::Copy {
            src: reg_field(v, "src")?,
            dst: reg_field(v, "dst")?,
        },
        "shl" => Instr::Shl {
            src: reg_field(v, "src")?,
            dst: reg_field(v, "dst")?,
            precision: precision_field(v)?,
        },
        "add" => Instr::Add {
            a: reg_field(v, "a")?,
            b: reg_field(v, "b")?,
            dst: reg_field(v, "dst")?,
            precision: precision_field(v)?,
        },
        "add_shift" => Instr::AddShift {
            a: reg_field(v, "a")?,
            b: reg_field(v, "b")?,
            dst: reg_field(v, "dst")?,
            precision: precision_field(v)?,
        },
        "sub" => Instr::Sub {
            a: reg_field(v, "a")?,
            b: reg_field(v, "b")?,
            dst: reg_field(v, "dst")?,
            precision: precision_field(v)?,
        },
        "mult" => Instr::Mult {
            a: reg_field(v, "a")?,
            b: reg_field(v, "b")?,
            dst: reg_field(v, "dst")?,
            precision: precision_field(v)?,
        },
        "reduce_add" => Instr::ReduceAdd {
            srcs: regs_field(v, "srcs")?,
            dst: reg_field(v, "dst")?,
            precision: precision_field(v)?,
        },
        other => match LaneOp::from_name(other) {
            Some(LaneOp::Logic(op)) => Instr::Logic {
                op,
                a: reg_field(v, "a")?,
                b: reg_field(v, "b")?,
                dst: reg_field(v, "dst")?,
            },
            _ => return Err(wire_err(format!("unknown instruction '{other}'"))),
        },
    })
}

fn write_stored_target(o: &mut ObjWriter<'_>, target: &StoredTarget) {
    match target {
        StoredTarget::Pid(pid) => o.uint("pid", *pid),
        StoredTarget::Name(name) => o.str("name", name),
    }
}

/// Writes an `instrs` array in the [`instr_to_json`] vocabulary.
fn write_instrs(out: &mut String, instrs: &[Instr]) {
    json::write_array(out, instrs, |out, i| instr_to_json(i).write_to(out));
}

/// Parses the `instrs` array shared by `exec_program`, `store_program`
/// and `lint_program`.
fn instr_list(v: &Json) -> Result<Vec<Instr>, WireError> {
    v.as_array()
        .ok_or_else(|| wire_err("field 'instrs' must be an array"))?
        .iter()
        .map(instr_from_json)
        .collect()
}

/// Writes lint diagnostics as an array of wire objects.
fn write_diags(out: &mut String, diags: &[Diagnostic]) {
    json::write_array(out, diags, |out, d| {
        let mut o = ObjWriter::open(out);
        o.str("code", &d.code);
        o.str("severity", d.severity.name());
        o.uint("start", d.span.start as u64);
        o.uint("end", d.span.end as u64);
        o.str("message", &d.message);
        o.close();
    });
}

/// Parses one lint diagnostic from its wire object.
fn diag_from_json(v: &Json) -> Result<Diagnostic, WireError> {
    let severity = field(v, "severity")?
        .as_str()
        .and_then(Severity::from_name)
        .ok_or_else(|| wire_err("diagnostic field 'severity' must be error/warn/perf"))?;
    Ok(Diagnostic {
        code: field(v, "code")?
            .as_str()
            .ok_or_else(|| wire_err("diagnostic field 'code' must be a string"))?
            .to_string(),
        severity,
        span: usize_field(v, "start")?..usize_field(v, "end")?,
        message: field(v, "message")?
            .as_str()
            .ok_or_else(|| wire_err("diagnostic field 'message' must be a string"))?
            .to_string(),
    })
}

fn diags_from_json(v: &Json, what: &str) -> Result<Vec<Diagnostic>, WireError> {
    v.as_array()
        .ok_or_else(|| wire_err(format!("{what} must be an array")))?
        .iter()
        .map(diag_from_json)
        .collect()
}

/// Parses the flat `requests`/`errors`/`cycles`/`energy_fj` account shape
/// shared by `stats` and `session` results.
fn activity_from_json(r: &Json) -> Result<SessionActivity, WireError> {
    Ok(SessionActivity {
        requests: u64_field(r, "requests")?,
        errors: u64_field(r, "errors")?,
        cycles: u64_field(r, "cycles")?,
        energy_fj: field(r, "energy_fj")?
            .as_f64()
            .ok_or_else(|| wire_err("field 'energy_fj' must be a number"))?,
    })
}

fn write_activity_fields(o: &mut ObjWriter<'_>, s: &SessionActivity) {
    o.uint("requests", s.requests);
    o.uint("errors", s.errors);
    o.uint("cycles", s.cycles);
    json::write_f64(o.key("energy_fj"), s.energy_fj);
}

/// Writes one registry entry as its wire object.
fn write_program_entry(out: &mut String, e: &ProgramEntry) {
    let mut o = ObjWriter::open(out);
    o.uint("pid", e.pid);
    if let Some(name) = &e.name {
        o.str("name", name);
    }
    o.uint("cycles", e.cycles);
    o.uint("writes", e.writes);
    o.uint("runs", e.runs);
    o.uint("errors", e.errors);
    o.uint("total_cycles", e.total_cycles);
    json::write_f64(o.key("total_energy_fj"), e.total_energy_fj);
    match &e.last_status {
        None => {}
        Some(RunStatus::Success) => o.str("last_status", "success"),
        Some(RunStatus::Error { message }) => {
            o.str("last_status", "error");
            o.str("last_error", message);
        }
    }
    o.close();
}

/// Parses one registry entry from its wire object.
fn program_entry_from_json(v: &Json) -> Result<ProgramEntry, WireError> {
    let last_status = match v.get("last_status") {
        None | Some(Json::Null) => None,
        Some(s) => match s.as_str() {
            Some("success") => Some(RunStatus::Success),
            Some("error") => Some(RunStatus::Error {
                message: v
                    .get("last_error")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            _ => return Err(wire_err("field 'last_status' must be success or error")),
        },
    };
    Ok(ProgramEntry {
        pid: u64_field(v, "pid")?,
        name: v.get("name").and_then(Json::as_str).map(|s| s.to_string()),
        cycles: u64_field(v, "cycles")?,
        writes: u64_field(v, "writes")?,
        runs: u64_field(v, "runs")?,
        errors: u64_field(v, "errors")?,
        total_cycles: u64_field(v, "total_cycles")?,
        total_energy_fj: field(v, "total_energy_fj")?
            .as_f64()
            .ok_or_else(|| wire_err("field 'total_energy_fj' must be a number"))?,
        last_status,
    })
}

/// Parses a `stored` result.
fn stored_from_json(r: &Json) -> Result<StoredMeta, WireError> {
    Ok(StoredMeta {
        pid: u64_field(r, "pid")?,
        cycles: u64_field(r, "cycles")?,
        writes: u64_field(r, "writes")?,
        diagnostics: match r.get("diagnostics") {
            None | Some(Json::Null) => Vec::new(),
            Some(d) => diags_from_json(d, "field 'diagnostics'")?,
        },
    })
}

/// Parses a `session` result.
fn session_from_json(r: &Json) -> Result<SessionInfo, WireError> {
    Ok(SessionInfo {
        token: field(r, "token")?
            .as_str()
            .ok_or_else(|| wire_err("field 'token' must be a string"))?
            .to_string(),
        stats: activity_from_json(r)?,
        stored_programs: u64_field(r, "stored_programs")?,
        last_seq: match r.get("last_seq") {
            None | Some(Json::Null) => None,
            Some(s) => Some(
                s.as_u64()
                    .ok_or_else(|| wire_err("field 'last_seq' must be a u64"))?,
            ),
        },
    })
}

/// Parses a `programs` result.
fn programs_from_json(r: &Json) -> Result<Vec<ProgramEntry>, WireError> {
    r.as_array()
        .ok_or_else(|| wire_err("field 'result' must be an array"))?
        .iter()
        .map(program_entry_from_json)
        .collect()
}

/// Reads the object at the start of `src` (a whole document), passing each
/// field to `each`; a document that is not an object reads as an object
/// with no fields.
fn read_object<'a>(
    src: &'a str,
    each: impl FnMut(&mut Parser<'a>, Cow<'a, str>, usize) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    let mut p = Parser::new(src);
    p.skip_ws();
    p.object(0, each)?;
    p.end()
}

/// Reads a field's value into `slot`, unless an earlier occurrence of the
/// key filled it: as with [`Json::get`], the first of duplicate keys
/// counts, and a later one is only syntax- and depth-checked.
fn first<'a, T>(
    slot: &mut Option<T>,
    p: &mut Parser<'a>,
    depth: usize,
    read: impl FnOnce(&mut Parser<'a>, usize) -> Result<T, JsonError>,
) -> Result<(), JsonError> {
    if slot.is_some() {
        return p.skip_value(depth);
    }
    *slot = Some(read(p, depth)?);
    Ok(())
}

/// An array of exact integers; `None` when the value is anything else.
fn words(p: &mut Parser<'_>, depth: usize) -> Result<Option<Vec<u64>>, JsonError> {
    let mut out = Vec::new();
    Ok(p.u64s(depth, &mut out)?.then_some(out))
}

/// A field that holds an array of items.
enum List<T> {
    /// The field is `null`.
    Null,
    /// The field is neither `null` nor an array.
    NotArray,
    /// Some item has the wrong type.
    BadItem,
    /// Every item.
    Items(Vec<T>),
}

impl<T> List<T> {
    /// The items; `null` or a non-array fails with `not_array`, a
    /// mistyped item with `bad_item`.
    fn items(self, not_array: &str, bad_item: &str) -> Result<Vec<T>, WireError> {
        match self {
            List::Items(items) => Ok(items),
            List::BadItem => Err(wire_err(bad_item)),
            List::Null | List::NotArray => Err(wire_err(not_array)),
        }
    }
}

/// An array of numbers, each as `f64`.
fn floats(p: &mut Parser<'_>, depth: usize) -> Result<List<f64>, JsonError> {
    if p.start(depth)? != b'[' {
        return p.skip_value(depth).map(|()| List::NotArray);
    }
    let mut out = Vec::new();
    Ok(if p.f64s(depth, &mut out)? {
        List::Items(out)
    } else {
        List::BadItem
    })
}

/// An array of integer rows (`prototypes`, `inputs`, a program's
/// `outputs`), each row read straight into its vector; a `null` row reads
/// as `None`.
fn rows(p: &mut Parser<'_>, depth: usize) -> Result<List<Option<Vec<u64>>>, JsonError> {
    if p.start(depth)? == b'n' {
        // `null`, or the literal's syntax error.
        return p.scalar(depth).map(|_| List::Null);
    }
    let mut rows = Vec::new();
    let mut good = true;
    let array = p.array(depth, |p, d| {
        if !good {
            return p.skip_value(d);
        }
        if p.start(d)? == b'n' {
            p.scalar(d)?;
            rows.push(None);
        } else {
            let mut row = Vec::new();
            good = p.u64s(d, &mut row)?;
            rows.push(Some(row));
        }
        Ok(())
    })?;
    Ok(match (array, good) {
        (false, _) => List::NotArray,
        (true, false) => List::BadItem,
        (true, true) => List::Items(rows),
    })
}

/// Integer rows where a `null` row is a mistyped item.
fn dense_rows(
    rows: List<Option<Vec<u64>>>,
    not_array: &str,
    bad_row: &str,
) -> Result<Vec<Vec<u64>>, WireError> {
    rows.items(not_array, bad_row)?
        .into_iter()
        .map(|row| row.ok_or_else(|| wire_err(bad_row)))
        .collect()
}

/// A required exact-integer field.
fn uint(v: Option<Scalar<'_>>, key: &str) -> Result<u64, WireError> {
    v.ok_or_else(|| missing(key))?
        .as_u64()
        .ok_or_else(|| wire_err(format!("field '{key}' must be a non-negative integer")))
}

/// An optional exact-integer field (`null` reads as absent).
fn opt_uint(v: Option<Scalar<'_>>, key: &str) -> Result<Option<u64>, WireError> {
    match v {
        None | Some(Scalar::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| wire_err(format!("field '{key}' must be a non-negative integer"))),
    }
}

/// A required string field.
fn text<'a>(v: Option<Scalar<'a>>, key: &str) -> Result<Cow<'a, str>, WireError> {
    match v.ok_or_else(|| missing(key))? {
        Scalar::Str(s) => Ok(s),
        _ => Err(wire_err(format!("field '{key}' must be a string"))),
    }
}

/// The required `precision` field.
fn lane_width(v: Option<Scalar<'_>>) -> Result<Precision, WireError> {
    precision(uint(v, "precision")?)
}

/// A required field holding an array of exact integers.
fn words_of(v: Option<Option<Vec<u64>>>, key: &str) -> Result<Vec<u64>, WireError> {
    v.ok_or_else(|| missing(key))?
        .ok_or_else(|| wire_err(format!("field '{key}' must be an array of integers")))
}

/// The fields a request line may carry, each as the first occurrence of
/// its key left it (`None`: absent). Which of them an op reads, and in
/// what order, is decided once the whole line has parsed.
#[derive(Default)]
struct RequestFields<'a> {
    id: Option<Scalar<'a>>,
    timeout_ms: Option<Scalar<'a>>,
    seq: Option<Scalar<'a>>,
    op: Option<Scalar<'a>>,
    precision: Option<Scalar<'a>>,
    x: Option<Option<Vec<u64>>>,
    w: Option<Option<Vec<u64>>>,
    a: Option<Option<Vec<u64>>>,
    b: Option<Option<Vec<u64>>>,
    prototypes: Option<List<Option<Vec<u64>>>>,
    instrs: Option<Json>,
    name: Option<Scalar<'a>>,
    pid: Option<Scalar<'a>>,
    inputs: Option<List<Option<Vec<u64>>>>,
    token: Option<Scalar<'a>>,
}

impl<'a> RequestFields<'a> {
    /// Reads one field of the request object.
    fn read(&mut self, p: &mut Parser<'a>, key: &str, depth: usize) -> Result<(), JsonError> {
        match key {
            "id" => first(&mut self.id, p, depth, Parser::scalar),
            "timeout_ms" => first(&mut self.timeout_ms, p, depth, Parser::scalar),
            "seq" => first(&mut self.seq, p, depth, Parser::scalar),
            "op" => first(&mut self.op, p, depth, Parser::scalar),
            "precision" => first(&mut self.precision, p, depth, Parser::scalar),
            "x" => first(&mut self.x, p, depth, words),
            "w" => first(&mut self.w, p, depth, words),
            "a" => first(&mut self.a, p, depth, words),
            "b" => first(&mut self.b, p, depth, words),
            "prototypes" => first(&mut self.prototypes, p, depth, rows),
            "instrs" => first(&mut self.instrs, p, depth, Parser::value),
            "name" => first(&mut self.name, p, depth, Parser::scalar),
            "pid" => first(&mut self.pid, p, depth, Parser::scalar),
            "inputs" => first(&mut self.inputs, p, depth, rows),
            "token" => first(&mut self.token, p, depth, Parser::scalar),
            _ => p.skip_value(depth),
        }
    }

    /// The request: `id`, `timeout_ms`, `seq` and `op` are checked in that
    /// order, then the op's own fields.
    fn request(self) -> Result<Request, WireError> {
        let id = uint(self.id, "id")?;
        let timeout_ms = opt_uint(self.timeout_ms, "timeout_ms")?;
        let seq = opt_uint(self.seq, "seq")?;
        let op = text(self.op, "op")?;
        let body = match &*op {
            "ping" => RequestBody::Ping,
            "dot" => RequestBody::Dot {
                precision: lane_width(self.precision)?,
                x: words_of(self.x, "x")?,
                w: words_of(self.w, "w")?,
            },
            "load_model" => {
                let prototypes = dense_rows(
                    self.prototypes.ok_or_else(|| missing("prototypes"))?,
                    "field 'prototypes' must be an array",
                    "each prototype must be an array of integers",
                )?;
                RequestBody::LoadModel {
                    precision: lane_width(self.precision)?,
                    prototypes,
                }
            }
            "classify" => RequestBody::Classify {
                x: words_of(self.x, "x")?,
            },
            "exec_program" => RequestBody::ExecProgram {
                instrs: instrs_of(self.instrs)?,
            },
            "store_program" => RequestBody::StoreProgram {
                instrs: instrs_of(self.instrs)?,
                name: match self.name {
                    None | Some(Scalar::Null) => None,
                    Some(Scalar::Str(name)) => Some(name.into_owned()),
                    Some(_) => return Err(wire_err("field 'name' must be a string")),
                },
            },
            "lint_program" => RequestBody::LintProgram {
                instrs: instrs_of(self.instrs)?,
            },
            "run_stored" => {
                let inputs = match self.inputs {
                    None | Some(List::Null) => Vec::new(),
                    Some(inputs) => inputs.items(
                        "field 'inputs' must be an array",
                        "each input must be an array of integers or null",
                    )?,
                };
                RequestBody::RunStored {
                    target: stored_target(self.pid, self.name)?,
                    inputs,
                }
            }
            "list_programs" => RequestBody::ListPrograms,
            "delete_program" => RequestBody::DeleteProgram {
                target: stored_target(self.pid, self.name)?,
            },
            "open_session" => RequestBody::OpenSession,
            "resume_session" => RequestBody::ResumeSession {
                token: text(self.token, "token")?.into_owned(),
            },
            "stats" => RequestBody::Stats,
            "shutdown" => RequestBody::Shutdown,
            other => match LaneOp::from_name(other) {
                Some(op) => RequestBody::Lanes {
                    op,
                    precision: lane_width(self.precision)?,
                    a: words_of(self.a, "a")?,
                    b: words_of(self.b, "b")?,
                },
                None => return Err(wire_err(format!("unknown op '{other}'"))),
            },
        };
        Ok(Request {
            id,
            timeout_ms,
            seq,
            body,
        })
    }
}

/// The `instrs` field of a program op.
fn instrs_of(v: Option<Json>) -> Result<Vec<Instr>, WireError> {
    instr_list(&v.ok_or_else(|| missing("instrs"))?)
}

/// The `pid`-or-`name` address shared by `run_stored` and
/// `delete_program` (exactly one must be present).
fn stored_target(
    pid: Option<Scalar<'_>>,
    name: Option<Scalar<'_>>,
) -> Result<StoredTarget, WireError> {
    match (pid, name) {
        (Some(pid), None) => pid
            .as_u64()
            .map(StoredTarget::Pid)
            .ok_or_else(|| wire_err("field 'pid' must be a non-negative integer")),
        (None, Some(Scalar::Str(name))) => Ok(StoredTarget::Name(name.into_owned())),
        (None, Some(_)) => Err(wire_err("field 'name' must be a string")),
        _ => Err(wire_err(
            "exactly one of 'pid' or 'name' must address the stored program",
        )),
    }
}

/// A response's `result`, read as the `kind` before it says.
enum Payload<'a> {
    /// `scalar` and `class`.
    Scalar(Scalar<'a>),
    /// `words`.
    Words(Option<Vec<u64>>),
    /// `program`.
    Program(ProgramFields),
    /// The cold kinds: `stored`, `diagnostics`, `stats`, `session` and
    /// `programs`.
    Tree(Json),
    /// A `result` that no string `kind` preceded, or whose kind reads
    /// none: its text and depth, read again once `kind` is known.
    Deferred(&'a str, usize),
}

impl<'a> Payload<'a> {
    /// Reads a `result` as `kind` says.
    fn read(kind: Option<&str>, p: &mut Parser<'a>, depth: usize) -> Result<Self, JsonError> {
        Ok(match kind {
            Some("scalar" | "class") => Payload::Scalar(p.scalar(depth)?),
            Some("words") => Payload::Words(words(p, depth)?),
            Some("program") => Payload::Program(ProgramFields::read(p, depth)?),
            Some("stored" | "diagnostics" | "stats" | "session" | "programs") => {
                Payload::Tree(p.value(depth)?)
            }
            _ => Payload::Deferred(p.skip_span(depth)?, depth),
        })
    }
}

/// The fields of a `program` result.
#[derive(Default)]
struct ProgramFields {
    outputs: Option<List<Option<Vec<u64>>>>,
    cycles: Option<Option<Vec<u64>>>,
    energy_fj: Option<List<f64>>,
}

impl ProgramFields {
    fn read(p: &mut Parser<'_>, depth: usize) -> Result<Self, JsonError> {
        let mut f = Self::default();
        p.object(depth, |p, key, d| match &*key {
            "outputs" => first(&mut f.outputs, p, d, rows),
            "cycles" => first(&mut f.cycles, p, d, words),
            "energy_fj" => first(&mut f.energy_fj, p, d, floats),
            _ => p.skip_value(d),
        })?;
        Ok(f)
    }

    /// The report: `outputs`, `energy_fj`, then `cycles` are checked.
    fn report(self) -> Result<ProgramReport, WireError> {
        let outputs = dense_rows(
            self.outputs.ok_or_else(|| missing("outputs"))?,
            "field 'outputs' must be an array",
            "each output must be an array of integers",
        )?;
        let energy_fj = self.energy_fj.ok_or_else(|| missing("energy_fj"))?.items(
            "field 'energy_fj' must be an array",
            "each energy entry must be a number",
        )?;
        Ok(ProgramReport {
            outputs,
            cycles: words_of(self.cycles, "cycles")?,
            energy_fj,
        })
    }
}

/// The fields a response line may carry, as [`RequestFields`] holds a
/// request's.
#[derive(Default)]
struct ResponseFields<'a> {
    id: Option<Scalar<'a>>,
    ok: Option<Scalar<'a>>,
    error: Option<Scalar<'a>>,
    kind: Option<Scalar<'a>>,
    limit: Option<Scalar<'a>>,
    retry_after_ms: Option<Scalar<'a>>,
    code: Option<Scalar<'a>>,
    index: Option<Scalar<'a>>,
    result: Option<Payload<'a>>,
}

impl<'a> ResponseFields<'a> {
    /// Reads one field of the response object.
    fn read(&mut self, p: &mut Parser<'a>, key: &str, depth: usize) -> Result<(), JsonError> {
        match key {
            "id" => first(&mut self.id, p, depth, Parser::scalar),
            "ok" => first(&mut self.ok, p, depth, Parser::scalar),
            "error" => first(&mut self.error, p, depth, Parser::scalar),
            "kind" => first(&mut self.kind, p, depth, Parser::scalar),
            "limit" => first(&mut self.limit, p, depth, Parser::scalar),
            "retry_after_ms" => first(&mut self.retry_after_ms, p, depth, Parser::scalar),
            "code" => first(&mut self.code, p, depth, Parser::scalar),
            "index" => first(&mut self.index, p, depth, Parser::scalar),
            "result" => {
                let kind = self.kind.as_ref().and_then(Scalar::as_str);
                first(&mut self.result, p, depth, |p, d| Payload::read(kind, p, d))
            }
            _ => p.skip_value(depth),
        }
    }

    /// The response: `id` and `ok` are checked, then `error` or `kind`
    /// and the kind's `result`.
    fn response(self) -> Result<Response, WireError> {
        let id = uint(self.id, "id")?;
        let ok = match self.ok.ok_or_else(|| missing("ok"))? {
            Scalar::Bool(ok) => ok,
            _ => return Err(wire_err("field 'ok' must be a bool")),
        };
        if !ok {
            let message = text(self.error, "error")?.into_owned();
            // Unknown kinds/limits from a newer server degrade to generic
            // rather than failing the parse.
            return Ok(Response {
                id,
                body: ResponseBody::Error(ErrorBody {
                    kind: self
                        .kind
                        .as_ref()
                        .and_then(Scalar::as_str)
                        .and_then(ErrorKind::from_name)
                        .unwrap_or_default(),
                    limit: self
                        .limit
                        .as_ref()
                        .and_then(Scalar::as_str)
                        .and_then(LimitKind::from_name),
                    retry_after_ms: self.retry_after_ms.as_ref().and_then(Scalar::as_u64),
                    code: self
                        .code
                        .as_ref()
                        .and_then(Scalar::as_str)
                        .map(str::to_owned),
                    index: self.index.as_ref().and_then(Scalar::as_u64),
                    message,
                }),
            });
        }
        let kind = text(self.kind, "kind")?;
        let result = match self.result {
            Some(Payload::Deferred(span, depth)) => {
                let mut p = Parser::new(span);
                Some(
                    Payload::read(Some(&kind), &mut p, depth)
                        .map_err(|e| wire_err(e.to_string()))?,
                )
            }
            result => result,
        };
        let body = match (&*kind, result) {
            ("pong", _) => ResponseBody::Pong,
            ("ok", _) => ResponseBody::Ok,
            (
                "scalar" | "words" | "class" | "program" | "stored" | "diagnostics" | "stats"
                | "session" | "programs",
                None,
            ) => return Err(missing("result")),
            ("scalar", Some(Payload::Scalar(n))) => ResponseBody::Scalar(uint(Some(n), "result")?),
            ("words", Some(Payload::Words(ws))) => {
                ResponseBody::Words(words_of(Some(ws), "result")?)
            }
            ("class", Some(Payload::Scalar(c))) => ResponseBody::Class(
                uint(Some(c), "result")?
                    .try_into()
                    .map_err(|_| wire_err("class index out of range"))?,
            ),
            ("program", Some(Payload::Program(f))) => ResponseBody::Program(f.report()?),
            ("stored", Some(Payload::Tree(r))) => ResponseBody::Stored(stored_from_json(&r)?),
            ("diagnostics", Some(Payload::Tree(r))) => {
                ResponseBody::Diagnostics(diags_from_json(&r, "field 'result'")?)
            }
            ("stats", Some(Payload::Tree(r))) => ResponseBody::Stats(activity_from_json(&r)?),
            ("session", Some(Payload::Tree(r))) => ResponseBody::Session(session_from_json(&r)?),
            ("programs", Some(Payload::Tree(r))) => ResponseBody::Programs(programs_from_json(&r)?),
            (other, _) => return Err(wire_err(format!("unknown response kind '{other}'"))),
        };
        Ok(Response { id, body })
    }
}

impl Request {
    /// Extracts just the `id` of a line, for error responses to requests
    /// that do not parse fully. Returns `None` when the line has no
    /// readable non-negative integer `id` (bad JSON, missing field, wrong
    /// type) — the server answers such lines with the documented sentinel
    /// id 0, since the protocol has no way to address a reply otherwise.
    pub fn peek_id(line: &str) -> Option<u64> {
        let mut id = None;
        read_object(line, |p, key, depth| match &*key {
            "id" => first(&mut id, p, depth, Parser::scalar),
            _ => p.skip_value(depth),
        })
        .ok()?;
        id?.as_u64()
    }

    /// Parses one request line in one pass: each field the protocol
    /// defines is decoded straight into its typed value, and every other
    /// field is only syntax- and depth-checked.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem (bad JSON, missing or
    /// ill-typed field, unknown op). A syntax error anywhere in the line
    /// is reported before any field error; of duplicate keys the first
    /// counts.
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let mut fields = RequestFields::default();
        read_object(line.trim(), |p, key, depth| fields.read(p, &key, depth))
            .map_err(|e| wire_err(e.to_string()))?;
        fields.request()
    }

    /// Serializes the request to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut line = String::with_capacity(LINE_CAPACITY);
        self.write_json_line(&mut line);
        line
    }

    /// Appends the bytes of [`Request::to_json_line`] to `out` (no
    /// trailing newline), so a caller can reuse one line buffer.
    pub fn write_json_line(&self, out: &mut String) {
        let mut o = ObjWriter::open(out);
        o.uint("id", self.id);
        if let Some(t) = self.timeout_ms {
            o.uint("timeout_ms", t);
        }
        if let Some(s) = self.seq {
            o.uint("seq", s);
        }
        match &self.body {
            RequestBody::Ping => o.str("op", "ping"),
            RequestBody::Dot { precision, x, w } => {
                o.str("op", "dot");
                o.uint("precision", precision.bits() as u64);
                o.words("x", x);
                o.words("w", w);
            }
            RequestBody::Lanes {
                op,
                precision,
                a,
                b,
            } => {
                o.str("op", op.name());
                o.uint("precision", precision.bits() as u64);
                o.words("a", a);
                o.words("b", b);
            }
            RequestBody::LoadModel {
                precision,
                prototypes,
            } => {
                o.str("op", "load_model");
                o.uint("precision", precision.bits() as u64);
                json::write_array(o.key("prototypes"), prototypes, |out, p| {
                    json::write_u64s(out, p)
                });
            }
            RequestBody::Classify { x } => {
                o.str("op", "classify");
                o.words("x", x);
            }
            RequestBody::ExecProgram { instrs } => {
                o.str("op", "exec_program");
                write_instrs(o.key("instrs"), instrs);
            }
            RequestBody::StoreProgram { instrs, name } => {
                o.str("op", "store_program");
                write_instrs(o.key("instrs"), instrs);
                if let Some(name) = name {
                    o.str("name", name);
                }
            }
            RequestBody::LintProgram { instrs } => {
                o.str("op", "lint_program");
                write_instrs(o.key("instrs"), instrs);
            }
            RequestBody::RunStored { target, inputs } => {
                o.str("op", "run_stored");
                write_stored_target(&mut o, target);
                if !inputs.is_empty() {
                    json::write_array(o.key("inputs"), inputs, |out, input| match input {
                        None => out.push_str("null"),
                        Some(ws) => json::write_u64s(out, ws),
                    });
                }
            }
            RequestBody::ListPrograms => o.str("op", "list_programs"),
            RequestBody::DeleteProgram { target } => {
                o.str("op", "delete_program");
                write_stored_target(&mut o, target);
            }
            RequestBody::OpenSession => o.str("op", "open_session"),
            RequestBody::ResumeSession { token } => {
                o.str("op", "resume_session");
                o.str("token", token);
            }
            RequestBody::Stats => o.str("op", "stats"),
            RequestBody::Shutdown => o.str("op", "shutdown"),
        }
        o.close();
    }
}

impl Response {
    /// Parses one response line in one pass, as [`Request::parse`] parses
    /// a request.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem.
    pub fn parse(line: &str) -> Result<Response, WireError> {
        let mut fields = ResponseFields::default();
        read_object(line.trim(), |p, key, depth| fields.read(p, &key, depth))
            .map_err(|e| wire_err(e.to_string()))?;
        fields.response()
    }

    /// Serializes the response to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut line = String::with_capacity(LINE_CAPACITY);
        self.write_json_line(&mut line);
        line
    }

    /// Appends the bytes of [`Response::to_json_line`] to `out` (no
    /// trailing newline), so a caller can batch several responses into
    /// one buffer.
    pub fn write_json_line(&self, out: &mut String) {
        let mut o = ObjWriter::open(out);
        o.uint("id", self.id);
        let ok = !matches!(self.body, ResponseBody::Error(_));
        o.key("ok").push_str(if ok { "true" } else { "false" });
        match &self.body {
            ResponseBody::Error(e) => {
                o.str("error", &e.message);
                if let Some(kind) = e.kind.name() {
                    o.str("kind", kind);
                }
                if let Some(limit) = e.limit {
                    o.str("limit", limit.name());
                }
                if let Some(ms) = e.retry_after_ms {
                    o.uint("retry_after_ms", ms);
                }
                if let Some(code) = &e.code {
                    o.str("code", code);
                }
                if let Some(index) = e.index {
                    o.uint("index", index);
                }
            }
            ResponseBody::Pong => o.str("kind", "pong"),
            ResponseBody::Ok => o.str("kind", "ok"),
            ResponseBody::Scalar(n) => {
                o.str("kind", "scalar");
                o.uint("result", *n);
            }
            ResponseBody::Words(ws) => {
                o.str("kind", "words");
                o.words("result", ws);
            }
            ResponseBody::Class(c) => {
                o.str("kind", "class");
                o.uint("result", *c as u64);
            }
            ResponseBody::Program(r) => {
                o.str("kind", "program");
                let mut res = ObjWriter::open(o.key("result"));
                json::write_array(res.key("outputs"), &r.outputs, |out, ws| {
                    json::write_u64s(out, ws)
                });
                res.words("cycles", &r.cycles);
                json::write_array(res.key("energy_fj"), &r.energy_fj, |out, &e| {
                    json::write_f64(out, e)
                });
                res.close();
            }
            ResponseBody::Stored(s) => {
                o.str("kind", "stored");
                let mut res = ObjWriter::open(o.key("result"));
                res.uint("pid", s.pid);
                res.uint("cycles", s.cycles);
                res.uint("writes", s.writes);
                if !s.diagnostics.is_empty() {
                    write_diags(res.key("diagnostics"), &s.diagnostics);
                }
                res.close();
            }
            ResponseBody::Diagnostics(ds) => {
                o.str("kind", "diagnostics");
                write_diags(o.key("result"), ds);
            }
            ResponseBody::Stats(s) => {
                o.str("kind", "stats");
                let mut res = ObjWriter::open(o.key("result"));
                write_activity_fields(&mut res, s);
                res.close();
            }
            ResponseBody::Session(info) => {
                o.str("kind", "session");
                let mut res = ObjWriter::open(o.key("result"));
                res.str("token", &info.token);
                write_activity_fields(&mut res, &info.stats);
                res.uint("stored_programs", info.stored_programs);
                if let Some(seq) = info.last_seq {
                    res.uint("last_seq", seq);
                }
                res.close();
            }
            ResponseBody::Programs(entries) => {
                o.str("kind", "programs");
                json::write_array(o.key("result"), entries, write_program_entry);
            }
        }
        o.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let line = req.to_json_line();
        assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        assert_eq!(Request::peek_id(&line), Some(req.id));
    }

    fn round_trip_response(resp: Response) {
        let line = resp.to_json_line();
        assert_eq!(Response::parse(&line).unwrap(), resp, "{line}");
    }

    #[test]
    fn every_request_kind_round_trips() {
        round_trip_request(Request {
            id: 1,
            timeout_ms: None,
            seq: None,
            body: RequestBody::Ping,
        });
        round_trip_request(Request {
            id: 2,
            timeout_ms: None,
            seq: None,
            body: RequestBody::Dot {
                precision: Precision::P8,
                x: vec![1, 2, 3],
                w: vec![4, 5, 6],
            },
        });
        for op in [
            LaneOp::Add,
            LaneOp::Sub,
            LaneOp::Mult,
            LaneOp::Logic(LogicOp::And),
            LaneOp::Logic(LogicOp::Or),
            LaneOp::Logic(LogicOp::Xor),
            LaneOp::Logic(LogicOp::Nand),
            LaneOp::Logic(LogicOp::Nor),
            LaneOp::Logic(LogicOp::Xnor),
        ] {
            round_trip_request(Request {
                id: 3,
                timeout_ms: None,
                seq: None,
                body: RequestBody::Lanes {
                    op,
                    precision: Precision::P4,
                    a: vec![1, 15],
                    b: vec![3, 9],
                },
            });
        }
        round_trip_request(Request {
            id: 4,
            timeout_ms: None,
            seq: None,
            body: RequestBody::LoadModel {
                precision: Precision::P2,
                prototypes: vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0]],
            },
        });
        round_trip_request(Request {
            id: 5,
            timeout_ms: None,
            seq: None,
            body: RequestBody::Classify { x: vec![1, 2] },
        });
        round_trip_request(Request {
            id: 9,
            timeout_ms: None,
            seq: None,
            body: RequestBody::ExecProgram {
                instrs: every_instr_kind(),
            },
        });
        round_trip_request(Request {
            id: 10,
            timeout_ms: None,
            seq: None,
            body: RequestBody::StoreProgram {
                instrs: every_instr_kind(),
                name: None,
            },
        });
        round_trip_request(Request {
            id: 14,
            timeout_ms: None,
            seq: Some(3),
            body: RequestBody::StoreProgram {
                instrs: every_instr_kind(),
                name: Some("conv3x3".into()),
            },
        });
        round_trip_request(Request {
            id: 13,
            timeout_ms: None,
            seq: None,
            body: RequestBody::LintProgram {
                instrs: every_instr_kind(),
            },
        });
        round_trip_request(Request {
            id: 11,
            timeout_ms: None,
            seq: None,
            body: RequestBody::RunStored {
                target: StoredTarget::Pid(3),
                inputs: vec![],
            },
        });
        round_trip_request(Request {
            id: 12,
            timeout_ms: None,
            seq: None,
            body: RequestBody::RunStored {
                target: StoredTarget::Pid(7),
                inputs: vec![Some(vec![1, 2, 3]), None, Some(vec![]), Some(vec![255])],
            },
        });
        round_trip_request(Request {
            id: 15,
            timeout_ms: None,
            seq: Some(9),
            body: RequestBody::RunStored {
                target: StoredTarget::Name("conv3x3".into()),
                inputs: vec![None, Some(vec![4])],
            },
        });
        round_trip_request(Request {
            id: 16,
            timeout_ms: None,
            seq: None,
            body: RequestBody::ListPrograms,
        });
        round_trip_request(Request {
            id: 17,
            timeout_ms: None,
            seq: Some(1),
            body: RequestBody::DeleteProgram {
                target: StoredTarget::Name("conv3x3".into()),
            },
        });
        round_trip_request(Request {
            id: 18,
            timeout_ms: None,
            seq: None,
            body: RequestBody::DeleteProgram {
                target: StoredTarget::Pid(2),
            },
        });
        round_trip_request(Request {
            id: 19,
            timeout_ms: None,
            seq: None,
            body: RequestBody::OpenSession,
        });
        round_trip_request(Request {
            id: 20,
            timeout_ms: None,
            seq: None,
            body: RequestBody::ResumeSession {
                token: "a1b2c3d4e5f60718293a4b5c6d7e8f90".into(),
            },
        });
        round_trip_request(Request {
            id: 6,
            timeout_ms: None,
            seq: None,
            body: RequestBody::Stats,
        });
        round_trip_request(Request {
            id: 7,
            timeout_ms: None,
            seq: None,
            body: RequestBody::Shutdown,
        });
    }

    /// One of each instruction kind (all six logic functions included),
    /// with distinct registers so round-trip mix-ups cannot cancel out.
    fn every_instr_kind() -> Vec<Instr> {
        let p = Precision::P8;
        let mut instrs = vec![
            Instr::Write {
                dst: Reg(0),
                precision: p,
                values: vec![1, 2, 3],
            },
            Instr::WriteMult {
                dst: Reg(1),
                precision: p,
                values: vec![4, 5],
            },
            Instr::Not {
                src: Reg(0),
                dst: Reg(2),
            },
            Instr::Copy {
                src: Reg(2),
                dst: Reg(3),
            },
            Instr::Shl {
                src: Reg(3),
                dst: Reg(4),
                precision: p,
            },
            Instr::Add {
                a: Reg(0),
                b: Reg(2),
                dst: Reg(5),
                precision: p,
            },
            Instr::AddShift {
                a: Reg(0),
                b: Reg(5),
                dst: Reg(6),
                precision: Precision::P4,
            },
            Instr::Sub {
                a: Reg(5),
                b: Reg(0),
                dst: Reg(7),
                precision: p,
            },
            Instr::Mult {
                a: Reg(1),
                b: Reg(1),
                dst: Reg(8),
                precision: p,
            },
            Instr::ReduceAdd {
                srcs: vec![Reg(0), Reg(2), Reg(5)],
                dst: Reg(9),
                precision: p,
            },
            Instr::Read {
                src: Reg(9),
                precision: p,
                n: 3,
            },
            Instr::ReadProducts {
                src: Reg(8),
                precision: p,
                n: 2,
            },
        ];
        for op in [
            LogicOp::And,
            LogicOp::Or,
            LogicOp::Xor,
            LogicOp::Nand,
            LogicOp::Nor,
            LogicOp::Xnor,
        ] {
            instrs.push(Instr::Logic {
                op,
                a: Reg(0),
                b: Reg(2),
                dst: Reg(10),
            });
        }
        instrs
    }

    #[test]
    fn every_response_kind_round_trips() {
        round_trip_response(Response {
            id: 1,
            body: ResponseBody::Pong,
        });
        round_trip_response(Response {
            id: 2,
            body: ResponseBody::Scalar(u64::MAX),
        });
        round_trip_response(Response {
            id: 3,
            body: ResponseBody::Words(vec![0, 255, 1 << 40]),
        });
        round_trip_response(Response {
            id: 4,
            body: ResponseBody::Class(3),
        });
        round_trip_response(Response {
            id: 5,
            body: ResponseBody::Ok,
        });
        round_trip_response(Response {
            id: 6,
            body: ResponseBody::Stats(SessionActivity {
                requests: 12,
                errors: 1,
                cycles: 3456,
                energy_fj: 789.25,
            }),
        });
        round_trip_response(Response {
            id: 7,
            body: ResponseBody::Error("no model loaded".into()),
        });
        round_trip_response(Response {
            id: 9,
            body: ResponseBody::Stored(StoredMeta {
                pid: 12,
                cycles: 345,
                writes: 6,
                diagnostics: Vec::new(),
            }),
        });
        round_trip_response(Response {
            id: 10,
            body: ResponseBody::Stored(StoredMeta {
                pid: 13,
                cycles: 7,
                writes: 2,
                diagnostics: vec![Diagnostic {
                    code: "L001".into(),
                    severity: Severity::Warn,
                    span: 1..2,
                    message: "dead store".into(),
                }],
            }),
        });
        round_trip_response(Response {
            id: 11,
            body: ResponseBody::Diagnostics(vec![
                Diagnostic {
                    code: "L004".into(),
                    severity: Severity::Perf,
                    span: 2..4,
                    message: "missed fusion".into(),
                },
                Diagnostic {
                    code: "E002".into(),
                    severity: Severity::Error,
                    span: 0..1,
                    message: "use before def".into(),
                },
            ]),
        });
        round_trip_response(Response {
            id: 12,
            body: ResponseBody::Diagnostics(Vec::new()),
        });
        round_trip_response(Response {
            id: 13,
            body: ResponseBody::Session(SessionInfo {
                token: "00ff00ff00ff00ff00ff00ff00ff00ff".into(),
                stats: SessionActivity {
                    requests: 40,
                    errors: 2,
                    cycles: 999,
                    energy_fj: 1.5,
                },
                stored_programs: 3,
                last_seq: Some(39),
            }),
        });
        round_trip_response(Response {
            id: 13,
            body: ResponseBody::Session(SessionInfo {
                token: "aa".repeat(16),
                stats: SessionActivity::new(),
                stored_programs: 0,
                last_seq: None,
            }),
        });
        round_trip_response(Response {
            id: 14,
            body: ResponseBody::Programs(vec![
                ProgramEntry {
                    pid: 0,
                    name: Some("conv3x3".into()),
                    cycles: 120,
                    writes: 2,
                    runs: 7,
                    errors: 1,
                    total_cycles: 840,
                    total_energy_fj: 123.25,
                    last_status: Some(RunStatus::Error {
                        message: "input 0 must have 9 values".into(),
                    }),
                },
                ProgramEntry {
                    pid: 1,
                    name: None,
                    cycles: 3,
                    writes: 0,
                    runs: 2,
                    errors: 0,
                    total_cycles: 6,
                    total_energy_fj: 0.5,
                    last_status: Some(RunStatus::Success),
                },
                ProgramEntry {
                    pid: 2,
                    name: Some("idle".into()),
                    cycles: 1,
                    writes: 1,
                    runs: 0,
                    errors: 0,
                    total_cycles: 0,
                    total_energy_fj: 0.0,
                    last_status: None,
                },
            ]),
        });
        round_trip_response(Response {
            id: 15,
            body: ResponseBody::Programs(Vec::new()),
        });
        round_trip_response(Response {
            id: 8,
            body: ResponseBody::Program(ProgramReport {
                outputs: vec![vec![1, 2], vec![3]],
                cycles: vec![1, 1, 10, 0, 1],
                energy_fj: vec![100.5, 100.5, 2040.25, 0.0, 33.0],
            }),
        });
    }

    /// A name that exercises every escape class the serializer handles:
    /// quote, backslash, a named control escape, a `\u00XX` control escape
    /// and a multi-byte character copied through verbatim.
    const AWKWARD_NAME: &str = "q\"b\\n\nc\u{1}é";

    /// One request per `RequestBody` variant (`Lanes` once arithmetic and
    /// once logic), with the optional envelope fields and the awkward
    /// corners of each body.
    pub(super) fn pinned_requests() -> Vec<Request> {
        let req = |id, body| Request {
            id,
            timeout_ms: None,
            seq: None,
            body,
        };
        vec![
            Request {
                id: 1,
                timeout_ms: Some(250),
                seq: Some(18446744073709551615),
                body: RequestBody::Ping,
            },
            req(
                2,
                RequestBody::Dot {
                    precision: Precision::P8,
                    x: vec![0, 1, 255],
                    w: vec![7, 128, 3],
                },
            ),
            req(
                3,
                RequestBody::Lanes {
                    op: LaneOp::Sub,
                    precision: Precision::P32,
                    a: vec![4294967295, 0],
                    b: vec![1, 2],
                },
            ),
            req(
                4,
                RequestBody::Lanes {
                    op: LaneOp::Logic(LogicOp::Xnor),
                    precision: Precision::P2,
                    a: vec![1, 3],
                    b: vec![2, 0],
                },
            ),
            req(
                5,
                RequestBody::LoadModel {
                    precision: Precision::P4,
                    prototypes: vec![vec![0, 15], vec![], vec![9]],
                },
            ),
            req(6, RequestBody::Classify { x: vec![10, 20] }),
            Request {
                id: 7,
                timeout_ms: Some(0),
                seq: None,
                body: RequestBody::ExecProgram {
                    instrs: every_instr_kind(),
                },
            },
            Request {
                id: 8,
                timeout_ms: None,
                seq: Some(3),
                body: RequestBody::StoreProgram {
                    instrs: every_instr_kind()[..2].to_vec(),
                    name: Some(AWKWARD_NAME.into()),
                },
            },
            req(
                9,
                RequestBody::RunStored {
                    target: StoredTarget::Pid(7),
                    inputs: vec![Some(vec![1, 2]), None, Some(vec![])],
                },
            ),
            req(
                10,
                RequestBody::RunStored {
                    target: StoredTarget::Name(AWKWARD_NAME.into()),
                    inputs: vec![],
                },
            ),
            req(11, RequestBody::ListPrograms),
            req(
                12,
                RequestBody::DeleteProgram {
                    target: StoredTarget::Name("conv3x3".into()),
                },
            ),
            req(13, RequestBody::OpenSession),
            req(
                14,
                RequestBody::ResumeSession {
                    token: "a1b2c3d4e5f60718293a4b5c6d7e8f90".into(),
                },
            ),
            req(
                15,
                RequestBody::LintProgram {
                    instrs: every_instr_kind()[9..11].to_vec(),
                },
            ),
            req(16, RequestBody::Stats),
            req(0, RequestBody::Shutdown),
        ]
    }

    /// One response per `ResponseBody` kind, with an error carrying every
    /// optional field and float energies whose text must not change.
    pub(super) fn pinned_responses() -> Vec<Response> {
        let resp = |id, body| Response { id, body };
        vec![
            resp(1, ResponseBody::Pong),
            resp(2, ResponseBody::Scalar(u64::MAX)),
            resp(3, ResponseBody::Words(vec![0, 255, 1 << 40])),
            resp(4, ResponseBody::Class(3)),
            resp(5, ResponseBody::Ok),
            resp(
                6,
                ResponseBody::Stats(SessionActivity {
                    requests: 12,
                    errors: 1,
                    cycles: 3456,
                    energy_fj: 789.25,
                }),
            ),
            resp(
                7,
                ResponseBody::Program(ProgramReport {
                    outputs: vec![vec![1, 2], vec![], vec![3]],
                    cycles: vec![1, 10, 0, 1, 2],
                    energy_fj: vec![100.5, 2040.25, 0.0, 1e-7, 1e21],
                }),
            ),
            resp(
                8,
                ResponseBody::Stored(StoredMeta {
                    pid: 12,
                    cycles: 345,
                    writes: 6,
                    diagnostics: vec![Diagnostic {
                        code: "L001".into(),
                        severity: Severity::Warn,
                        span: 1..2,
                        message: "dead store to r\"1\"".into(),
                    }],
                }),
            ),
            resp(
                9,
                ResponseBody::Diagnostics(vec![
                    Diagnostic {
                        code: "L004".into(),
                        severity: Severity::Perf,
                        span: 2..4,
                        message: "missed fusion".into(),
                    },
                    Diagnostic {
                        code: "E002".into(),
                        severity: Severity::Error,
                        span: 0..1,
                        message: "use before def".into(),
                    },
                ]),
            ),
            resp(
                10,
                ResponseBody::Session(SessionInfo {
                    token: "00ff00ff00ff00ff00ff00ff00ff00ff".into(),
                    stats: SessionActivity {
                        requests: 40,
                        errors: 2,
                        cycles: 999,
                        energy_fj: 1.5,
                    },
                    stored_programs: 3,
                    last_seq: Some(39),
                }),
            ),
            resp(
                11,
                ResponseBody::Programs(vec![
                    ProgramEntry {
                        pid: 0,
                        name: Some(AWKWARD_NAME.into()),
                        cycles: 120,
                        writes: 2,
                        runs: 7,
                        errors: 1,
                        total_cycles: 840,
                        total_energy_fj: 123.25,
                        last_status: Some(RunStatus::Error {
                            message: "input 0 must have 9 values".into(),
                        }),
                    },
                    ProgramEntry {
                        pid: 1,
                        name: None,
                        cycles: 3,
                        writes: 0,
                        runs: 0,
                        errors: 0,
                        total_cycles: 0,
                        total_energy_fj: 0.0,
                        last_status: None,
                    },
                ]),
            ),
            resp(
                12,
                ResponseBody::Error(ErrorBody {
                    kind: ErrorKind::LimitExceeded,
                    limit: Some(LimitKind::CycleRate),
                    retry_after_ms: Some(750),
                    code: Some("E002".into()),
                    index: Some(3),
                    message: "budget\texhausted \u{7f} ünïcode".into(),
                }),
            ),
        ]
    }

    /// The exact bytes of every request and response kind, computed from
    /// the `fmt`-based serializer and committed unchanged: how the codec
    /// writes may change, what it writes may not.
    #[test]
    fn wire_lines_are_pinned_byte_for_byte() {
        let requests = [
            r#"{"id":1,"timeout_ms":250,"seq":18446744073709551615,"op":"ping"}"#,
            r#"{"id":2,"op":"dot","precision":8,"x":[0,1,255],"w":[7,128,3]}"#,
            r#"{"id":3,"op":"sub","precision":32,"a":[4294967295,0],"b":[1,2]}"#,
            r#"{"id":4,"op":"xnor","precision":2,"a":[1,3],"b":[2,0]}"#,
            r#"{"id":5,"op":"load_model","precision":4,"prototypes":[[0,15],[],[9]]}"#,
            r#"{"id":6,"op":"classify","x":[10,20]}"#,
            r#"{"id":7,"timeout_ms":0,"op":"exec_program","instrs":[{"i":"write","dst":0,"precision":8,"values":[1,2,3]},{"i":"write_mult","dst":1,"precision":8,"values":[4,5]},{"i":"not","src":0,"dst":2},{"i":"copy","src":2,"dst":3},{"i":"shl","src":3,"dst":4,"precision":8},{"i":"add","a":0,"b":2,"dst":5,"precision":8},{"i":"add_shift","a":0,"b":5,"dst":6,"precision":4},{"i":"sub","a":5,"b":0,"dst":7,"precision":8},{"i":"mult","a":1,"b":1,"dst":8,"precision":8},{"i":"reduce_add","srcs":[0,2,5],"dst":9,"precision":8},{"i":"read","src":9,"precision":8,"n":3},{"i":"read_products","src":8,"precision":8,"n":2},{"i":"and","a":0,"b":2,"dst":10},{"i":"or","a":0,"b":2,"dst":10},{"i":"xor","a":0,"b":2,"dst":10},{"i":"nand","a":0,"b":2,"dst":10},{"i":"nor","a":0,"b":2,"dst":10},{"i":"xnor","a":0,"b":2,"dst":10}]}"#,
            r#"{"id":8,"seq":3,"op":"store_program","instrs":[{"i":"write","dst":0,"precision":8,"values":[1,2,3]},{"i":"write_mult","dst":1,"precision":8,"values":[4,5]}],"name":"q\"b\\n\nc\u0001é"}"#,
            r#"{"id":9,"op":"run_stored","pid":7,"inputs":[[1,2],null,[]]}"#,
            r#"{"id":10,"op":"run_stored","name":"q\"b\\n\nc\u0001é"}"#,
            r#"{"id":11,"op":"list_programs"}"#,
            r#"{"id":12,"op":"delete_program","name":"conv3x3"}"#,
            r#"{"id":13,"op":"open_session"}"#,
            r#"{"id":14,"op":"resume_session","token":"a1b2c3d4e5f60718293a4b5c6d7e8f90"}"#,
            r#"{"id":15,"op":"lint_program","instrs":[{"i":"reduce_add","srcs":[0,2,5],"dst":9,"precision":8},{"i":"read","src":9,"precision":8,"n":3}]}"#,
            r#"{"id":16,"op":"stats"}"#,
            r#"{"id":0,"op":"shutdown"}"#,
        ];
        let reqs = pinned_requests();
        assert_eq!(reqs.len(), requests.len());
        for (req, line) in reqs.into_iter().zip(requests) {
            assert_eq!(req.to_json_line(), line);
            assert_eq!(Request::parse(line).unwrap(), req, "{line}");
        }
        let responses = [
            r#"{"id":1,"ok":true,"kind":"pong"}"#,
            r#"{"id":2,"ok":true,"kind":"scalar","result":18446744073709551615}"#,
            r#"{"id":3,"ok":true,"kind":"words","result":[0,255,1099511627776]}"#,
            r#"{"id":4,"ok":true,"kind":"class","result":3}"#,
            r#"{"id":5,"ok":true,"kind":"ok"}"#,
            r#"{"id":6,"ok":true,"kind":"stats","result":{"requests":12,"errors":1,"cycles":3456,"energy_fj":789.25}}"#,
            r#"{"id":7,"ok":true,"kind":"program","result":{"outputs":[[1,2],[],[3]],"cycles":[1,10,0,1,2],"energy_fj":[100.5,2040.25,0,0.0000001,1000000000000000000000]}}"#,
            r#"{"id":8,"ok":true,"kind":"stored","result":{"pid":12,"cycles":345,"writes":6,"diagnostics":[{"code":"L001","severity":"warn","start":1,"end":2,"message":"dead store to r\"1\""}]}}"#,
            r#"{"id":9,"ok":true,"kind":"diagnostics","result":[{"code":"L004","severity":"perf","start":2,"end":4,"message":"missed fusion"},{"code":"E002","severity":"error","start":0,"end":1,"message":"use before def"}]}"#,
            r#"{"id":10,"ok":true,"kind":"session","result":{"token":"00ff00ff00ff00ff00ff00ff00ff00ff","requests":40,"errors":2,"cycles":999,"energy_fj":1.5,"stored_programs":3,"last_seq":39}}"#,
            r#"{"id":11,"ok":true,"kind":"programs","result":[{"pid":0,"name":"q\"b\\n\nc\u0001é","cycles":120,"writes":2,"runs":7,"errors":1,"total_cycles":840,"total_energy_fj":123.25,"last_status":"error","last_error":"input 0 must have 9 values"},{"pid":1,"cycles":3,"writes":0,"runs":0,"errors":0,"total_cycles":0,"total_energy_fj":0}]}"#,
            concat!(
                r#"{"id":12,"ok":false,"error":"budget\texhausted "#,
                "\u{7f}",
                r#" ünïcode","kind":"limit_exceeded","limit":"cycle_rate","retry_after_ms":750,"code":"E002","index":3}"#
            ),
        ];
        let resps = pinned_responses();
        assert_eq!(resps.len(), responses.len());
        let mut chunk = String::new();
        for (resp, line) in resps.into_iter().zip(responses) {
            assert_eq!(resp.to_json_line(), line);
            assert_eq!(Response::parse(line).unwrap(), resp, "{line}");
            resp.write_json_line(&mut chunk);
            chunk.push('\n');
        }
        // Appending behind earlier lines writes each line's exact bytes.
        assert_eq!(chunk, responses.map(|line| format!("{line}\n")).concat());
    }

    #[test]
    fn malformed_requests_report_the_problem() {
        for (line, needle) in [
            ("not json", "malformed"),
            ("{\"id\":1}", "op"),
            ("{\"id\":1,\"op\":\"frobnicate\"}", "unknown op"),
            ("{\"op\":\"ping\"}", "id"),
            ("{\"id\":1,\"op\":\"dot\",\"precision\":8,\"x\":[1]}", "'w'"),
            (
                "{\"id\":1,\"op\":\"add\",\"precision\":3,\"a\":[],\"b\":[]}",
                "precision",
            ),
            (
                "{\"id\":1,\"op\":\"dot\",\"precision\":8,\"x\":[-1],\"w\":[1]}",
                "'x'",
            ),
            ("{\"id\":1,\"op\":\"exec_program\"}", "'instrs'"),
            (
                "{\"id\":1,\"op\":\"exec_program\",\"instrs\":[{\"i\":\"frobnicate\"}]}",
                "unknown instruction",
            ),
            (
                "{\"id\":1,\"op\":\"exec_program\",\"instrs\":[{\"i\":\"add\",\"a\":0,\"b\":1,\"dst\":99999,\"precision\":8}]}",
                "register 'dst' out of range",
            ),
            (
                "{\"id\":1,\"op\":\"exec_program\",\"instrs\":[{\"i\":\"write\",\"dst\":0,\"precision\":5,\"values\":[]}]}",
                "precision",
            ),
            ("{\"id\":1,\"op\":\"store_program\"}", "'instrs'"),
            ("{\"id\":1,\"op\":\"run_stored\"}", "'pid'"),
            (
                "{\"id\":1,\"op\":\"run_stored\",\"pid\":1,\"inputs\":7}",
                "'inputs' must be an array",
            ),
            (
                "{\"id\":1,\"op\":\"run_stored\",\"pid\":1,\"inputs\":[\"x\"]}",
                "array of integers or null",
            ),
            (
                "{\"id\":1,\"op\":\"run_stored\",\"pid\":1,\"name\":\"x\"}",
                "exactly one of 'pid' or 'name'",
            ),
            ("{\"id\":1,\"op\":\"delete_program\"}", "'pid' or 'name'"),
            (
                "{\"id\":1,\"op\":\"resume_session\"}",
                "missing field 'token'",
            ),
            (
                "{\"id\":1,\"op\":\"resume_session\",\"token\":7}",
                "'token' must be a string",
            ),
            (
                "{\"id\":1,\"op\":\"store_program\",\"instrs\":[],\"name\":7}",
                "'name' must be a string",
            ),
            (
                "{\"id\":1,\"seq\":\"x\",\"op\":\"ping\"}",
                "'seq' must be a non-negative integer",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{line} -> {err} (wanted {needle})"
            );
        }
    }

    #[test]
    fn structured_errors_round_trip() {
        round_trip_response(Response {
            id: 20,
            body: ResponseBody::Error(ErrorBody::limit(
                LimitKind::CycleRate,
                Some(750),
                "session cycle budget exhausted",
            )),
        });
        round_trip_response(Response {
            id: 21,
            body: ResponseBody::Error(ErrorBody::limit(
                LimitKind::ProgramLength,
                None,
                "program too long",
            )),
        });
        round_trip_response(Response {
            id: 22,
            body: ResponseBody::Error(ErrorBody::overloaded(Some(50), "server overloaded")),
        });
        round_trip_response(Response {
            id: 23,
            body: ResponseBody::Error(ErrorBody::deadline("deadline expired in queue")),
        });
        round_trip_response(Response {
            id: 24,
            body: ResponseBody::Error(ErrorBody::invalid_program(
                "E002",
                Some(3),
                "instruction 3 reads register r1 before any write",
            )),
        });
        round_trip_response(Response {
            id: 25,
            body: ResponseBody::Error(ErrorBody::invalid_program(
                "E001",
                None,
                "program needs 200 registers but the macro has 125 rows",
            )),
        });
        round_trip_response(Response {
            id: 26,
            body: ResponseBody::Error(ErrorBody::session_expired(
                "session expired 31s ago; open a fresh one",
            )),
        });
        round_trip_response(Response {
            id: 27,
            body: ResponseBody::Error(ErrorBody::bad_token("unknown session token")),
        });
        for limit in [
            LimitKind::CycleRate,
            LimitKind::EnergyRate,
            LimitKind::Inflight,
            LimitKind::ProgramLength,
            LimitKind::StoredPrograms,
            LimitKind::Sessions,
            LimitKind::RegistryPrograms,
        ] {
            assert_eq!(LimitKind::from_name(limit.name()), Some(limit));
        }
        for kind in [ErrorKind::SessionExpired, ErrorKind::BadToken] {
            assert_eq!(ErrorKind::from_name(kind.name().unwrap()), Some(kind));
        }
    }

    #[test]
    fn generic_errors_stay_wire_compatible() {
        // A generic error serializes exactly as before this protocol grew
        // machine-readable kinds, and unknown kinds degrade to generic.
        let line = Response {
            id: 7,
            body: ResponseBody::Error("no model loaded".into()),
        }
        .to_json_line();
        assert_eq!(
            line,
            "{\"id\":7,\"ok\":false,\"error\":\"no model loaded\"}"
        );
        let parsed =
            Response::parse("{\"id\":3,\"ok\":false,\"error\":\"boom\",\"kind\":\"brand_new\"}")
                .unwrap();
        assert_eq!(parsed.body, ResponseBody::Error(ErrorBody::generic("boom")));
    }

    #[test]
    fn timeout_ms_rides_any_request() {
        let req = Request {
            id: 31,
            timeout_ms: Some(250),
            seq: None,
            body: RequestBody::Ping,
        };
        let line = req.to_json_line();
        assert_eq!(Request::parse(&line).unwrap(), req);
        // Absent and null both mean "no deadline".
        let bare = Request::parse("{\"id\":1,\"op\":\"ping\"}").unwrap();
        assert_eq!(bare.timeout_ms, None);
        let null = Request::parse("{\"id\":1,\"timeout_ms\":null,\"op\":\"ping\"}").unwrap();
        assert_eq!(null.timeout_ms, None);
        let err = Request::parse("{\"id\":1,\"timeout_ms\":\"soon\",\"op\":\"ping\"}").unwrap_err();
        assert!(err.to_string().contains("timeout_ms"));
    }

    #[test]
    fn seq_rides_any_request() {
        let req = Request {
            id: 32,
            timeout_ms: Some(100),
            seq: Some(17),
            body: RequestBody::Dot {
                precision: Precision::P8,
                x: vec![1],
                w: vec![2],
            },
        };
        let line = req.to_json_line();
        assert_eq!(Request::parse(&line).unwrap(), req);
        // Absent and null both mean "not seq-guarded".
        let bare = Request::parse("{\"id\":1,\"op\":\"ping\"}").unwrap();
        assert_eq!(bare.seq, None);
        let null = Request::parse("{\"id\":1,\"seq\":null,\"op\":\"ping\"}").unwrap();
        assert_eq!(null.seq, None);
    }

    #[test]
    fn peek_id_is_explicit_about_missing_ids() {
        // A line with no readable id yields None — not a silent 0 that
        // could be confused with a client actually using id 0.
        assert_eq!(Request::peek_id("garbage"), None);
        assert_eq!(Request::peek_id("{\"op\":\"ping\"}"), None);
        assert_eq!(Request::peek_id("{\"id\":-3,\"op\":\"ping\"}"), None);
        assert_eq!(Request::peek_id("{\"id\":\"seven\",\"op\":\"ping\"}"), None);
        assert_eq!(
            Request::peek_id("{\"id\":42,\"op\":\"frobnicate\"}"),
            Some(42)
        );
        assert_eq!(Request::peek_id("{\"id\":0,\"op\":\"ping\"}"), Some(0));
    }
}
