//! A minimal blocking client for the wire protocol (tests, load
//! generation, CLI tooling), with opt-in resilience: reconnect with
//! capped exponential backoff and safe retry ([`RetryPolicy`]), plus
//! durable sessions ([`Client::open_session`]) that survive reconnects
//! with exactly-once execution of every retried op.

use bpimc_core::{
    Diagnostic, ErrorBody, ErrorKind, LaneOp, Precision, Program, ProgramEntry, ProgramReport,
    Request, RequestBody, Response, ResponseBody, SessionActivity, SessionInfo, StoredMeta,
    StoredTarget,
};
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(std::io::Error),
    /// The server answered `ok:false`; the body carries the
    /// machine-readable kind (`overloaded`, `limit_exceeded`,
    /// `deadline_exceeded`, or generic) alongside the message.
    Server(ErrorBody),
    /// The server answered something the client cannot interpret (bad
    /// line, wrong id, wrong result kind).
    Protocol(String),
}

impl ClientError {
    /// The server shed this request under overload (it never executed;
    /// retrying after [`ClientError::retry_after`] is safe for any op).
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Server(e) if e.kind == ErrorKind::Overloaded)
    }

    /// A per-session limit refused this request before it touched the
    /// array.
    pub fn is_limit_exceeded(&self) -> bool {
        matches!(self, ClientError::Server(e) if e.kind == ErrorKind::LimitExceeded)
    }

    /// The server's back-off hint, when it sent one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ClientError::Server(e) => e.retry_after_ms.map(Duration::from_millis),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failed: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Opt-in resilience for a [`Client`]: how many times to attempt an
/// operation, with capped exponential backoff between attempts.
///
/// # The retry contract
///
/// With a policy set, **any** op is retried after an `overloaded` shed —
/// the server refuses sheds before executing anything, so a retry can
/// never double-apply.
///
/// Across **transport errors** (connection reset, EOF mid-exchange) the
/// safe set depends on the session:
///
/// - Without a durable session, only the read-only session-free ops
///   (`ping`, `dot`, the lane-wise ops, `lint_program`) are retried
///   across a reconnect. A mid-exchange drop leaves it unknowable
///   whether the server executed the request, so anything stateful
///   (`load_model`, `store_program`, `run_stored`, even `stats`, whose
///   answer bills the account) is *not* replayed — and a plain reconnect
///   is a fresh session anyway.
/// - With a durable session ([`Client::open_session`]), the client
///   stamps every request with a per-session `seq` number and the server
///   keeps a replay window: a retried request whose original already
///   executed gets the **recorded response replayed** — never a second
///   execution, never a second bill. That guard makes *every* seq-stamped
///   op transport-retryable, so the client reconnects, resumes the
///   session by token inside the retry path, and resends the same seq.
///
/// Transient server refusals (sheds, rate-budget and inflight limits)
/// never consume a seq server-side, so a retried refusal re-admits fresh
/// rather than replaying the refusal.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (the first try included).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_delay * 2^n`, capped at
    /// `max_delay`.
    pub base_delay: Duration,
    /// Ceiling on any single backoff (also caps a server `retry_after`
    /// hint).
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    fn delay(&self, attempt: u32) -> Duration {
        self.base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay)
    }
}

/// A blocking connection to a compute server: one request, one response,
/// in order.
///
/// See the crate documentation for a usage example.
pub struct Client {
    /// The resolved address, kept for [`Client::reconnect`].
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    /// The queue of sent requests, flushed by [`Client::recv`] right
    /// before it would block.
    writer: BufWriter<TcpStream>,
    /// The request line buffer, reused by every [`Client::send`].
    out: String,
    /// The response line buffer, reused by every [`Client::recv`].
    line: String,
    next_id: u64,
    /// Stamped on every request when set ([`Client::set_timeout_ms`]).
    timeout_ms: Option<u64>,
    retry: Option<RetryPolicy>,
    /// The durable-session token, once [`Client::open_session`] or
    /// [`Client::resume_session`] succeeded.
    token: Option<String>,
    /// The next idempotency seq to stamp (durable sessions only).
    next_seq: u64,
    /// Successful re-dials ([`Client::reconnect`]) over this client's
    /// lifetime.
    reconnects: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        let (reader, writer) = Self::dial(addr)?;
        Ok(Client {
            addr,
            reader,
            writer,
            out: String::new(),
            line: String::new(),
            next_id: 1,
            timeout_ms: None,
            retry: None,
            token: None,
            next_seq: 0,
            reconnects: 0,
        })
    }

    fn dial(addr: SocketAddr) -> std::io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
        let stream = TcpStream::connect(addr)?;
        // Requests are complete lines the server acts on immediately;
        // never let Nagle hold one back waiting for a delayed ACK.
        let _ = stream.set_nodelay(true);
        let writer = BufWriter::new(stream.try_clone()?);
        Ok((BufReader::new(stream), writer))
    }

    /// Sets the deadline stamped on every subsequent request (`None`
    /// clears it). Past the deadline the server answers a
    /// `deadline_exceeded` error instead of executing.
    pub fn set_timeout_ms(&mut self, timeout_ms: Option<u64>) {
        self.timeout_ms = timeout_ms;
    }

    /// Opts into resilience: retry `overloaded` sheds (any op) and
    /// transport failures across a reconnect — for session-free
    /// read-only ops always, and for **every** op once a durable session
    /// is open (its seq guard makes replays exactly-once; see
    /// [`RetryPolicy`] for the full contract) — per the policy's
    /// attempt/backoff schedule.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// The durable-session token this client holds, if any.
    pub fn session_token(&self) -> Option<&str> {
        self.token.as_deref()
    }

    /// How many times this client successfully re-dialed the server
    /// ([`Client::reconnect`] — explicit calls and the automatic retry
    /// path alike). Chaos harnesses use this to confirm connection drops
    /// actually happened and were survived.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Drops the current connection and dials the server again. Requests
    /// queued by [`Client::send`] and not yet written are discarded:
    /// they reach neither connection.
    ///
    /// Without a durable session, a new connection is a **new session**:
    /// the loaded model, stored programs and activity account do not
    /// carry over. With one ([`Client::open_session`]), the session is
    /// resumed by token on the new connection before this returns, so
    /// all of that state carries over intact.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the new connection cannot be
    /// established (the client keeps the old, likely dead, streams and
    /// their queue), or the server's error when the held token no longer
    /// resumes (`session_expired` after the TTL ran out).
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let (reader, writer) = Self::dial(self.addr)?;
        self.reader = reader;
        // Dropping a `BufWriter` would flush the unsent queue to the old
        // connection; `into_parts` hands it back to be dropped unwritten.
        drop(std::mem::replace(&mut self.writer, writer).into_parts());
        self.reconnects += 1;
        if self.token.is_some() {
            self.resume_attached()?;
        }
        Ok(())
    }

    /// Stamps the next idempotency seq onto `body`'s request, when one
    /// applies: the client holds a durable session and the op is not
    /// itself session management (`open_session` / `resume_session`
    /// address session identity and are natural-idempotent without one).
    fn assign_seq(&mut self, body: &RequestBody) -> Option<u64> {
        if self.token.is_none()
            || matches!(
                body,
                RequestBody::OpenSession | RequestBody::ResumeSession { .. }
            )
        {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(seq)
    }

    /// Sends one request without waiting for its response, returning the
    /// assigned id — the pipelining half: keep several requests in flight
    /// and collect their responses with [`Client::recv`]. The protocol
    /// answers in request order per connection, so responses match the
    /// send order. On a durable session each send is stamped with a fresh
    /// idempotency seq.
    ///
    /// The request is queued, not written: it reaches the socket when
    /// [`Client::recv`] or [`Client::call`] must wait for a response,
    /// when the queue outgrows the `BufWriter`'s buffer, or when the
    /// client is dropped. [`Client::reconnect`] discards it.
    ///
    /// # Errors
    ///
    /// Fails on transport errors (only a write of an outgrown queue can
    /// meet one here).
    pub fn send(&mut self, body: RequestBody) -> Result<u64, ClientError> {
        let seq = self.assign_seq(&body);
        self.send_with(body, seq)
    }

    fn send_with(&mut self, body: RequestBody, seq: Option<u64>) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.out.clear();
        Request {
            id,
            seq,
            timeout_ms: self.timeout_ms,
            body,
        }
        .write_json_line(&mut self.out);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())?;
        Ok(id)
    }

    /// Blocks for the next response line (pairs with [`Client::send`]).
    ///
    /// A response already buffered from an earlier read is returned
    /// without touching the socket. Otherwise the requests queued by
    /// [`Client::send`] are written first, in one `write`, right before
    /// the read that waits.
    ///
    /// # Errors
    ///
    /// Fails on transport errors — the server closing the connection
    /// before a whole line arrived is one — or an unparseable line; a
    /// server-side `Error` body is returned as a normal [`Response`].
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if !self.reader.buffer().contains(&b'\n') {
            self.writer.flush()?;
        }
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        if !self.line.ends_with('\n') {
            // EOF, with or without part of a line, is a transport failure
            // (the peer vanished), not a protocol violation —
            // reconnect/retry logic keys on `Io`.
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Response::parse(&self.line).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Sends one request and blocks for its response. Ids are assigned
    /// sequentially and verified against the response. The request, and
    /// any queued before it, is written before the call blocks.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an id mismatch; a server-side `Error`
    /// body is returned as a normal [`Response`].
    pub fn call(&mut self, body: RequestBody) -> Result<Response, ClientError> {
        let seq = self.assign_seq(&body);
        self.call_with(body, seq)
    }

    fn call_with(&mut self, body: RequestBody, seq: Option<u64>) -> Result<Response, ClientError> {
        let id = self.send_with(body, seq)?;
        let resp = self.recv()?;
        if resp.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                resp.id
            )));
        }
        Ok(resp)
    }

    /// One request/response exchange with the configured resilience:
    /// `overloaded` sheds are retried for any op (a shed request never
    /// executed); transport failures are retried across a reconnect when
    /// the op is `idempotent` (read-only and session-free) **or**
    /// seq-stamped on a durable session (the server's replay guard makes
    /// the resend exactly-once). The same seq rides every resend of one
    /// logical op.
    fn expect(&mut self, body: RequestBody, idempotent: bool) -> Result<ResponseBody, ClientError> {
        let seq = self.assign_seq(&body);
        let mut attempt: u32 = 0;
        loop {
            let can_retry = self
                .retry
                .is_some_and(|policy| attempt + 1 < policy.max_attempts);
            match self.call_with(body.clone(), seq) {
                Ok(resp) => match resp.body {
                    ResponseBody::Error(err) if err.kind == ErrorKind::Overloaded && can_retry => {
                        let policy = self.retry.expect("can_retry implies a policy");
                        let backoff = err
                            .retry_after_ms
                            .map_or_else(|| policy.delay(attempt), Duration::from_millis)
                            .min(policy.max_delay);
                        std::thread::sleep(backoff);
                    }
                    ResponseBody::Error(err) => return Err(ClientError::Server(err)),
                    other => return Ok(other),
                },
                Err(ClientError::Io(_)) if (idempotent || seq.is_some()) && can_retry => {
                    let policy = self.retry.expect("can_retry implies a policy");
                    std::thread::sleep(policy.delay(attempt));
                    // Reconnect (and auto-resume the session, if durable).
                    // A resume the server refuses outright — the session
                    // expired or the token is bad — ends the retry loop:
                    // resending the op without its session would execute
                    // it against fresh state. A failed dial just surfaces
                    // as the next attempt's transport error (or exhausts
                    // the attempt budget).
                    match self.reconnect() {
                        Ok(()) | Err(ClientError::Io(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
            attempt += 1;
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors (also below).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.expect(RequestBody::Ping, true)? {
            ResponseBody::Pong => Ok(()),
            other => Err(protocol_kind("pong", &other)),
        }
    }

    /// In-memory dot product of two equal-length quantized vectors.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors.
    pub fn dot(&mut self, precision: Precision, x: &[u64], w: &[u64]) -> Result<u64, ClientError> {
        let body = RequestBody::Dot {
            precision,
            x: x.to_vec(),
            w: w.to_vec(),
        };
        match self.expect(body, true)? {
            ResponseBody::Scalar(n) => Ok(n),
            other => Err(protocol_kind("scalar", &other)),
        }
    }

    /// A lane-wise two-operand op (`add`/`sub`/`mult`/logic).
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors.
    pub fn lanes(
        &mut self,
        op: LaneOp,
        precision: Precision,
        a: &[u64],
        b: &[u64],
    ) -> Result<Vec<u64>, ClientError> {
        let body = RequestBody::Lanes {
            op,
            precision,
            a: a.to_vec(),
            b: b.to_vec(),
        };
        match self.expect(body, true)? {
            ResponseBody::Words(ws) => Ok(ws),
            other => Err(protocol_kind("words", &other)),
        }
    }

    /// Stores quantized class prototypes in this session for `classify`.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors.
    pub fn load_model(
        &mut self,
        precision: Precision,
        prototypes: &[Vec<u64>],
    ) -> Result<(), ClientError> {
        let body = RequestBody::LoadModel {
            precision,
            prototypes: prototypes.to_vec(),
        };
        match self.expect(body, false)? {
            ResponseBody::Ok => Ok(()),
            other => Err(protocol_kind("ok", &other)),
        }
    }

    /// Classifies a quantized sample against the session's loaded model.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors.
    pub fn classify(&mut self, x: &[u64]) -> Result<usize, ClientError> {
        match self.expect(RequestBody::Classify { x: x.to_vec() }, false)? {
            ResponseBody::Class(c) => Ok(c),
            other => Err(protocol_kind("class", &other)),
        }
    }

    /// Runs a whole typed [`Program`] on the server in one round trip,
    /// returning its read outputs and exact per-instruction
    /// cycles/energy accounting.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors; a program that does
    /// not validate server-side is a server error.
    pub fn exec_program(&mut self, program: &Program) -> Result<ProgramReport, ClientError> {
        let body = RequestBody::ExecProgram {
            instrs: program.instrs().to_vec(),
        };
        match self.expect(body, false)? {
            ResponseBody::Program(r) => Ok(r),
            other => Err(protocol_kind("program", &other)),
        }
    }

    /// Stores a typed [`Program`] in this session: the server validates,
    /// lowers and compiles it once, and returns the id (plus static cycle
    /// cost and bindable write count) for [`Client::run_stored`] calls.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors; a program that does
    /// not validate server-side is a server error.
    pub fn store_program(&mut self, program: &Program) -> Result<StoredMeta, ClientError> {
        let body = RequestBody::StoreProgram {
            instrs: program.instrs().to_vec(),
            name: None,
        };
        match self.expect(body, false)? {
            ResponseBody::Stored(meta) => Ok(meta),
            other => Err(protocol_kind("stored", &other)),
        }
    }

    /// [`Client::store_program`] under a registry name: later calls can
    /// address the program by name ([`Client::run_stored_named`],
    /// [`Client::delete_program`]) instead of remembering the pid. Names
    /// are unique per session; storing a second program under a live name
    /// is a server error.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors.
    pub fn store_program_named(
        &mut self,
        program: &Program,
        name: impl Into<String>,
    ) -> Result<StoredMeta, ClientError> {
        let body = RequestBody::StoreProgram {
            instrs: program.instrs().to_vec(),
            name: Some(name.into()),
        };
        match self.expect(body, false)? {
            ResponseBody::Stored(meta) => Ok(meta),
            other => Err(protocol_kind("stored", &other)),
        }
    }

    /// The session's stored-program registry: every entry with its name
    /// (if any), static cost facts, and cumulative run history (runs,
    /// errors, total cycles/energy, last status), ordered by pid.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors.
    pub fn list_programs(&mut self) -> Result<Vec<ProgramEntry>, ClientError> {
        match self.expect(RequestBody::ListPrograms, true)? {
            ResponseBody::Programs(entries) => Ok(entries),
            other => Err(protocol_kind("programs", &other)),
        }
    }

    /// Deletes a stored program (by pid or name), freeing its
    /// per-session and registry-wide slots.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors; an unknown target
    /// is a server error.
    pub fn delete_program(&mut self, target: StoredTarget) -> Result<(), ClientError> {
        match self.expect(RequestBody::DeleteProgram { target }, false)? {
            ResponseBody::Ok => Ok(()),
            other => Err(protocol_kind("ok", &other)),
        }
    }

    /// Statically analyzes a typed [`Program`] server-side — validation
    /// plus lint — and returns its diagnostics without storing or
    /// executing anything. An empty vector means the stream is valid and
    /// the linter found nothing to say; a validation failure comes back
    /// as an `error`-severity diagnostic, not a request error.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors (the request is
    /// idempotent and retried like other read-only ops).
    pub fn lint_program(&mut self, program: &Program) -> Result<Vec<Diagnostic>, ClientError> {
        let body = RequestBody::LintProgram {
            instrs: program.instrs().to_vec(),
        };
        match self.expect(body, true)? {
            ResponseBody::Diagnostics(diags) => Ok(diags),
            other => Err(protocol_kind("diagnostics", &other)),
        }
    }

    /// Runs a stored program. `inputs` rebinds the program's write values
    /// (one entry per `write`/`write_mult` in submitted order, `None`
    /// keeping the stored values); pass `&[]` to run it exactly as stored.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors; an unknown id or a
    /// bad binding is a server error.
    pub fn run_stored(
        &mut self,
        pid: u64,
        inputs: &[Option<Vec<u64>>],
    ) -> Result<ProgramReport, ClientError> {
        let body = RequestBody::RunStored {
            target: StoredTarget::Pid(pid),
            inputs: inputs.to_vec(),
        };
        match self.expect(body, false)? {
            ResponseBody::Program(r) => Ok(r),
            other => Err(protocol_kind("program", &other)),
        }
    }

    /// [`Client::run_stored`], addressing the program by its registry
    /// name instead of its pid.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors; an unknown name or
    /// a bad binding is a server error.
    pub fn run_stored_named(
        &mut self,
        name: impl Into<String>,
        inputs: &[Option<Vec<u64>>],
    ) -> Result<ProgramReport, ClientError> {
        let body = RequestBody::RunStored {
            target: StoredTarget::Name(name.into()),
            inputs: inputs.to_vec(),
        };
        match self.expect(body, false)? {
            ResponseBody::Program(r) => Ok(r),
            other => Err(protocol_kind("program", &other)),
        }
    }

    /// This session's activity account (state before this request).
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors.
    pub fn stats(&mut self) -> Result<SessionActivity, ClientError> {
        match self.expect(RequestBody::Stats, false)? {
            ResponseBody::Stats(s) => Ok(s),
            other => Err(protocol_kind("stats", &other)),
        }
    }

    /// Upgrades this connection's session to a **durable** one: the
    /// server registers it under an unguessable token (returned in the
    /// [`SessionInfo`]) and the client holds that token from here on —
    /// stamping every request with an idempotency seq, auto-resuming the
    /// session inside [`Client::reconnect`], and safely retrying all
    /// seq-guarded ops across transport errors (see [`RetryPolicy`]).
    ///
    /// State accumulated on the connection so far (model, stored
    /// programs, account) moves into the durable session. Calling this
    /// on an already-durable connection returns the existing session's
    /// info rather than a second token.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors — a full registry
    /// answers `limit_exceeded` naming `sessions`. A transport retry of
    /// this op may leave an orphaned session behind on the server; it is
    /// swept after the TTL.
    pub fn open_session(&mut self) -> Result<SessionInfo, ClientError> {
        match self.expect(RequestBody::OpenSession, true)? {
            ResponseBody::Session(info) => {
                self.token = Some(info.token.clone());
                self.next_seq = info.last_seq.map_or(0, |s| s + 1);
                Ok(info)
            }
            other => Err(protocol_kind("session", &other)),
        }
    }

    /// Attaches this connection to an existing durable session by token,
    /// restoring its model, stored programs, account and in-window rate
    /// budgets. On success the client continues the session's
    /// idempotency sequence where it left off (`last_seq + 1`).
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors: `session_expired`
    /// when the session sat detached past the server's TTL and was
    /// collected, `bad_token` for a token the server never issued, and a
    /// busy refusal while another live connection holds the session
    /// (retried with the server's back-off hint when a [`RetryPolicy`]
    /// is set). On failure the client holds no session.
    pub fn resume_session(&mut self, token: impl Into<String>) -> Result<SessionInfo, ClientError> {
        self.token = Some(token.into());
        match self.resume_attached() {
            Ok(info) => Ok(info),
            Err(e) => {
                self.token = None;
                Err(e)
            }
        }
    }

    /// Resumes the held token on the current connection, retrying busy
    /// refusals (the old connection's reader has not let go yet — a
    /// transient server-side race) per the retry policy.
    fn resume_attached(&mut self) -> Result<SessionInfo, ClientError> {
        let token = self
            .token
            .clone()
            .expect("resume_attached requires a held token");
        let mut attempt: u32 = 0;
        loop {
            let resp = self.call_with(
                RequestBody::ResumeSession {
                    token: token.clone(),
                },
                None,
            )?;
            match resp.body {
                ResponseBody::Session(info) => {
                    // Never rewind: the server's watermark can trail our
                    // counter when recent stamped ops were all refused
                    // (refusals do not consume a seq).
                    if let Some(last) = info.last_seq {
                        self.next_seq = self.next_seq.max(last + 1);
                    }
                    return Ok(info);
                }
                ResponseBody::Error(err) => {
                    let can_retry = self
                        .retry
                        .is_some_and(|policy| attempt + 1 < policy.max_attempts);
                    let busy = err.kind == ErrorKind::Generic && err.retry_after_ms.is_some();
                    if !(busy && can_retry) {
                        return Err(ClientError::Server(err));
                    }
                    let policy = self.retry.expect("can_retry implies a policy");
                    let backoff = err
                        .retry_after_ms
                        .map_or_else(|| policy.delay(attempt), Duration::from_millis)
                        .min(policy.max_delay);
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                other => return Err(protocol_kind("session", &other)),
            }
        }
    }

    /// Asks the server to drain queued work and shut down.
    ///
    /// # Errors
    ///
    /// Fails on transport, server or protocol errors.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.expect(RequestBody::Shutdown, false)? {
            ResponseBody::Ok => Ok(()),
            other => Err(protocol_kind("ok", &other)),
        }
    }
}

fn protocol_kind(wanted: &str, got: &ResponseBody) -> ClientError {
    ClientError::Protocol(format!("expected a '{wanted}' response, got {got:?}"))
}
