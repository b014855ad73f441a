//! Per-connection streaming session tables.
//!
//! A session is `OPEN → ABSORB* → FINALIZE → SQUEEZE* → CLOSE`, scoped
//! to its connection. The table enforces the state machine at frame
//! arrival (out-of-order frames are connection-fatal [`Violation`]s),
//! queues each accepted frame as one [`SessionOp`], and drives the
//! queue against the service one operation at a time: the session's
//! state — a flat algorithm's [`SpongeState`] or a tree algorithm's
//! [`TreeState`] — rides a [`StreamRequest`] or [`TreeRequest`] through
//! the service and comes back, advanced, in the completion. A finalized
//! tree hands back its root sponge, so its SQUEEZE and CLOSE frames take
//! the flat path.
//!
//! Memory stays bounded by construction: a session holds the framing
//! prefix (flat) or two sponge states (tree, whatever its block size)
//! plus the queued chunks the connection's in-flight window admits —
//! never the whole message.
//!
//! Backpressure never loses session bytes: a refused service submission
//! hands the request back (`try_submit_as`), the operation stays parked
//! at the queue front, and the I/O thread retries it [`RETRY`] (1 ms)
//! after each refusal until the service takes it. The retry time is
//! fixed at the refusal, so traffic that wakes the thread sooner does
//! not put it off. Service failures (a lost worker, an expired
//! deadline) and the tree leaf cap poison the session — every queued
//! and later operation is answered with the failure's typed error, and
//! only `CLOSE` (which always succeeds) frees the id.

use crate::conn::{service_error, Outbox};
use crate::plan::{self, ServePlan};
use crate::poll::{IoCtx, RETRY};
use crate::protocol::{AlgorithmParams, ErrorCode, Response, WireAlgorithm};
use krv_service::{Request, RequestError, StreamOutput, StreamRequest, SubmitError, TreeRequest};
use krv_sha3::sp800_185::tuple_entry_prefix;
use krv_sha3::tree::TreeMode;
use krv_sha3::{SpongeState, TreeState};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// A connection-fatal session protocol violation: the connection
/// replies with the typed error and drains, exactly like a framing
/// violation.
#[derive(Debug)]
pub(crate) struct Violation {
    /// The error code for the reply.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
}

impl Violation {
    fn bad_session(detail: String) -> Self {
        Self {
            code: ErrorCode::BadSession,
            detail,
        }
    }

    fn state(detail: impl Into<String>) -> Self {
        Self {
            code: ErrorCode::SessionState,
            detail: detail.into(),
        }
    }
}

/// What a session carries between operations.
#[derive(Debug)]
pub(crate) enum SessionState {
    /// A single sponge: the flat algorithms, and a finalized tree's root.
    Flat(Box<SpongeState>),
    /// A chunked tree mid-message.
    Tree(Box<TreeState>),
}

/// A session operation's completion, routed back to its session through
/// the I/O inbox.
#[derive(Debug)]
pub(crate) struct SessionEvent {
    /// The owning connection's token.
    pub token: u64,
    /// The wire session id.
    pub session: u64,
    /// The advanced state and the squeezed bytes, or the failure.
    pub result: Result<(SessionState, Vec<u8>), RequestError>,
}

/// One queued session operation. The request id rides along so the
/// reply (or the failure flush) answers the right frame.
#[derive(Debug)]
enum SessionOp {
    /// An ABSORB: the absorb input (flat sessions frame the chunk with
    /// any unconsumed prefix and TupleHash's entry header). Drained into
    /// the service request while the operation is in flight.
    Absorb {
        /// The request id.
        id: u64,
        /// Bytes to absorb.
        bytes: Vec<u8>,
    },
    /// A FINALIZE: `bytes` is a flat session's remaining framing
    /// (unconsumed prefix plus the `right_encode(L·8)` suffix).
    Finalize {
        /// The request id.
        id: u64,
        /// Framing absorbed before the pad.
        bytes: Vec<u8>,
        /// The declared total output length (0 = unbounded XOF).
        output_len: usize,
    },
    /// A SQUEEZE of `len` bytes.
    Squeeze {
        /// The request id.
        id: u64,
        /// Output bytes to squeeze.
        len: usize,
    },
    /// A CLOSE; always succeeds and removes the session.
    Close {
        /// The request id.
        id: u64,
    },
}

impl SessionOp {
    fn id(&self) -> u64 {
        match self {
            SessionOp::Absorb { id, .. }
            | SessionOp::Finalize { id, .. }
            | SessionOp::Squeeze { id, .. }
            | SessionOp::Close { id } => *id,
        }
    }
}

/// Where the session is in its logical lifecycle — validated at frame
/// arrival, ahead of the (asynchronous) service work.
#[derive(Debug)]
enum Phase {
    Absorbing,
    Squeezing {
        /// Output bytes still squeezable under the FINALIZE-declared
        /// budget; `None` is an unbounded XOF.
        remaining: Option<usize>,
    },
}

/// What one drive step of the front operation concluded.
enum Step {
    /// The front operation finished synchronously; drive the next.
    Done,
    /// Waiting on the service (an in-flight operation or backpressure);
    /// driven on by its completion event, or retried at the session's
    /// `retry_at`.
    Parked,
    /// The session is finished; remove it from the table.
    Remove,
}

#[derive(Debug)]
struct Session {
    algorithm: WireAlgorithm,
    /// Refreshed by every frame and completion; sessions idle past
    /// [`crate::ServerConfig::session_idle_timeout`] are reaped.
    last_touch: Instant,
    queue: VecDeque<SessionOp>,
    /// The state between operations; `None` while the front operation
    /// carries it through the service, and for good once a failure has
    /// lost it.
    state: Option<SessionState>,
    /// A service failure poisoned the session; every operation until
    /// CLOSE answers with this error.
    failed: Option<(ErrorCode, String)>,
    /// Set while the front operation waits for queue room: when to
    /// submit it again, [`RETRY`] after the refusal.
    retry_at: Option<Instant>,
    phase: Phase,
    /// Framing a flat session absorbs ahead of the first message byte;
    /// taken by the first ABSORB/FINALIZE to enqueue. (A tree's root
    /// prefix lives in its [`TreeState`].)
    prefix: Vec<u8>,
    /// TupleHash: every ABSORB chunk is one tuple entry, absorbed
    /// behind its `left_encode(len·8)` header.
    tuple: bool,
}

impl Session {
    /// Whether an operation is in the service.
    fn in_flight(&self) -> bool {
        self.state.is_none() && self.failed.is_none()
    }

    /// Drives the queue until it parks or the session ends. Returns
    /// whether to remove the session from the table.
    fn drive(&mut self, session: u64, ctx: &IoCtx, io: &Outbox) -> bool {
        loop {
            if let Some((code, detail)) = &self.failed {
                // Failure flush: every queued operation answers with
                // the poisoning error; CLOSE still succeeds.
                let Some(op) = self.queue.pop_front() else {
                    return false;
                };
                if let SessionOp::Close { id } = op {
                    io.reply_op(&Response::Closed { id, session });
                    return true;
                }
                io.reply_op(&Response::Error {
                    id: op.id(),
                    code: *code,
                    detail: detail.clone(),
                });
                continue;
            }
            if self.in_flight() || self.queue.is_empty() {
                return false;
            }
            match self.step(session, ctx, io) {
                Step::Done => {}
                Step::Parked => return false,
                Step::Remove => return true,
            }
        }
    }

    /// One drive step of the front operation: answer it inline, or
    /// submit it with the session's state.
    fn step(&mut self, session: u64, ctx: &IoCtx, io: &Outbox) -> Step {
        self.retry_at = None;
        let (bytes, finalize, squeeze_len) = match self.queue.front_mut() {
            Some(SessionOp::Close { id }) => {
                io.reply_op(&Response::Closed { id: *id, session });
                return Step::Remove;
            }
            Some(SessionOp::Absorb { id, bytes }) if bytes.is_empty() => {
                // Nothing to absorb (an empty chunk with the framing
                // prefix already consumed): acknowledge inline without
                // a service round-trip.
                io.reply_op(&Response::Absorbed { id: *id, session });
                self.queue.pop_front();
                return Step::Done;
            }
            Some(SessionOp::Absorb { bytes, .. }) => (std::mem::take(bytes), None, 0),
            Some(SessionOp::Finalize {
                bytes, output_len, ..
            }) => (std::mem::take(bytes), Some(*output_len), 0),
            Some(SessionOp::Squeeze { len, .. }) => (Vec::new(), None, *len),
            None => unreachable!("drive checked non-empty"),
        };
        let token = io.token;
        let refused = match self.state.take().expect("drive checked the state is home") {
            SessionState::Flat(state) => {
                let request = StreamRequest {
                    state,
                    absorb: bytes,
                    finalize: finalize.is_some(),
                    squeeze_len,
                    deadline: None,
                };
                submit(ctx, token, session, request, SessionState::Flat).map_err(
                    |(request, error)| (SessionState::Flat(request.state), request.absorb, error),
                )
            }
            SessionState::Tree(state) => {
                let absorbed = state.absorbed() + bytes.len();
                if let Some(detail) = over_leaf_cap(state.mode(), absorbed, ctx) {
                    self.failed = Some((ErrorCode::SessionLimit, detail));
                    return Step::Done;
                }
                // A finalized tree hands back its root sponge.
                let settle: fn(Box<TreeState>) -> SessionState = match finalize {
                    Some(_) => |tree| SessionState::Flat(Box::new(tree.into_root())),
                    None => SessionState::Tree,
                };
                let request = TreeRequest {
                    state,
                    chunk: bytes,
                    finalize,
                    squeeze_len,
                    deadline: None,
                };
                submit(ctx, token, session, request, settle).map_err(|(request, error)| {
                    (SessionState::Tree(request.state), request.chunk, error)
                })
            }
        };
        let Err((state, bytes, error)) = refused else {
            return Step::Parked;
        };
        // Park the operation with its state and bytes for an identical
        // resubmission.
        self.state = Some(state);
        if let Some(
            SessionOp::Absorb { bytes: parked, .. } | SessionOp::Finalize { bytes: parked, .. },
        ) = self.queue.front_mut()
        {
            *parked = bytes;
        }
        if matches!(error, SubmitError::ShuttingDown) {
            self.failed = Some((ErrorCode::ShuttingDown, "daemon is draining".into()));
            return Step::Done;
        }
        self.retry_at = Some(Instant::now() + RETRY);
        Step::Parked
    }

    /// Whether the session holds work the reaper must not interrupt.
    fn active(&self) -> bool {
        self.in_flight() || !self.queue.is_empty()
    }
}

/// Submits one session operation for `token`'s connection. The
/// completion comes back through the I/O inbox with `settle` wrapping
/// the advanced state; a refusal hands the request back.
fn submit<R, S>(
    ctx: &IoCtx,
    token: u64,
    session: u64,
    request: R,
    settle: fn(Box<S>) -> SessionState,
) -> Result<(), (R, SubmitError)>
where
    R: Request<Output = StreamOutput<S>>,
    S: 'static,
{
    let ticket = ctx.service.try_submit_as(token, request)?;
    let shared = Arc::clone(&ctx.shared);
    ticket.on_complete(move |completion| {
        shared.post_event(SessionEvent {
            token,
            session,
            result: completion
                .result
                .map(|output| (settle(output.state), output.output)),
        });
    });
    Ok(())
}

/// The tree leaf cap: refuses a message of `len` bytes whose root would
/// absorb more than [`crate::ServerConfig::max_tree_leaves`] leaf
/// digests, with the `SESSION_LIMIT` detail.
pub(crate) fn over_leaf_cap(mode: TreeMode, len: usize, ctx: &IoCtx) -> Option<String> {
    let leaves = mode.leaf_count(len);
    let cap = ctx.config.max_tree_leaves;
    (leaves > cap).then(|| format!("message needs {leaves} leaves, over the {cap}-leaf cap"))
}

/// One connection's sessions, by wire session id.
#[derive(Debug, Default)]
pub(crate) struct SessionTable {
    sessions: HashMap<u64, Session>,
}

impl SessionTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drives one session, removing it if it finished.
    fn drive(&mut self, session: u64, ctx: &IoCtx, io: &Outbox) {
        let Some(entry) = self.sessions.get_mut(&session) else {
            return;
        };
        if entry.drive(session, ctx, io) {
            self.sessions.remove(&session);
        }
    }

    /// An OPEN frame: creates the session (or answers why not).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadSession`] (fatal) if the id is already open.
    pub fn open(
        &mut self,
        id: u64,
        session: u64,
        algorithm: WireAlgorithm,
        params: &AlgorithmParams,
        ctx: &IoCtx,
        io: &Outbox,
    ) -> Result<(), Violation> {
        if self.sessions.contains_key(&session) {
            return Err(Violation::bad_session(format!(
                "session {session} is already open"
            )));
        }
        if self.sessions.len() >= ctx.config.max_sessions {
            io.reply(&Response::Error {
                id,
                code: ErrorCode::SessionLimit,
                detail: format!(
                    "connection session cap of {} reached",
                    ctx.config.max_sessions
                ),
            });
            return Ok(());
        }
        let (state, prefix, tuple) = match plan::plan(algorithm, params) {
            ServePlan::Flat(flat) => (
                SessionState::Flat(Box::new(SpongeState::new(flat.params))),
                flat.prefix,
                flat.tuple,
            ),
            ServePlan::Tree(tree) => (
                SessionState::Tree(Box::new(TreeState::new(tree.mode, &tree.customization))),
                Vec::new(),
                false,
            ),
        };
        self.sessions.insert(
            session,
            Session {
                algorithm,
                last_touch: Instant::now(),
                queue: VecDeque::new(),
                state: Some(state),
                failed: None,
                retry_at: None,
                phase: Phase::Absorbing,
                prefix,
                tuple,
            },
        );
        io.reply(&Response::Opened { id, session });
        Ok(())
    }

    /// An ABSORB frame: queues the chunk (framed for its algorithm) and
    /// drives the session.
    ///
    /// # Errors
    ///
    /// Fatal violations: an unknown session, or absorbing after
    /// FINALIZE.
    pub fn absorb(
        &mut self,
        id: u64,
        session: u64,
        chunk: Vec<u8>,
        ctx: &IoCtx,
        io: &Outbox,
    ) -> Result<(), Violation> {
        let Some(entry) = self.sessions.get_mut(&session) else {
            return Err(unknown_session("ABSORB", session));
        };
        entry.last_touch = Instant::now();
        if let Some((code, detail)) = entry.failed.clone() {
            io.reply(&Response::Error { id, code, detail });
            return Ok(());
        }
        if !matches!(entry.phase, Phase::Absorbing) {
            return Err(Violation::state(format!(
                "ABSORB on session {session} after FINALIZE"
            )));
        }
        let bytes = if entry.prefix.is_empty() && !entry.tuple {
            chunk
        } else {
            let mut bytes = std::mem::take(&mut entry.prefix);
            if entry.tuple {
                bytes.extend_from_slice(&tuple_entry_prefix(chunk.len()));
            }
            bytes.extend_from_slice(&chunk);
            bytes
        };
        entry.queue.push_back(SessionOp::Absorb { id, bytes });
        io.hold();
        self.drive(session, ctx, io);
        Ok(())
    }

    /// A FINALIZE frame: validates the declared output length, arms the
    /// squeeze budget, queues the finalizing operation.
    ///
    /// # Errors
    ///
    /// Fatal violations: an unknown session, a second FINALIZE, or an
    /// output length the algorithm does not allow.
    pub fn finalize(
        &mut self,
        id: u64,
        session: u64,
        output_len: usize,
        ctx: &IoCtx,
        io: &Outbox,
    ) -> Result<(), Violation> {
        let Some(entry) = self.sessions.get_mut(&session) else {
            return Err(unknown_session("FINALIZE", session));
        };
        entry.last_touch = Instant::now();
        if let Some((code, detail)) = entry.failed.clone() {
            io.reply(&Response::Error { id, code, detail });
            return Ok(());
        }
        if !matches!(entry.phase, Phase::Absorbing) {
            return Err(Violation::state(format!(
                "second FINALIZE on session {session}"
            )));
        }
        let budget = match plan::finalize_budget(entry.algorithm, output_len) {
            Ok(budget) => budget,
            Err(reason) => {
                return Err(Violation::state(format!(
                    "FINALIZE output length {output_len} on session {session}: {reason}"
                )))
            }
        };
        entry.phase = Phase::Squeezing { remaining: budget };
        let mut bytes = std::mem::take(&mut entry.prefix);
        bytes.extend_from_slice(&plan::finalize_suffix(entry.algorithm, output_len));
        entry.queue.push_back(SessionOp::Finalize {
            id,
            bytes,
            output_len,
        });
        io.hold();
        self.drive(session, ctx, io);
        Ok(())
    }

    /// A SQUEEZE frame: spends the budget and queues the operation.
    ///
    /// # Errors
    ///
    /// Fatal violations: an unknown session, squeezing before FINALIZE,
    /// or past the declared output length.
    pub fn squeeze(
        &mut self,
        id: u64,
        session: u64,
        len: usize,
        ctx: &IoCtx,
        io: &Outbox,
    ) -> Result<(), Violation> {
        let Some(entry) = self.sessions.get_mut(&session) else {
            return Err(unknown_session("SQUEEZE", session));
        };
        entry.last_touch = Instant::now();
        if let Some((code, detail)) = entry.failed.clone() {
            io.reply(&Response::Error { id, code, detail });
            return Ok(());
        }
        let Phase::Squeezing { remaining } = &mut entry.phase else {
            return Err(Violation::state(format!(
                "SQUEEZE on session {session} before FINALIZE"
            )));
        };
        if let Some(budget) = remaining {
            if len > *budget {
                return Err(Violation::state(format!(
                    "SQUEEZE of {len} bytes exceeds the {budget} remaining of session \
                     {session}'s declared output"
                )));
            }
            *budget -= len;
        }
        entry.queue.push_back(SessionOp::Squeeze { id, len });
        io.hold();
        self.drive(session, ctx, io);
        Ok(())
    }

    /// A CLOSE frame: queues the terminal operation (it waits its turn
    /// behind queued work, always succeeds, and frees the id).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadSession`] (fatal) for an unknown session.
    pub fn close(
        &mut self,
        id: u64,
        session: u64,
        ctx: &IoCtx,
        io: &Outbox,
    ) -> Result<(), Violation> {
        let Some(entry) = self.sessions.get_mut(&session) else {
            return Err(unknown_session("CLOSE", session));
        };
        entry.last_touch = Instant::now();
        entry.queue.push_back(SessionOp::Close { id });
        io.hold();
        self.drive(session, ctx, io);
        Ok(())
    }

    /// Routes a service completion to its session's front operation and
    /// drives the session on.
    pub fn on_event(&mut self, event: SessionEvent, ctx: &IoCtx, io: &Outbox) {
        let session = event.session;
        let Some(entry) = self.sessions.get_mut(&session) else {
            // The connection's table no longer holds the session; the
            // completion has nowhere to go.
            return;
        };
        entry.last_touch = Instant::now();
        match event.result {
            Ok((state, output)) => {
                entry.state = Some(state);
                let response = match entry.queue.pop_front().expect("front op awaited this") {
                    SessionOp::Absorb { id, .. } => Response::Absorbed { id, session },
                    SessionOp::Finalize { id, .. } => Response::Finalized { id, session },
                    SessionOp::Squeeze { id, .. } => Response::Squeezed {
                        id,
                        session,
                        bytes: output,
                    },
                    SessionOp::Close { .. } => unreachable!("CLOSE never submits"),
                };
                io.reply_op(&response);
            }
            Err(error) => {
                let (code, detail) = service_error(&error);
                entry.failed = Some((code, format!("{detail}; session state lost")));
            }
        }
        self.drive(session, ctx, io);
    }

    /// One tick: retries parked operations and reaps idle sessions
    /// (silently — later frames for a reaped id answer `BAD_SESSION`).
    pub fn tick(&mut self, now: Instant, ctx: &IoCtx, io: &Outbox) {
        if self.sessions.is_empty() {
            return;
        }
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for session in ids {
            self.drive(session, ctx, io);
        }
        let timeout = ctx.config.session_idle_timeout;
        self.sessions
            .retain(|_, session| session.active() || now < session.last_touch + timeout);
    }

    /// When the table next needs a [`Self::tick`]: the earliest retry of
    /// an operation waiting for queue room or reap deadline of an idle
    /// session.
    pub fn deadline(&self, ctx: &IoCtx) -> Option<Instant> {
        let timeout = ctx.config.session_idle_timeout;
        self.sessions
            .values()
            .filter_map(|session| {
                session
                    .retry_at
                    .or_else(|| (!session.active()).then(|| session.last_touch + timeout))
            })
            .min()
    }
}

fn unknown_session(frame: &str, session: u64) -> Violation {
    Violation::bad_session(format!(
        "{frame} on session {session}, which this connection does not hold"
    ))
}
