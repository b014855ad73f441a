//! Per-connection streaming session tables.
//!
//! A session is `OPEN → ABSORB* → FINALIZE → SQUEEZE* → CLOSE`, scoped
//! to its connection. The table enforces the state machine at frame
//! arrival (out-of-order frames are connection-fatal [`Violation`]s),
//! queues each accepted frame as one [`SessionOp`], and drives the
//! queue against the service: flat algorithms carry a live
//! [`SpongeState`] through the service one stream operation at a time;
//! tree algorithms buffer chunks into fixed blocks, submit each block as
//! a one-shot leaf (a bounded window of leaves rides the same
//! micro-batches as everyone else's traffic), and finish with one flat
//! root request over the leaf digests.
//!
//! Memory stays bounded by construction: a session holds at most the
//! framing prefix, one partial tree block, the queued chunks the
//! connection's in-flight window admits, and (trees) the leaf digests —
//! never the whole message.
//!
//! Backpressure never loses session bytes: a refused service submission
//! hands the request back (`try_submit_as`), the operation stays parked
//! at the queue front, and the next I/O sweep retries it. Service
//! failures (a lost worker, an expired deadline) poison the session —
//! every queued and later operation is answered with the failure's
//! typed error, and only `CLOSE` (which always succeeds) frees the id.
//! Implicit sessions (one-shot tree requests) answer with a single
//! `DIGEST`/`ERROR` frame instead of per-operation acks.

use crate::conn::{service_error, wire};
use crate::plan::{self, ServePlan};
use crate::poll::IoCtx;
use crate::protocol::{AlgorithmParams, ErrorCode, Response, WireAlgorithm};
use krv_service::{Completion, HashRequest, StreamOutput, StreamRequest, SubmitError};
use krv_sha3::sp800_185::tuple_entry_prefix;
use krv_sha3::tree::TreeMode;
use krv_sha3::SpongeState;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most tree-leaf hash requests one session keeps in the service at
/// once. Bounds a tree session's share of the admission queue while
/// still giving `hash_batch` whole batches to fill.
const LEAF_WINDOW: usize = 64;

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

/// Which table entry an event belongs to: a client-numbered wire
/// session or a server-numbered implicit (one-shot tree) session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SessionKey {
    /// A client-opened session (the wire session id).
    Wire(u64),
    /// An implicit session backing one one-shot tree request.
    Implicit(u64),
}

/// A completion routed back to a session through the I/O inbox.
#[derive(Debug)]
pub(crate) struct SessionEvent {
    /// The owning connection's token.
    pub token: u64,
    /// The session within that connection.
    pub key: SessionKey,
    /// What completed.
    pub payload: EventPayload,
}

/// The service completion a [`SessionEvent`] carries.
#[derive(Debug)]
pub(crate) enum EventPayload {
    /// A stream operation of a flat session.
    Stream(Completion<StreamOutput>),
    /// One tree leaf (`index` into the leaf digest table).
    Leaf {
        /// Which leaf completed.
        index: usize,
        /// Its one-shot completion.
        completion: Completion,
    },
    /// The tree root digest.
    Root(Completion),
}

/// The slice of a connection a session needs for replying: the outbound
/// frame queue and the in-flight accounting, borrowed for one call.
pub(crate) struct ConnIo<'a> {
    /// The connection token (the service client id).
    pub token: u64,
    /// The connection's outbound frame queue.
    pub outbound: &'a mut VecDeque<Vec<u8>>,
    /// The connection's in-flight counter; decremented as each session
    /// operation's reply is queued.
    pub in_flight: &'a AtomicUsize,
}

impl ConnIo<'_> {
    /// Queues a reply that does not settle an in-flight operation.
    fn reply(&mut self, response: &Response) {
        self.outbound.push_back(wire(&response.encode()));
    }

    /// Queues a reply settling one in-flight session operation. Both
    /// happen on the I/O thread, so the frame is visibly queued before
    /// the connection can ever observe itself drained.
    fn reply_op(&mut self, response: &Response) {
        self.reply(response);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One queued session operation. The request id rides along so the
/// reply (or the failure flush) answers the right frame.
#[derive(Debug)]
enum SessionOp {
    /// An ABSORB: for flat sessions `bytes` is the fully framed absorb
    /// input (prefix + tuple entry header + chunk); for tree sessions
    /// the chunk went into the block buffer and `target` is the
    /// cumulative block count this operation is accountable for.
    Absorb {
        /// The request id.
        id: u64,
        /// Framed absorb input (flat sessions; drained into the service
        /// request while the operation is in flight).
        bytes: Vec<u8>,
        /// Cumulative produced-block watermark (tree sessions).
        target: usize,
    },
    /// A FINALIZE: `bytes` is the remaining framing (unconsumed prefix
    /// plus the `right_encode(L·8)` suffix) for flat sessions.
    Finalize {
        /// The request id.
        id: u64,
        /// Framing absorbed before the pad (flat sessions).
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

/// How the session answers: per-operation wire acks, or one terminal
/// digest for an implicit one-shot tree.
#[derive(Debug, Clone, Copy)]
enum ReplyMode {
    /// A wire session; replies echo this session id.
    Wire {
        /// The client-chosen session id.
        session: u64,
    },
    /// An implicit session: exactly one in-flight slot, answered by a
    /// single `DIGEST` (or `ERROR`) frame.
    OneShot,
}

/// A flat (single-sponge) session's state between operations.
#[derive(Debug)]
struct StreamBody {
    /// The sponge; `None` while an operation carries it through the
    /// service.
    state: Option<Box<SpongeState>>,
    /// Framing absorbed ahead of the first message byte; taken by the
    /// first ABSORB/FINALIZE to enqueue.
    prefix: Option<Vec<u8>>,
    /// TupleHash: every ABSORB chunk is one tuple entry, absorbed
    /// behind its `left_encode(len·8)` header.
    tuple: bool,
}

/// A chunked-tree session's state.
#[derive(Debug)]
struct TreeBody {
    mode: TreeMode,
    customization: Vec<u8>,
    /// Tail bytes short of one block.
    buffer: Vec<u8>,
    /// Full blocks awaiting leaf submission.
    blocks: VecDeque<Vec<u8>>,
    /// Leaf digests in message order; `None` until the completion
    /// lands.
    leaves: Vec<Option<Vec<u8>>>,
    /// Leaves submitted whose completions have not yet arrived.
    outstanding: usize,
    /// Blocks produced so far (the ABSORB watermark counter).
    produced: usize,
    /// The FINALIZE-declared output length.
    output_len: usize,
    /// The root digest, served to SQUEEZE frames.
    output: Option<Vec<u8>>,
    /// Root bytes already squeezed.
    squeezed: usize,
    /// Deadline applied to every leaf and the root (implicit one-shot
    /// sessions).
    deadline: Option<Duration>,
}

impl TreeBody {
    fn new(mode: TreeMode, customization: Vec<u8>, deadline: Option<Duration>) -> Self {
        Self {
            mode,
            customization,
            buffer: Vec::new(),
            blocks: VecDeque::new(),
            leaves: Vec::new(),
            outstanding: 0,
            produced: 0,
            output_len: 0,
            output: None,
            squeezed: 0,
            deadline,
        }
    }

    /// Buffers a chunk, extracting every completed block.
    fn ingest(&mut self, chunk: &[u8]) {
        let block = self.mode.block_size();
        self.buffer.extend_from_slice(chunk);
        while self.buffer.len() >= block {
            let rest = self.buffer.split_off(block);
            self.blocks
                .push_back(std::mem::replace(&mut self.buffer, rest));
            self.produced += 1;
        }
    }

    /// Flushes the partial tail as the final (short) block.
    fn flush_tail(&mut self) {
        if !self.buffer.is_empty() {
            self.blocks.push_back(std::mem::take(&mut self.buffer));
            self.produced += 1;
        }
    }
}

#[derive(Debug)]
enum Body {
    Stream(StreamBody),
    Tree(TreeBody),
}

/// What one drive step of the front operation concluded.
enum Step {
    /// The front operation finished synchronously; drive the next.
    Done,
    /// Waiting on the service (an in-flight operation, backpressure, or
    /// the leaf window); retried on the next event or sweep.
    Parked,
    /// The session is finished; remove it from the table.
    Remove,
}

#[derive(Debug)]
struct Session {
    algorithm: WireAlgorithm,
    reply: ReplyMode,
    /// Refreshed by every frame and completion; wire sessions idle past
    /// [`crate::ServerConfig::session_idle_timeout`] are reaped.
    last_touch: Instant,
    queue: VecDeque<SessionOp>,
    /// An operation (stream op or tree root) is in the service; the
    /// front of the queue is its marker until the completion event.
    busy: bool,
    /// A service failure poisoned the session; every operation until
    /// CLOSE answers with this error.
    failed: Option<(ErrorCode, String)>,
    phase: Phase,
    body: Body,
}

impl Session {
    /// Poisons the session with a failure. A wire session stays in the
    /// table (flushing its queue with error replies, waiting for CLOSE);
    /// an implicit session answers its one error frame and is removed.
    fn fail(&mut self, code: ErrorCode, detail: String, io: &mut ConnIo<'_>) -> Step {
        if self.failed.is_some() {
            return Step::Done;
        }
        match self.reply {
            ReplyMode::Wire { .. } => {
                self.failed = Some((code, detail));
                Step::Done
            }
            ReplyMode::OneShot => {
                let id = self.queue.front().map_or(0, SessionOp::id);
                io.reply_op(&Response::Error { id, code, detail });
                self.queue.clear();
                Step::Remove
            }
        }
    }

    /// Drives the queue until it parks or the session ends. Returns
    /// whether to remove the session from the table.
    fn drive(&mut self, key: SessionKey, ctx: &IoCtx, io: &mut ConnIo<'_>) -> bool {
        loop {
            if self.busy {
                return false;
            }
            if let Some((code, detail)) = self.failed.clone() {
                // Failure flush: every queued operation answers with
                // the poisoning error; CLOSE still succeeds.
                let Some(op) = self.queue.pop_front() else {
                    return false;
                };
                if let (ReplyMode::Wire { session }, SessionOp::Close { id }) = (self.reply, &op) {
                    io.reply_op(&Response::Closed { id: *id, session });
                    return true;
                }
                io.reply_op(&Response::Error {
                    id: op.id(),
                    code,
                    detail,
                });
                continue;
            }
            if self.queue.is_empty() {
                return false;
            }
            let step = match self.body {
                Body::Stream(_) => self.step_stream(key, ctx, io),
                Body::Tree(_) => self.step_tree(key, ctx, io),
            };
            match step {
                Step::Done => {}
                Step::Parked => return false,
                Step::Remove => return true,
            }
        }
    }

    /// One drive step of a flat session's front operation.
    fn step_stream(&mut self, key: SessionKey, ctx: &IoCtx, io: &mut ConnIo<'_>) -> Step {
        let ReplyMode::Wire { session } = self.reply else {
            unreachable!("flat one-shots never build sessions")
        };
        let op = self.queue.pop_front().expect("drive checked non-empty");
        let request = match op {
            SessionOp::Close { id } => {
                io.reply_op(&Response::Closed { id, session });
                return Step::Remove;
            }
            SessionOp::Absorb { id, bytes, target } if bytes.is_empty() => {
                // Nothing to absorb (an empty chunk with the framing
                // prefix already consumed): acknowledge inline without
                // a service round-trip.
                let _ = (id, target);
                io.reply_op(&Response::Absorbed { id, session });
                return Step::Done;
            }
            SessionOp::Absorb { id, bytes, target } => {
                let Body::Stream(stream) = &mut self.body else {
                    unreachable!("step_stream drives stream bodies")
                };
                let state = stream.state.take().expect("state parked while idle");
                self.queue.push_front(SessionOp::Absorb {
                    id,
                    bytes: Vec::new(),
                    target,
                });
                StreamRequest::absorb(state, bytes)
            }
            SessionOp::Finalize {
                id,
                bytes,
                output_len,
            } => {
                let Body::Stream(stream) = &mut self.body else {
                    unreachable!("step_stream drives stream bodies")
                };
                let state = stream.state.take().expect("state parked while idle");
                self.queue.push_front(SessionOp::Finalize {
                    id,
                    bytes: Vec::new(),
                    output_len,
                });
                StreamRequest::finalize(state, bytes, 0)
            }
            SessionOp::Squeeze { id, len } => {
                let Body::Stream(stream) = &mut self.body else {
                    unreachable!("step_stream drives stream bodies")
                };
                let state = stream.state.take().expect("state parked while idle");
                self.queue.push_front(SessionOp::Squeeze { id, len });
                StreamRequest::squeeze(state, len)
            }
        };
        let token = io.token;
        match ctx.service.try_submit_as(token, request) {
            Ok(ticket) => {
                self.busy = true;
                let shared = Arc::clone(&ctx.shared);
                ticket.on_complete(move |completion| {
                    shared.post_event(SessionEvent {
                        token,
                        key,
                        payload: EventPayload::Stream(completion),
                    });
                });
                Step::Parked
            }
            Err((request, error)) => {
                // Reclaim the state (and the framed bytes) so the
                // parked operation can resubmit identically.
                let StreamRequest { state, absorb, .. } = request;
                let Body::Stream(stream) = &mut self.body else {
                    unreachable!("step_stream drives stream bodies")
                };
                stream.state = Some(state);
                match self.queue.front_mut().expect("op pushed back") {
                    SessionOp::Absorb { bytes, .. } | SessionOp::Finalize { bytes, .. } => {
                        *bytes = absorb;
                    }
                    _ => {}
                }
                if matches!(error, SubmitError::ShuttingDown) {
                    self.fail(ErrorCode::ShuttingDown, "daemon is draining".into(), io)
                } else {
                    Step::Parked
                }
            }
        }
    }

    /// One drive step of a tree session's front operation.
    fn step_tree(&mut self, key: SessionKey, ctx: &IoCtx, io: &mut ConnIo<'_>) -> Step {
        let token = io.token;
        let Body::Tree(tree) = &mut self.body else {
            unreachable!("step_tree drives tree bodies")
        };
        // Keep the leaf window full whatever the front operation is.
        if let Err((code, detail)) = pump_leaves(tree, key, ctx, token) {
            return self.fail(code, detail, io);
        }
        match self.queue.front().expect("drive checked non-empty") {
            SessionOp::Absorb { target, .. } => {
                if tree.leaves.len() < *target {
                    return Step::Parked;
                }
                let Some(SessionOp::Absorb { id, .. }) = self.queue.pop_front() else {
                    unreachable!("front just matched")
                };
                if let ReplyMode::Wire { session } = self.reply {
                    io.reply_op(&Response::Absorbed { id, session });
                }
                Step::Done
            }
            SessionOp::Finalize { output_len, .. } => {
                if !tree.blocks.is_empty() || tree.outstanding > 0 {
                    return Step::Parked;
                }
                // Every leaf digest is in: one flat root request binds
                // them under the mode's cSHAKE framing.
                let output_len = *output_len;
                let mut message = tree.mode.root_prefix(&tree.customization);
                for leaf in &tree.leaves {
                    message.extend_from_slice(leaf.as_ref().expect("no outstanding leaves"));
                }
                message.extend_from_slice(
                    &tree.mode.root_suffix(tree.leaves.len() as u64, output_len),
                );
                let mut request = HashRequest::new(message, tree.mode.root_params(), output_len);
                request.deadline = tree.deadline;
                match ctx.service.try_submit_as(token, request) {
                    Ok(ticket) => {
                        self.busy = true;
                        let shared = Arc::clone(&ctx.shared);
                        ticket.on_complete(move |completion| {
                            shared.post_event(SessionEvent {
                                token,
                                key,
                                payload: EventPayload::Root(completion),
                            });
                        });
                        Step::Parked
                    }
                    Err((_, SubmitError::ShuttingDown)) => {
                        self.fail(ErrorCode::ShuttingDown, "daemon is draining".into(), io)
                    }
                    // Backpressure: the root message is rebuilt on the
                    // next sweep's retry (the leaf digests stay put).
                    Err(_) => Step::Parked,
                }
            }
            SessionOp::Squeeze { .. } => {
                let Some(SessionOp::Squeeze { id, len }) = self.queue.pop_front() else {
                    unreachable!("front just matched")
                };
                let output = tree.output.as_ref().expect("finalized before squeeze");
                let bytes = output[tree.squeezed..tree.squeezed + len].to_vec();
                tree.squeezed += len;
                let ReplyMode::Wire { session } = self.reply else {
                    unreachable!("implicit sessions never squeeze")
                };
                io.reply_op(&Response::Squeezed { id, session, bytes });
                Step::Done
            }
            SessionOp::Close { .. } => {
                let Some(SessionOp::Close { id }) = self.queue.pop_front() else {
                    unreachable!("front just matched")
                };
                let ReplyMode::Wire { session } = self.reply else {
                    unreachable!("implicit sessions never close")
                };
                io.reply_op(&Response::Closed { id, session });
                Step::Remove
            }
        }
    }

    /// A stream-operation completion for this session's front operation.
    fn on_stream_done(
        &mut self,
        completion: Completion<StreamOutput>,
        io: &mut ConnIo<'_>,
    ) -> bool {
        self.busy = false;
        match completion.result {
            Ok(output) => {
                let Body::Stream(stream) = &mut self.body else {
                    unreachable!("stream events only reach stream bodies")
                };
                stream.state = Some(output.state);
                let op = self.queue.pop_front().expect("front op awaited this");
                let ReplyMode::Wire { session } = self.reply else {
                    unreachable!("flat one-shots never build sessions")
                };
                let response = match op {
                    SessionOp::Absorb { id, .. } => Response::Absorbed { id, session },
                    SessionOp::Finalize { id, .. } => Response::Finalized { id, session },
                    SessionOp::Squeeze { id, .. } => Response::Squeezed {
                        id,
                        session,
                        bytes: output.output,
                    },
                    SessionOp::Close { .. } => unreachable!("CLOSE never submits"),
                };
                io.reply_op(&response);
                self.last_touch = Instant::now();
                false
            }
            Err(error) => {
                let (code, detail) = service_error(&error);
                matches!(
                    self.fail(code, format!("{detail}; session state lost"), io),
                    Step::Remove
                )
            }
        }
    }

    /// One leaf completion.
    fn on_leaf(&mut self, index: usize, completion: Completion, io: &mut ConnIo<'_>) -> bool {
        let Body::Tree(tree) = &mut self.body else {
            return false;
        };
        tree.outstanding -= 1;
        self.last_touch = Instant::now();
        match completion.result {
            Ok(digest) => {
                tree.leaves[index] = Some(digest);
                false
            }
            Err(error) => {
                let (code, detail) = service_error(&error);
                matches!(
                    self.fail(code, format!("tree leaf {index} failed: {detail}"), io),
                    Step::Remove
                )
            }
        }
    }

    /// The root completion: the tree is done.
    fn on_root(&mut self, completion: Completion, io: &mut ConnIo<'_>) -> bool {
        self.busy = false;
        match completion.result {
            Ok(bytes) => {
                let op = self
                    .queue
                    .pop_front()
                    .expect("finalize op awaited the root");
                self.last_touch = Instant::now();
                match self.reply {
                    ReplyMode::Wire { session } => {
                        let Body::Tree(tree) = &mut self.body else {
                            unreachable!("root events only reach tree bodies")
                        };
                        tree.output = Some(bytes);
                        io.reply_op(&Response::Finalized {
                            id: op.id(),
                            session,
                        });
                        false
                    }
                    ReplyMode::OneShot => {
                        io.reply_op(&Response::Digest { id: op.id(), bytes });
                        true
                    }
                }
            }
            Err(error) => {
                let (code, detail) = service_error(&error);
                matches!(
                    self.fail(code, format!("tree root failed: {detail}"), io),
                    Step::Remove
                )
            }
        }
    }

    /// Whether the session holds work the reaper must not interrupt.
    fn active(&self) -> bool {
        if self.busy || !self.queue.is_empty() {
            return true;
        }
        match &self.body {
            Body::Tree(tree) => tree.outstanding > 0 || !tree.blocks.is_empty(),
            Body::Stream(_) => false,
        }
    }
}

/// Submits leaves off the block queue until the window fills or the
/// service pushes back.
fn pump_leaves(
    tree: &mut TreeBody,
    key: SessionKey,
    ctx: &IoCtx,
    token: u64,
) -> Result<(), (ErrorCode, String)> {
    while tree.outstanding < LEAF_WINDOW {
        let Some(block) = tree.blocks.pop_front() else {
            break;
        };
        let mut request = HashRequest::new(block, tree.mode.leaf_params(), tree.mode.leaf_len());
        request.deadline = tree.deadline;
        match ctx.service.try_submit_as(token, request) {
            Ok(ticket) => {
                let index = tree.leaves.len();
                tree.leaves.push(None);
                tree.outstanding += 1;
                let shared = Arc::clone(&ctx.shared);
                ticket.on_complete(move |completion| {
                    shared.post_event(SessionEvent {
                        token,
                        key,
                        payload: EventPayload::Leaf { index, completion },
                    });
                });
            }
            Err((request, SubmitError::ShuttingDown)) => {
                tree.blocks.push_front(request.message);
                return Err((ErrorCode::ShuttingDown, "daemon is draining".into()));
            }
            Err((request, _backpressure)) => {
                // Park the block; the next sweep retries.
                tree.blocks.push_front(request.message);
                break;
            }
        }
    }
    Ok(())
}

/// One connection's sessions: the client-numbered wire table plus the
/// implicit table backing one-shot tree requests.
#[derive(Debug, Default)]
pub(crate) struct SessionTable {
    wire: HashMap<u64, Session>,
    implicit: HashMap<u64, Session>,
    next_implicit: u64,
}

impl SessionTable {
    pub fn new() -> Self {
        Self::default()
    }

    fn get_mut(&mut self, key: SessionKey) -> Option<&mut Session> {
        match key {
            SessionKey::Wire(session) => self.wire.get_mut(&session),
            SessionKey::Implicit(index) => self.implicit.get_mut(&index),
        }
    }

    fn remove(&mut self, key: SessionKey) {
        match key {
            SessionKey::Wire(session) => self.wire.remove(&session),
            SessionKey::Implicit(index) => self.implicit.remove(&index),
        };
    }

    /// Drives one session, removing it if it finished.
    fn drive_key(&mut self, key: SessionKey, ctx: &IoCtx, io: &mut ConnIo<'_>) {
        let Some(session) = self.get_mut(key) else {
            return;
        };
        if session.drive(key, ctx, io) {
            self.remove(key);
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
        io: &mut ConnIo<'_>,
    ) -> Result<(), Violation> {
        if self.wire.contains_key(&session) {
            return Err(Violation::bad_session(format!(
                "session {session} is already open"
            )));
        }
        if self.wire.len() >= ctx.config.max_sessions {
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
        let body = match plan::plan(algorithm, params) {
            ServePlan::Flat(flat) => Body::Stream(StreamBody {
                state: Some(Box::new(SpongeState::new(flat.params))),
                prefix: Some(flat.prefix),
                tuple: flat.tuple,
            }),
            ServePlan::Tree(tree) => Body::Tree(TreeBody::new(tree.mode, tree.customization, None)),
        };
        self.wire.insert(
            session,
            Session {
                algorithm,
                reply: ReplyMode::Wire { session },
                last_touch: Instant::now(),
                queue: VecDeque::new(),
                busy: false,
                failed: None,
                phase: Phase::Absorbing,
                body,
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
        io: &mut ConnIo<'_>,
    ) -> Result<(), Violation> {
        let Some(entry) = self.wire.get_mut(&session) else {
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
        match &mut entry.body {
            Body::Stream(stream) => {
                let mut bytes = stream.prefix.take().unwrap_or_default();
                if stream.tuple {
                    bytes.extend_from_slice(&tuple_entry_prefix(chunk.len()));
                }
                bytes.extend_from_slice(&chunk);
                entry.queue.push_back(SessionOp::Absorb {
                    id,
                    bytes,
                    target: 0,
                });
            }
            Body::Tree(tree) => {
                let projected =
                    tree.produced + (tree.buffer.len() + chunk.len()) / tree.mode.block_size();
                if projected > ctx.config.max_tree_leaves {
                    let detail = format!(
                        "tree session exceeds the {}-leaf cap",
                        ctx.config.max_tree_leaves
                    );
                    entry.failed = Some((ErrorCode::SessionLimit, detail.clone()));
                    io.reply(&Response::Error {
                        id,
                        code: ErrorCode::SessionLimit,
                        detail,
                    });
                    return Ok(());
                }
                tree.ingest(&chunk);
                entry.queue.push_back(SessionOp::Absorb {
                    id,
                    bytes: Vec::new(),
                    target: tree.produced,
                });
            }
        }
        io.in_flight.fetch_add(1, Ordering::AcqRel);
        self.drive_key(SessionKey::Wire(session), ctx, io);
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
        io: &mut ConnIo<'_>,
    ) -> Result<(), Violation> {
        let Some(entry) = self.wire.get_mut(&session) else {
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
        match &mut entry.body {
            Body::Stream(stream) => {
                let mut bytes = stream.prefix.take().unwrap_or_default();
                bytes.extend_from_slice(&plan::finalize_suffix(entry.algorithm, output_len));
                entry.queue.push_back(SessionOp::Finalize {
                    id,
                    bytes,
                    output_len,
                });
            }
            Body::Tree(tree) => {
                let projected = tree.produced + usize::from(!tree.buffer.is_empty());
                if projected > ctx.config.max_tree_leaves {
                    let detail = format!(
                        "tree session exceeds the {}-leaf cap",
                        ctx.config.max_tree_leaves
                    );
                    entry.failed = Some((ErrorCode::SessionLimit, detail.clone()));
                    io.reply(&Response::Error {
                        id,
                        code: ErrorCode::SessionLimit,
                        detail,
                    });
                    return Ok(());
                }
                tree.flush_tail();
                tree.output_len = output_len;
                entry.queue.push_back(SessionOp::Finalize {
                    id,
                    bytes: Vec::new(),
                    output_len,
                });
            }
        }
        io.in_flight.fetch_add(1, Ordering::AcqRel);
        self.drive_key(SessionKey::Wire(session), ctx, io);
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
        io: &mut ConnIo<'_>,
    ) -> Result<(), Violation> {
        let Some(entry) = self.wire.get_mut(&session) else {
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
        io.in_flight.fetch_add(1, Ordering::AcqRel);
        self.drive_key(SessionKey::Wire(session), ctx, io);
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
        io: &mut ConnIo<'_>,
    ) -> Result<(), Violation> {
        let Some(entry) = self.wire.get_mut(&session) else {
            return Err(unknown_session("CLOSE", session));
        };
        entry.last_touch = Instant::now();
        entry.queue.push_back(SessionOp::Close { id });
        io.in_flight.fetch_add(1, Ordering::AcqRel);
        self.drive_key(SessionKey::Wire(session), ctx, io);
        Ok(())
    }

    /// A one-shot HASH of a tree algorithm: an implicit session that
    /// chunks the payload, submits the leaves as one-shots, and
    /// answers with a single DIGEST frame. The caller has
    /// already taken the request's in-flight slot.
    #[allow(clippy::too_many_arguments)] // mirrors the decoded HASH frame fields
    pub fn one_shot_tree(
        &mut self,
        id: u64,
        algorithm: WireAlgorithm,
        params: &AlgorithmParams,
        output_len: usize,
        deadline: Option<Duration>,
        payload: &[u8],
        ctx: &IoCtx,
        io: &mut ConnIo<'_>,
    ) {
        let ServePlan::Tree(tree_plan) = plan::plan(algorithm, params) else {
            unreachable!("one_shot_tree is only called for tree algorithms")
        };
        if tree_plan.mode.leaf_count(payload.len()) > ctx.config.max_tree_leaves {
            io.reply_op(&Response::Error {
                id,
                code: ErrorCode::SessionLimit,
                detail: format!(
                    "message needs {} leaves, over the {}-leaf cap",
                    tree_plan.mode.leaf_count(payload.len()),
                    ctx.config.max_tree_leaves
                ),
            });
            return;
        }
        let mut tree = TreeBody::new(tree_plan.mode, tree_plan.customization, deadline);
        tree.ingest(payload);
        tree.flush_tail();
        tree.output_len = output_len;
        let produced = tree.produced;
        let key = SessionKey::Implicit(self.next_implicit);
        self.next_implicit += 1;
        let session = Session {
            algorithm,
            reply: ReplyMode::OneShot,
            last_touch: Instant::now(),
            queue: VecDeque::from([
                SessionOp::Absorb {
                    id,
                    bytes: Vec::new(),
                    target: produced,
                },
                SessionOp::Finalize {
                    id,
                    bytes: Vec::new(),
                    output_len,
                },
            ]),
            busy: false,
            failed: None,
            phase: Phase::Squeezing { remaining: Some(0) },
            body: Body::Tree(tree),
        };
        let SessionKey::Implicit(index) = key else {
            unreachable!("just built")
        };
        self.implicit.insert(index, session);
        self.drive_key(key, ctx, io);
    }

    /// Routes a service completion to its session and drives it.
    pub fn on_event(
        &mut self,
        key: SessionKey,
        payload: EventPayload,
        ctx: &IoCtx,
        io: &mut ConnIo<'_>,
    ) {
        let Some(session) = self.get_mut(key) else {
            // The session was closed or reaped with work in flight;
            // the completion has nowhere to go.
            return;
        };
        let remove = match payload {
            EventPayload::Stream(completion) => session.on_stream_done(completion, io),
            EventPayload::Leaf { index, completion } => session.on_leaf(index, completion, io),
            EventPayload::Root(completion) => session.on_root(completion, io),
        };
        if remove {
            self.remove(key);
            return;
        }
        self.drive_key(key, ctx, io);
    }

    /// One sweep tick: retries parked operations and reaps idle wire
    /// sessions (silently — later frames for a reaped id answer
    /// `BAD_SESSION`).
    pub fn tick(&mut self, now: Instant, ctx: &IoCtx, io: &mut ConnIo<'_>) {
        if self.wire.is_empty() && self.implicit.is_empty() {
            return;
        }
        let keys: Vec<SessionKey> = self
            .wire
            .keys()
            .map(|&session| SessionKey::Wire(session))
            .chain(
                self.implicit
                    .keys()
                    .map(|&index| SessionKey::Implicit(index)),
            )
            .collect();
        for key in keys {
            self.drive_key(key, ctx, io);
        }
        let timeout = ctx.config.session_idle_timeout;
        self.wire
            .retain(|_, session| session.active() || now < session.last_touch + timeout);
    }
}

fn unknown_session(frame: &str, session: u64) -> Violation {
    Violation::bad_session(format!(
        "{frame} on session {session}, which this connection does not hold"
    ))
}
