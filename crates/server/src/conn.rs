//! One multiplexed connection: a non-blocking state machine pumped by
//! an I/O thread, not a pair of dedicated threads.
//!
//! A [`Connection`] holds a byte buffer of unparsed inbound data and
//! its session table; its socket and outbound side live in an
//! [`Outbox`] that the connection shares with its ticket callbacks. The
//! owning I/O thread pumps it when `poll` reports the socket ready, a
//! completion touches it, or a deadline passes: it reads what has
//! arrived, parses every *complete* frame out of the buffer and handles
//! it, then writes whatever the socket accepts. Partial frames simply
//! stay buffered until more bytes arrive — framing cannot
//! desynchronize, because nothing is consumed until the full frame is
//! present and decoded.
//!
//! Responses flow back asynchronously. A hash, tree or ML-KEM
//! submission registers a ticket callback that encodes the response on
//! the scheduler thread, queues it in the outbox, writes what the
//! non-blocking socket accepts and releases the window slot, all under
//! the outbox's one lock; it wakes the I/O thread only when bytes
//! remain, the socket failed, or a draining connection just reached
//! zero in flight. Session completions go through the I/O thread's
//! inbox instead, because the session table lives there. The request
//! id is the client's correlation key; responses overtake each other
//! freely.
//!
//! A protocol violation (bad magic, unknown kind, oversized frame, …)
//! is fatal **to the connection only**: reading stops, already admitted
//! requests still get their responses written, and the socket closes.
//! The daemon and every other connection keep serving. EOF and idleness
//! (no bytes received for the idle timeout) end a connection the same
//! graceful way.

use crate::plan::{self, ServePlan};
use crate::poll::{IoCtx, IoShared};
use crate::protocol::{ErrorCode, Request, Response};
use crate::session::{over_leaf_cap, SessionEvent, SessionTable, Violation};
use krv_kyber::{KemOp, KemResult};
use krv_service::{
    HashRequest, KemRequest, Request as ServiceRequest, RequestError, SubmitError, TreeRequest,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Most scratch-buffer reads one pump performs before yielding to the
/// next connection, so one firehose peer cannot starve the rest of the
/// I/O thread's connections.
const READS_PER_PUMP: usize = 4;

/// The half of a connection its completions share with the I/O thread:
/// the socket and, behind one lock, everything that decides what is
/// written and when the connection may close.
#[derive(Debug)]
pub(crate) struct Outbox {
    stream: TcpStream,
    /// The connection's stable id: the routing key for inbox touches and
    /// events, and the client id fair-share admission accounts against.
    pub token: u64,
    /// The owning I/O thread, woken by completions that leave it work.
    io: Arc<IoShared>,
    out: Mutex<Outbound>,
}

/// The outbound side of a connection.
#[derive(Debug, Default)]
struct Outbound {
    /// Encoded frames (wire bytes, length prefix included) not yet
    /// written whole.
    frames: VecDeque<Vec<u8>>,
    /// Bytes of `frames.front()` already written.
    front_written: usize,
    /// Admitted requests whose responses are not yet queued.
    in_flight: usize,
    /// The inbound side is closed (EOF, a violation, idleness or daemon
    /// shutdown): the connection closes once nothing is in flight and
    /// every frame is written.
    draining: bool,
    /// A hard transport failure: the connection is removed without
    /// draining, and later completions write nothing.
    dead: bool,
}

impl Outbound {
    /// Writes queued frames until the socket would block. A failed
    /// write marks the connection dead and drops what is queued.
    fn flush(&mut self, mut stream: &TcpStream) {
        while let Some(front) = self.frames.front() {
            match stream.write(&front[self.front_written..]) {
                Ok(n) if n > 0 => {
                    self.front_written += n;
                    if self.front_written == front.len() {
                        self.frames.pop_front();
                        self.front_written = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => {
                    self.dead = true;
                    self.frames.clear();
                    return;
                }
            }
        }
    }

    /// Whether the I/O thread may drop the connection: dead, or drained
    /// with every response written. Read under the one lock that every
    /// completion queues and releases its slot under, so no response
    /// can still be on its way.
    fn finished(&self) -> bool {
        self.dead || (self.draining && self.in_flight == 0 && self.frames.is_empty())
    }
}

impl Outbox {
    fn lock(&self) -> MutexGuard<'_, Outbound> {
        self.out.lock().expect("connection outbox")
    }

    /// Queues a reply that does not settle an in-flight request.
    pub fn reply(&self, response: &Response) {
        self.lock().frames.push_back(response.frame());
    }

    /// Queues a reply settling one in-flight request, on the I/O thread.
    pub fn reply_op(&self, response: &Response) {
        let mut out = self.lock();
        out.frames.push_back(response.frame());
        out.in_flight -= 1;
    }

    /// Takes one window slot for an admitted request.
    pub fn hold(&self) {
        self.lock().in_flight += 1;
    }

    /// Requests in flight.
    fn in_flight(&self) -> usize {
        self.lock().in_flight
    }

    /// A completion's write-through, on the thread that completed the
    /// ticket: queues `frame`, writes what the socket accepts and
    /// releases the window slot. The I/O thread is woken only if that
    /// left it work: bytes the socket did not take (it must wait on
    /// `POLLOUT`), a failed socket (it must drop the connection), or a
    /// draining connection with nothing left in flight (it must close).
    fn complete(&self, frame: Vec<u8>) {
        let mut out = self.lock();
        out.in_flight -= 1;
        if out.dead {
            return;
        }
        out.frames.push_back(frame);
        out.flush(&self.stream);
        let wake = out.dead || !out.frames.is_empty() || (out.draining && out.in_flight == 0);
        drop(out);
        if wake {
            self.io.post_touch(self.token);
        }
    }
}

/// The per-connection state machine. All methods are non-blocking; the
/// owning I/O thread calls them.
#[derive(Debug)]
pub(crate) struct Connection {
    /// The socket and outbound side, shared with ticket callbacks.
    outbox: Arc<Outbox>,
    /// Received, not-yet-parsed bytes (at most one partial frame plus
    /// whatever arrived behind it).
    read_buf: Vec<u8>,
    /// When the connection is closed for idleness: reset whenever bytes
    /// arrive.
    idle_deadline: Instant,
    /// This connection's streaming sessions; dies with the connection.
    sessions: SessionTable,
}

impl Connection {
    /// Adopts an accepted stream: switches it non-blocking and arms the
    /// idle deadline.
    ///
    /// # Errors
    ///
    /// Propagates the `set_nonblocking` failure (the stream is unusable
    /// for this server if it cannot be made non-blocking).
    pub fn adopt(stream: TcpStream, token: u64, ctx: &IoCtx) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            outbox: Arc::new(Outbox {
                stream,
                token,
                io: Arc::clone(&ctx.shared),
                out: Mutex::default(),
            }),
            read_buf: Vec::new(),
            idle_deadline: Instant::now() + ctx.config.idle_timeout,
            sessions: SessionTable::new(),
        })
    }

    /// The socket's descriptor, for the I/O thread's wait set.
    pub fn fd(&self) -> RawFd {
        self.outbox.stream.as_raw_fd()
    }

    /// What the connection waits on: `(read, write)`. It reads until
    /// its inbound side closes and waits to write while output is
    /// queued, both read from the outbox the completions share.
    pub fn waits_on(&self) -> (bool, bool) {
        let out = self.outbox.lock();
        (!out.draining, !out.frames.is_empty())
    }

    /// Whether the inbound side is still open.
    fn reading(&self) -> bool {
        !self.outbox.lock().draining
    }

    /// When the connection next needs a pump with no socket event: its
    /// idle deadline while it reads, or its sessions' next retry or
    /// reap deadline.
    pub fn deadline(&self, ctx: &IoCtx) -> Option<Instant> {
        let idle = self.reading().then_some(self.idle_deadline);
        idle.into_iter().chain(self.sessions.deadline(ctx)).min()
    }

    /// Stops the inbound side: no more reads, no more submissions. The
    /// connection closes once its in-flight responses are written.
    pub fn start_drain(&mut self) {
        self.stop_reading();
        self.read_buf.clear();
    }

    /// Ends reading. The outbox's `draining` is the one record of it:
    /// the I/O thread stops waiting on `POLLIN`, and the completions
    /// decide from it whether the last of them must wake the I/O thread
    /// to close.
    fn stop_reading(&mut self) {
        self.outbox.lock().draining = true;
    }

    /// One pump: check idleness, read and handle what has arrived, retry
    /// and reap sessions, then write what the socket accepts. Returns
    /// whether the connection is finished and must be dropped.
    pub fn pump(&mut self, ctx: &IoCtx, scratch: &mut [u8], now: Instant) -> bool {
        if now >= self.idle_deadline && self.reading() {
            // Idleness covers half-open peers too: a vanished client
            // sends no bytes (and no FIN), so its connection ends here.
            self.start_drain();
        }
        self.pump_read(ctx, scratch);
        // Retry session operations parked on backpressure and reap idle
        // wire sessions.
        self.sessions.tick(now, ctx, &self.outbox);
        let mut out = self.outbox.lock();
        out.flush(&self.outbox.stream);
        out.finished()
    }

    /// Routes a session completion into this connection's table.
    pub fn on_event(&mut self, event: SessionEvent, ctx: &IoCtx) {
        self.sessions.on_event(event, ctx, &self.outbox);
    }

    /// Reads what has arrived (bounded per pump), then parses and
    /// handles every complete frame in the buffer.
    fn pump_read(&mut self, ctx: &IoCtx, scratch: &mut [u8]) {
        if !self.reading() {
            return;
        }
        for _ in 0..READS_PER_PUMP {
            match (&self.outbox.stream).read(scratch) {
                Ok(0) => {
                    // Clean EOF: whatever complete frames are already
                    // buffered are still parsed below — a client that
                    // writes requests and half-closes gets its answers.
                    self.stop_reading();
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    self.idle_deadline = Instant::now() + ctx.config.idle_timeout;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.outbox.lock().dead = true;
                    return;
                }
            }
        }
        self.parse_frames(ctx);
    }

    /// Consumes every complete frame in `read_buf`, decoding each where
    /// it lies. A frame is only consumed whole — a partial frame stays
    /// put for the next pump — and a violation stops the inbound side at
    /// the exact frame boundary where it happened.
    fn parse_frames(&mut self, ctx: &IoCtx) {
        let mut at = 0;
        loop {
            let remaining = self.read_buf.len() - at;
            if remaining < 4 {
                break;
            }
            let prefix: [u8; 4] = self.read_buf[at..at + 4].try_into().expect("len 4");
            let len = u32::from_le_bytes(prefix) as usize;
            if len > ctx.config.max_frame {
                // OversizedFrame: violation before any allocation.
                self.start_drain();
                return;
            }
            if remaining < 4 + len {
                break;
            }
            let decoded = Request::decode(&self.read_buf[at + 4..at + 4 + len]);
            at += 4 + len;
            match decoded {
                Ok(request) => self.handle(request, ctx),
                Err(_violation) => {
                    self.start_drain();
                    return;
                }
            }
            if self.read_buf.len() < at {
                // A session-state violation inside handle() started the
                // drain and cleared the buffer; `at` is stale.
                return;
            }
        }
        self.read_buf.drain(..at);
    }

    /// One fully decoded request: admit it or answer why not.
    fn handle(&mut self, request: Request, ctx: &IoCtx) {
        match request {
            Request::Stats { id } => {
                // The merged cluster-wide snapshot, served inline on the
                // I/O thread (cheap: counters plus histogram walks).
                let snapshot = Box::new(ctx.service.metrics());
                self.outbox.reply(&Response::Stats { id, snapshot });
            }
            Request::Hash {
                id,
                algorithm,
                output_len,
                deadline,
                params,
                payload,
            } => {
                let flat = match plan::plan(algorithm, &params) {
                    ServePlan::Flat(flat) => flat,
                    ServePlan::Tree(tree) => {
                        // A tree is one request: the service packs its
                        // leaves into shared rounds beside the root.
                        if let Some(detail) = over_leaf_cap(tree.mode, payload.len(), ctx) {
                            let code = ErrorCode::SessionLimit;
                            self.outbox.reply(&Response::Error { id, code, detail });
                            return;
                        }
                        let mut request = TreeRequest::digest(
                            tree.mode,
                            &tree.customization,
                            payload,
                            output_len,
                        );
                        request.deadline = deadline;
                        self.serve(id, request, ctx, |id, output| Response::Digest {
                            id,
                            bytes: output.output,
                        });
                        return;
                    }
                };
                // FIPS 202 algorithms absorb the payload as-is; SP 800-185
                // algorithms absorb their framing around it, so one flat
                // message serves as a one-shot like everything else.
                let message = if algorithm.is_fips() {
                    payload
                } else {
                    plan::flat_message(&flat, algorithm, &payload, output_len)
                };
                let mut hash_request = HashRequest::new(message, flat.params, output_len);
                hash_request.deadline = deadline;
                self.serve(id, hash_request, ctx, |id, bytes| Response::Digest {
                    id,
                    bytes,
                });
            }
            Request::KemKeygen {
                id,
                set,
                deadline,
                d,
                z,
            } => {
                let request = KemRequest {
                    params: set.params(),
                    op: KemOp::Keygen { d, z },
                    deadline,
                };
                self.serve(id, request, ctx, kem_response);
            }
            Request::KemEncaps {
                id,
                set,
                deadline,
                m,
                ek,
            } => {
                let request = KemRequest {
                    params: set.params(),
                    op: KemOp::Encaps { ek, m },
                    deadline,
                };
                self.serve(id, request, ctx, kem_response);
            }
            Request::KemDecaps {
                id,
                set,
                deadline,
                dk,
                ct,
            } => {
                let request = KemRequest {
                    params: set.params(),
                    op: KemOp::Decaps { dk, ct },
                    deadline,
                };
                self.serve(id, request, ctx, kem_response);
            }
            Request::Open {
                id,
                session,
                algorithm,
                params,
            } => {
                let outcome =
                    self.sessions
                        .open(id, session, algorithm, &params, ctx, &self.outbox);
                self.check_violation(id, outcome);
            }
            Request::Absorb { id, session, chunk } => {
                if self.window_full(id, ctx) {
                    return;
                }
                let outcome = self.sessions.absorb(id, session, chunk, ctx, &self.outbox);
                self.check_violation(id, outcome);
            }
            Request::Finalize {
                id,
                session,
                output_len,
            } => {
                if self.window_full(id, ctx) {
                    return;
                }
                let outcome = self
                    .sessions
                    .finalize(id, session, output_len, ctx, &self.outbox);
                self.check_violation(id, outcome);
            }
            Request::Squeeze { id, session, len } => {
                if self.window_full(id, ctx) {
                    return;
                }
                let outcome = self.sessions.squeeze(id, session, len, ctx, &self.outbox);
                self.check_violation(id, outcome);
            }
            Request::Close { id, session } => {
                if self.window_full(id, ctx) {
                    return;
                }
                let outcome = self.sessions.close(id, session, ctx, &self.outbox);
                self.check_violation(id, outcome);
            }
        }
    }

    /// Admits one hash, tree or ML-KEM request through the connection
    /// window and the service's fair-share admission. A refusal is
    /// answered at once. Otherwise the ticket's callback runs on the
    /// shard's scheduler thread: it encodes `respond`'s frame (or the
    /// service error's) and hands it to [`Outbox::complete`], which
    /// writes it and releases the slot. A malformed KEM key or
    /// ciphertext comes back as a request-level `BAD_KEY` error: the
    /// connection survives, unlike a framing violation.
    fn serve<R: ServiceRequest>(
        &mut self,
        id: u64,
        request: R,
        ctx: &IoCtx,
        respond: fn(u64, R::Output) -> Response,
    ) {
        if self.window_full(id, ctx) {
            return;
        }
        self.outbox.hold();
        match ctx.service.submit_as(self.outbox.token, request) {
            Ok(ticket) => {
                let outbox = Arc::clone(&self.outbox);
                ticket.on_complete(move |completion| {
                    let response = match completion.result {
                        Ok(output) => respond(id, output),
                        Err(error) => {
                            let (code, detail) = service_error(&error);
                            Response::Error { id, code, detail }
                        }
                    };
                    outbox.complete(response.frame());
                });
            }
            Err(refusal) => {
                let (code, detail) = refusal_error(refusal);
                self.outbox.reply_op(&Response::Error { id, code, detail });
            }
        }
    }

    /// Answers `BUSY` if the pipeline window is full. Session frames
    /// each hold one window slot exactly like hash requests, so a
    /// connection's total queued work stays bounded by
    /// [`crate::ServerConfig::max_in_flight`].
    fn window_full(&mut self, id: u64, ctx: &IoCtx) -> bool {
        if self.outbox.in_flight() < ctx.config.max_in_flight {
            return false;
        }
        self.outbox.reply(&Response::Error {
            id,
            code: ErrorCode::Busy,
            detail: format!(
                "connection window full at {} in-flight requests",
                ctx.config.max_in_flight
            ),
        });
        true
    }

    /// A session-state violation is connection-fatal: answer the typed
    /// error, then drain exactly like a framing violation.
    fn check_violation(&mut self, id: u64, outcome: Result<(), Violation>) {
        if let Err(violation) = outcome {
            self.outbox.reply(&Response::Error {
                id,
                code: violation.code,
                detail: violation.detail,
            });
            self.start_drain();
        }
    }
}

/// The reply frame of a served ML-KEM operation.
fn kem_response(id: u64, result: KemResult) -> Response {
    match result {
        KemResult::Keygen { ek, dk } => Response::KemKeys { id, ek, dk },
        KemResult::Encaps { ct, shared_secret } => Response::KemCiphertext {
            id,
            ct,
            shared_secret,
        },
        KemResult::Decaps { shared_secret } => Response::KemSecret { id, shared_secret },
    }
}

/// Maps a failed service request to the code and detail of the wire
/// error answering it.
pub(crate) fn service_error(error: &RequestError) -> (ErrorCode, String) {
    match error {
        RequestError::TimedOut => (
            ErrorCode::Deadline,
            "deadline elapsed before dispatch".into(),
        ),
        RequestError::WorkerFailure { error } => (ErrorCode::Internal, error.to_string()),
        RequestError::InvalidInput(error) => (ErrorCode::BadKey, error.to_string()),
    }
}

/// Maps an admission refusal to the wire error answering it.
fn refusal_error(refusal: SubmitError) -> (ErrorCode, String) {
    match refusal {
        SubmitError::QueueFull { depth } => (
            ErrorCode::Busy,
            format!("admission queue full at depth {depth}"),
        ),
        SubmitError::ClientThrottled { held, .. } => (
            ErrorCode::Busy,
            format!("client throttled at its fair share ({held} queued)"),
        ),
        SubmitError::ShuttingDown => (ErrorCode::ShuttingDown, "daemon is draining".into()),
    }
}
