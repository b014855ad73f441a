//! One multiplexed connection: a non-blocking state machine pumped by
//! an I/O thread, not a pair of dedicated threads.
//!
//! A [`Connection`] owns a non-blocking socket, a byte buffer of
//! unparsed inbound data, and a queue of encoded outbound frames. The
//! owning I/O thread pumps it: writes whatever the socket accepts,
//! reads whatever has arrived, parses every *complete* frame out of the
//! buffer and handles it. Partial frames simply stay buffered until
//! more bytes arrive — framing cannot desynchronize, because nothing is
//! consumed until the full frame is present and decoded.
//!
//! Responses flow back asynchronously: a hash, tree or ML-KEM submission
//! registers a ticket callback that encodes the response on the
//! scheduler thread and posts it to the I/O thread's inbox
//! ([`crate::poll::IoShared`]), which routes it to this connection's
//! outbound queue. The request id is the client's correlation key;
//! responses overtake each other freely.
//!
//! A protocol violation (bad magic, unknown kind, oversized frame, …)
//! is fatal **to the connection only**: reading stops, already admitted
//! requests still get their responses written, and the socket closes.
//! The daemon and every other connection keep serving. EOF and idleness
//! (no bytes received for the idle timeout) end a connection the same
//! graceful way.

use crate::plan::{self, ServePlan};
use crate::poll::IoCtx;
use crate::protocol::{ErrorCode, Request, Response};
use crate::session::{over_leaf_cap, ConnIo, SessionEvent, SessionTable, Violation};
use krv_kyber::{KemOp, KemResult};
use krv_service::{
    HashRequest, KemRequest, Request as ServiceRequest, RequestError, SubmitError, TreeRequest,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Most scratch-buffer reads one pump performs before yielding to the
/// next connection, so one firehose peer cannot starve the rest of the
/// I/O thread's sweep.
const READS_PER_PUMP: usize = 4;

/// Prepends the length prefix, turning a frame body into wire bytes.
pub(crate) fn wire(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// The per-connection state machine. All methods are non-blocking; the
/// owning I/O thread calls them from its sweep.
#[derive(Debug)]
pub(crate) struct Connection {
    stream: TcpStream,
    /// The connection's stable id: the routing key for inbox frames and
    /// the client id fair-share admission accounts against.
    token: u64,
    /// Received, not-yet-parsed bytes (at most one partial frame plus
    /// whatever arrived behind it).
    read_buf: Vec<u8>,
    /// Encoded outbound frames (wire bytes, length prefix included).
    outbound: VecDeque<Vec<u8>>,
    /// Bytes of `outbound.front()` already written.
    front_written: usize,
    /// Requests submitted whose responses have not yet been posted back
    /// to the I/O thread. Shared with the ticket callbacks, which
    /// decrement it *after* posting the response frame.
    in_flight: Arc<AtomicUsize>,
    /// When the connection is closed for idleness: reset whenever bytes
    /// arrive.
    idle_deadline: Instant,
    /// `false` once EOF, a violation, idleness or daemon shutdown ends
    /// the inbound side; the connection then drains and closes.
    reading: bool,
    /// This connection's streaming sessions; dies with the connection.
    sessions: SessionTable,
    /// A hard transport failure: the connection is removed immediately,
    /// without draining.
    pub dead: bool,
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
            stream,
            token,
            read_buf: Vec::new(),
            outbound: VecDeque::new(),
            front_written: 0,
            in_flight: Arc::new(AtomicUsize::new(0)),
            idle_deadline: Instant::now() + ctx.config.idle_timeout,
            reading: true,
            sessions: SessionTable::new(),
            dead: false,
        })
    }

    /// The connection's routing token / client id.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Stops the inbound side: no more reads, no more submissions. The
    /// connection closes once its in-flight responses have been posted
    /// and written.
    pub fn start_drain(&mut self) {
        self.reading = false;
        self.read_buf.clear();
    }

    /// Whether every admitted request's response has been posted to the
    /// I/O inbox and the inbound side is closed. Because callbacks post
    /// their frame *before* decrementing the counter, observing zero
    /// here guarantees a subsequent inbox take sees every response —
    /// the close sequence relies on exactly that ordering.
    pub fn drained(&self) -> bool {
        !self.reading && self.in_flight.load(Ordering::Acquire) == 0
    }

    /// Whether nothing remains to write.
    pub fn flushed(&self) -> bool {
        self.outbound.is_empty()
    }

    /// Queues an encoded frame (wire bytes) for writing.
    pub fn push_frame(&mut self, frame: Vec<u8>) {
        self.outbound.push_back(frame);
    }

    /// One pump: flush what the socket accepts, check idleness, read
    /// and handle what has arrived. Returns whether any bytes moved.
    pub fn pump(&mut self, ctx: &IoCtx, scratch: &mut [u8], now: Instant) -> bool {
        if self.dead {
            return false;
        }
        let progress = self.pump_write();
        if self.reading && now >= self.idle_deadline {
            // Idleness covers half-open peers too: a vanished client
            // sends no bytes (and no FIN), so its connection ends here.
            self.start_drain();
        }
        let progress = progress | self.pump_read(ctx, scratch);
        // Retry session operations parked on backpressure and reap idle
        // wire sessions.
        let mut io = ConnIo {
            token: self.token,
            outbound: &mut self.outbound,
            in_flight: &self.in_flight,
        };
        self.sessions.tick(now, ctx, &mut io);
        progress
    }

    /// Routes a session completion into this connection's table.
    pub fn on_event(&mut self, event: SessionEvent, ctx: &IoCtx) {
        let mut io = ConnIo {
            token: self.token,
            outbound: &mut self.outbound,
            in_flight: &self.in_flight,
        };
        self.sessions.on_event(event, ctx, &mut io);
    }

    /// Writes queued frames until the socket would block.
    fn pump_write(&mut self) -> bool {
        let mut progress = false;
        while let Some(front) = self.outbound.front() {
            match self.stream.write(&front[self.front_written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    progress = true;
                    self.front_written += n;
                    if self.front_written == front.len() {
                        self.outbound.pop_front();
                        self.front_written = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progress
    }

    /// Reads what has arrived (bounded per pump), then parses and
    /// handles every complete frame in the buffer.
    fn pump_read(&mut self, ctx: &IoCtx, scratch: &mut [u8]) -> bool {
        if !self.reading {
            return false;
        }
        let mut progress = false;
        for _ in 0..READS_PER_PUMP {
            match self.stream.read(scratch) {
                Ok(0) => {
                    // Clean EOF: whatever complete frames are already
                    // buffered are still parsed below — a client that
                    // writes requests and half-closes gets its answers.
                    self.reading = false;
                    break;
                }
                Ok(n) => {
                    progress = true;
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    self.idle_deadline = Instant::now() + ctx.config.idle_timeout;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return progress;
                }
            }
        }
        self.parse_frames(ctx);
        progress
    }

    /// Consumes every complete frame in `read_buf`. A frame is only
    /// consumed whole — a partial frame stays put for the next pump —
    /// and a violation stops the inbound side at the exact frame
    /// boundary where it happened.
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
            let body: Vec<u8> = self.read_buf[at + 4..at + 4 + len].to_vec();
            at += 4 + len;
            match Request::decode(&body) {
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
                self.push_frame(wire(&Response::Stats { id, snapshot }.encode()));
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
                            self.push_frame(wire(&Response::Error { id, code, detail }.encode()));
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
                let mut io = ConnIo {
                    token: self.token,
                    outbound: &mut self.outbound,
                    in_flight: &self.in_flight,
                };
                let outcome = self
                    .sessions
                    .open(id, session, algorithm, &params, ctx, &mut io);
                self.check_violation(id, outcome);
            }
            Request::Absorb { id, session, chunk } => {
                if self.window_full(id, ctx) {
                    return;
                }
                let mut io = ConnIo {
                    token: self.token,
                    outbound: &mut self.outbound,
                    in_flight: &self.in_flight,
                };
                let outcome = self.sessions.absorb(id, session, chunk, ctx, &mut io);
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
                let mut io = ConnIo {
                    token: self.token,
                    outbound: &mut self.outbound,
                    in_flight: &self.in_flight,
                };
                let outcome = self
                    .sessions
                    .finalize(id, session, output_len, ctx, &mut io);
                self.check_violation(id, outcome);
            }
            Request::Squeeze { id, session, len } => {
                if self.window_full(id, ctx) {
                    return;
                }
                let mut io = ConnIo {
                    token: self.token,
                    outbound: &mut self.outbound,
                    in_flight: &self.in_flight,
                };
                let outcome = self.sessions.squeeze(id, session, len, ctx, &mut io);
                self.check_violation(id, outcome);
            }
            Request::Close { id, session } => {
                if self.window_full(id, ctx) {
                    return;
                }
                let mut io = ConnIo {
                    token: self.token,
                    outbound: &mut self.outbound,
                    in_flight: &self.in_flight,
                };
                let outcome = self.sessions.close(id, session, ctx, &mut io);
                self.check_violation(id, outcome);
            }
        }
    }

    /// Admits one hash, tree or ML-KEM request through the connection
    /// window and the service's fair-share admission. A refusal is
    /// answered at once. Otherwise the ticket's callback runs on the
    /// shard's scheduler thread: it encodes `respond`'s frame (or the
    /// service error's), posts it to the I/O inbox, then releases the
    /// in-flight slot — in that order; `drained` depends on it. A
    /// malformed KEM key or ciphertext comes back as a request-level
    /// `BAD_KEY` error: the connection survives, unlike a framing
    /// violation.
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
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        match ctx.service.submit_as(self.token, request) {
            Ok(ticket) => {
                let shared = Arc::clone(&ctx.shared);
                let in_flight = Arc::clone(&self.in_flight);
                let token = self.token;
                ticket.on_complete(move |completion| {
                    let response = match completion.result {
                        Ok(output) => respond(id, output),
                        Err(error) => {
                            let (code, detail) = service_error(&error);
                            Response::Error { id, code, detail }
                        }
                    };
                    shared.post_frame(token, wire(&response.encode()));
                    in_flight.fetch_sub(1, Ordering::AcqRel);
                });
            }
            Err(refusal) => {
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
                let (code, detail) = refusal_error(refusal);
                self.push_frame(wire(&Response::Error { id, code, detail }.encode()));
            }
        }
    }

    /// Answers `BUSY` if the pipeline window is full. Session frames
    /// each hold one window slot exactly like hash requests, so a
    /// connection's total queued work stays bounded by
    /// [`crate::ServerConfig::max_in_flight`].
    fn window_full(&mut self, id: u64, ctx: &IoCtx) -> bool {
        if self.in_flight.load(Ordering::Acquire) < ctx.config.max_in_flight {
            return false;
        }
        let response = Response::Error {
            id,
            code: ErrorCode::Busy,
            detail: format!(
                "connection window full at {} in-flight requests",
                ctx.config.max_in_flight
            ),
        };
        self.push_frame(wire(&response.encode()));
        true
    }

    /// A session-state violation is connection-fatal: answer the typed
    /// error, then drain exactly like a framing violation.
    fn check_violation(&mut self, id: u64, outcome: Result<(), Violation>) {
        if let Err(violation) = outcome {
            let response = Response::Error {
                id,
                code: violation.code,
                detail: violation.detail,
            };
            self.push_frame(wire(&response.encode()));
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
