//! The client half of the wire protocol: a blocking, pipelining client
//! used by the tests, the example and the network bench.
//!
//! One [`Client`] owns one connection. [`Client::submit`] writes a
//! request and returns immediately with a [`PendingReply`]; a reader
//! thread matches responses to pending requests by id, so any number of
//! requests can be in flight at once and a simple sync call is just
//! submit-then-wait. Every reply carries the client-side end-to-end
//! latency (submit to response arrival), measured by the reader thread
//! even when [`PendingReply::wait`] is called much later.

use crate::protocol::{
    absorb_head, hash_head, read_frame, send_frame, AlgorithmParams, ErrorCode, KemParameterSet,
    ProtocolError, Request, Response, WireAlgorithm, DEFAULT_MAX_FRAME, MAX_CHUNK_LEN,
    MAX_OUTPUT_LEN,
};
use krv_service::MetricsSnapshot;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most un-acked ABSORB frames [`StreamingSession::absorb`] keeps in
/// flight. Below the server's default 128-request window, so a
/// cooperating client never draws `BUSY`, while still pipelining deeply
/// enough to keep the link and the service full.
const ABSORB_WINDOW: usize = 64;

/// An error response from the server, as the caller sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    /// The machine-readable reason.
    pub code: ErrorCode,
    /// The server's human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for RemoteError {}

/// Why a client call failed without a server error response.
#[derive(Debug)]
pub enum ClientError {
    /// A transport failure on the socket.
    Io(io::Error),
    /// The server sent bytes that do not decode as a response.
    Protocol(ProtocolError),
    /// The server answered with an error response.
    Remote(RemoteError),
    /// The connection closed before the response arrived.
    ConnectionClosed,
    /// The server answered a hash request with a non-digest,
    /// non-error response.
    UnexpectedResponse,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::ConnectionClosed => write!(f, "connection closed before the response"),
            ClientError::UnexpectedResponse => {
                write!(f, "response kind does not match the request")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A completed request as the client records it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The response frame, matched by request id.
    pub response: Response,
    /// Submit-to-arrival latency, measured on the reader thread.
    pub elapsed: Duration,
}

/// One pending slot in the client's correlation map. The reply is
/// boxed so an empty `Waiting` slot costs a pointer, not a whole
/// response frame.
#[derive(Debug)]
enum Slot {
    Waiting { submitted: Instant },
    Done(Box<Reply>),
}

#[derive(Debug)]
struct ClientState {
    pending: HashMap<u64, Slot>,
    /// Set once the reader thread exits; every waiter then fails with
    /// [`ClientError::ConnectionClosed`] instead of blocking forever.
    closed: bool,
}

#[derive(Debug)]
struct SharedState {
    state: Mutex<ClientState>,
    arrived: Condvar,
}

/// A handle to one in-flight request; [`Self::wait`] blocks for its
/// reply. Dropping the handle abandons the reply (the slot is reaped
/// when the response arrives).
#[derive(Debug)]
pub struct PendingReply {
    shared: Arc<SharedState>,
    id: u64,
}

impl PendingReply {
    /// The id the request travelled under.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// [`ClientError::ConnectionClosed`] if the socket dies first.
    pub fn wait(self) -> Result<Reply, ClientError> {
        let mut state = self.shared.state.lock().expect("client lock");
        loop {
            if let Some(Slot::Done(_)) = state.pending.get(&self.id) {
                match state.pending.remove(&self.id) {
                    Some(Slot::Done(reply)) => return Ok(*reply),
                    _ => unreachable!("checked under the same lock"),
                }
            }
            if state.closed {
                state.pending.remove(&self.id);
                return Err(ClientError::ConnectionClosed);
            }
            state = self.shared.arrived.wait(state).expect("client lock");
        }
    }

    /// Waits and unwraps a digest response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] for a server error response,
    /// [`ClientError::UnexpectedResponse`] for anything else non-digest,
    /// plus everything [`Self::wait`] can fail with.
    pub fn wait_digest(self) -> Result<Vec<u8>, ClientError> {
        match self.wait()?.response {
            Response::Digest { bytes, .. } => Ok(bytes),
            Response::Error { code, detail, .. } => {
                Err(ClientError::Remote(RemoteError { code, detail }))
            }
            _ => Err(ClientError::UnexpectedResponse),
        }
    }
}

/// A connection to the remote hashing daemon.
///
/// # Example
///
/// ```no_run
/// use krv_server::{Client, WireAlgorithm};
///
/// let client = Client::connect("127.0.0.1:4117").unwrap();
/// let digest = client.digest(WireAlgorithm::Sha3_256, b"abc").unwrap();
/// assert_eq!(digest.len(), 32);
/// ```
#[derive(Debug)]
pub struct Client {
    writer: Mutex<WriterState>,
    shared: Arc<SharedState>,
    reader: Option<JoinHandle<()>>,
    stream: TcpStream,
    next_session: AtomicU64,
}

#[derive(Debug)]
struct WriterState {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let write_half = stream.try_clone()?;
        let shared = Arc::new(SharedState {
            state: Mutex::new(ClientState {
                pending: HashMap::new(),
                closed: false,
            }),
            arrived: Condvar::new(),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("krv-client-reader".into())
                .spawn(move || read_responses(read_half, &shared))?
        };
        Ok(Self {
            writer: Mutex::new(WriterState {
                stream: write_half,
                next_id: 1,
            }),
            shared,
            reader: Some(reader),
            stream,
            next_session: AtomicU64::new(1),
        })
    }

    /// Submits a hash request without waiting: the pipelining primitive.
    ///
    /// # Errors
    ///
    /// Transport errors writing the frame.
    pub fn submit(
        &self,
        algorithm: WireAlgorithm,
        message: &[u8],
        output_len: usize,
        deadline: Option<Duration>,
    ) -> Result<PendingReply, ClientError> {
        self.submit_with(
            algorithm,
            AlgorithmParams::none(),
            message,
            output_len,
            deadline,
        )
    }

    /// [`Self::submit`] with an SP 800-185 parameter block (function
    /// name, key, customization, block size — whatever the algorithm
    /// takes).
    ///
    /// # Errors
    ///
    /// Transport errors writing the frame.
    pub fn submit_with(
        &self,
        algorithm: WireAlgorithm,
        params: AlgorithmParams,
        message: &[u8],
        output_len: usize,
        deadline: Option<Duration>,
    ) -> Result<PendingReply, ClientError> {
        let head = |id| hash_head(id, algorithm, output_len, deadline, &params, message.len());
        self.send(head, message)
    }

    /// Submits a `STATS` request without waiting.
    ///
    /// # Errors
    ///
    /// Transport errors writing the frame.
    pub fn submit_stats(&self) -> Result<PendingReply, ClientError> {
        self.send_request(|id| Request::Stats { id })
    }

    /// Sends a request of a kind without a tail: its head is its whole
    /// frame.
    fn send_request(
        &self,
        request: impl FnOnce(u64) -> Request,
    ) -> Result<PendingReply, ClientError> {
        self.send(|id| request(id).frame_head(), &[])
    }

    /// The one send path: registers a fresh id, then writes the frame
    /// `head` builds for it followed by `tail` (a HASH payload or an
    /// ABSORB chunk, written from the caller's buffer; empty for every
    /// other kind).
    fn send(
        &self,
        head: impl FnOnce(u64) -> Vec<u8>,
        tail: &[u8],
    ) -> Result<PendingReply, ClientError> {
        let mut writer = self.writer.lock().expect("writer lock");
        let id = writer.next_id;
        writer.next_id += 1;
        // Register before writing: the response cannot race past its
        // slot even if it arrives before this thread releases the lock.
        self.shared
            .state
            .lock()
            .expect("client lock")
            .pending
            .insert(
                id,
                Slot::Waiting {
                    submitted: Instant::now(),
                },
            );
        if let Err(e) = send_frame(&mut writer.stream, &head(id), tail) {
            self.shared
                .state
                .lock()
                .expect("client lock")
                .pending
                .remove(&id);
            return Err(ClientError::Io(e));
        }
        Ok(PendingReply {
            shared: Arc::clone(&self.shared),
            id,
        })
    }

    /// One blocking hash: submit, wait, unwrap the digest.
    ///
    /// # Errors
    ///
    /// Everything [`Self::submit`] and [`PendingReply::wait_digest`] can
    /// fail with.
    pub fn hash(
        &self,
        algorithm: WireAlgorithm,
        message: &[u8],
        output_len: usize,
        deadline: Option<Duration>,
    ) -> Result<Vec<u8>, ClientError> {
        self.submit(algorithm, message, output_len, deadline)?
            .wait_digest()
    }

    /// One blocking parameterized hash — the SP 800-185 one-shot.
    ///
    /// # Errors
    ///
    /// Everything [`Self::submit_with`] and
    /// [`PendingReply::wait_digest`] can fail with.
    pub fn hash_with(
        &self,
        algorithm: WireAlgorithm,
        params: AlgorithmParams,
        message: &[u8],
        output_len: usize,
    ) -> Result<Vec<u8>, ClientError> {
        self.submit_with(algorithm, params, message, output_len, None)?
            .wait_digest()
    }

    /// One blocking digest at the algorithm's natural output length (the
    /// fixed digest length, or 32 bytes for the XOFs).
    ///
    /// # Errors
    ///
    /// Same as [`Self::hash`].
    pub fn digest(&self, algorithm: WireAlgorithm, message: &[u8]) -> Result<Vec<u8>, ClientError> {
        let output_len = algorithm.fixed_output_len().unwrap_or(32);
        self.hash(algorithm, message, output_len, None)
    }

    /// Fetches the service's metrics over the wire.
    ///
    /// # Errors
    ///
    /// Transport errors, plus [`ClientError::UnexpectedResponse`] if the
    /// server answers with anything but a stats frame.
    pub fn stats(&self) -> Result<MetricsSnapshot, ClientError> {
        match self.submit_stats()?.wait()?.response {
            Response::Stats { snapshot, .. } => Ok(*snapshot),
            Response::Error { code, detail, .. } => {
                Err(ClientError::Remote(RemoteError { code, detail }))
            }
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Submits a `KEM_KEYGEN` request without waiting. The seeds are
    /// caller-supplied so deterministic test vectors serve unchanged;
    /// production callers should draw them from a secure RNG.
    ///
    /// # Errors
    ///
    /// Transport errors writing the frame.
    pub fn submit_kem_keygen(
        &self,
        set: KemParameterSet,
        d: [u8; 32],
        z: [u8; 32],
        deadline: Option<Duration>,
    ) -> Result<PendingReply, ClientError> {
        self.send_request(|id| Request::KemKeygen {
            id,
            set,
            deadline,
            d,
            z,
        })
    }

    /// Submits a `KEM_ENCAPS` request without waiting.
    ///
    /// # Errors
    ///
    /// Transport errors writing the frame.
    pub fn submit_kem_encaps(
        &self,
        set: KemParameterSet,
        ek: &[u8],
        m: [u8; 32],
        deadline: Option<Duration>,
    ) -> Result<PendingReply, ClientError> {
        let ek = ek.to_vec();
        self.send_request(|id| Request::KemEncaps {
            id,
            set,
            deadline,
            m,
            ek,
        })
    }

    /// Submits a `KEM_DECAPS` request without waiting.
    ///
    /// # Errors
    ///
    /// Transport errors writing the frame.
    pub fn submit_kem_decaps(
        &self,
        set: KemParameterSet,
        dk: &[u8],
        ct: &[u8],
        deadline: Option<Duration>,
    ) -> Result<PendingReply, ClientError> {
        let dk = dk.to_vec();
        let ct = ct.to_vec();
        self.send_request(|id| Request::KemDecaps {
            id,
            set,
            deadline,
            dk,
            ct,
        })
    }

    /// One blocking ML-KEM key generation: returns `(ek, dk)`.
    ///
    /// # Errors
    ///
    /// Transport errors, server error replies (`BAD_KEY`, `BUSY`, …),
    /// and [`ClientError::UnexpectedResponse`] for a non-`KEM_KEYS`
    /// reply.
    pub fn kem_keygen(
        &self,
        set: KemParameterSet,
        d: [u8; 32],
        z: [u8; 32],
    ) -> Result<(Vec<u8>, Vec<u8>), ClientError> {
        match self.submit_kem_keygen(set, d, z, None)?.wait()?.response {
            Response::KemKeys { ek, dk, .. } => Ok((ek, dk)),
            Response::Error { code, detail, .. } => {
                Err(ClientError::Remote(RemoteError { code, detail }))
            }
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// One blocking ML-KEM encapsulation: returns `(ct, shared_secret)`.
    ///
    /// # Errors
    ///
    /// Same shape as [`Self::kem_keygen`]; a malformed `ek` comes back
    /// as a `BAD_KEY` remote error.
    pub fn kem_encaps(
        &self,
        set: KemParameterSet,
        ek: &[u8],
        m: [u8; 32],
    ) -> Result<(Vec<u8>, [u8; 32]), ClientError> {
        match self.submit_kem_encaps(set, ek, m, None)?.wait()?.response {
            Response::KemCiphertext {
                ct, shared_secret, ..
            } => Ok((ct, shared_secret)),
            Response::Error { code, detail, .. } => {
                Err(ClientError::Remote(RemoteError { code, detail }))
            }
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// One blocking ML-KEM decapsulation: returns the shared secret
    /// (the implicit-rejection secret for a tampered ciphertext).
    ///
    /// # Errors
    ///
    /// Same shape as [`Self::kem_keygen`]; a malformed `dk` or `ct`
    /// comes back as a `BAD_KEY` remote error.
    pub fn kem_decaps(
        &self,
        set: KemParameterSet,
        dk: &[u8],
        ct: &[u8],
    ) -> Result<[u8; 32], ClientError> {
        match self.submit_kem_decaps(set, dk, ct, None)?.wait()?.response {
            Response::KemSecret { shared_secret, .. } => Ok(shared_secret),
            Response::Error { code, detail, .. } => {
                Err(ClientError::Remote(RemoteError { code, detail }))
            }
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Opens a streaming session: `OPEN` now, then `ABSORB`/`FINALIZE`/
    /// `SQUEEZE`/`CLOSE` through the returned handle. The session id is
    /// client-assigned and unique per connection.
    ///
    /// # Errors
    ///
    /// Transport errors, the server's `SESSION_LIMIT` refusal, and
    /// [`ClientError::UnexpectedResponse`] for a non-ack reply.
    pub fn open_session(
        &self,
        algorithm: WireAlgorithm,
        params: AlgorithmParams,
    ) -> Result<StreamingSession<'_>, ClientError> {
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        let pending = self.send_request(|id| Request::Open {
            id,
            session,
            algorithm,
            params,
        })?;
        expect_ack(pending)?;
        Ok(StreamingSession {
            client: self,
            session,
        })
    }
}

/// Waits for a session ack (`OPENED`/`ABSORBED`/`FINALIZED`/`CLOSED`),
/// surfacing server errors.
fn expect_ack(pending: PendingReply) -> Result<(), ClientError> {
    match pending.wait()?.response {
        Response::Opened { .. }
        | Response::Absorbed { .. }
        | Response::Finalized { .. }
        | Response::Closed { .. } => Ok(()),
        Response::Error { code, detail, .. } => {
            Err(ClientError::Remote(RemoteError { code, detail }))
        }
        _ => Err(ClientError::UnexpectedResponse),
    }
}

/// One open streaming session: absorb any number of chunks, finalize,
/// squeeze, close — the message never exists whole on either end.
///
/// [`Self::absorb`] splits its input at the protocol's
/// [`MAX_CHUNK_LEN`] and pipelines the chunks (`ABSORB_WINDOW` acks
/// outstanding), so arbitrarily large messages stream through bounded
/// client memory; [`Self::squeeze`] likewise splits at
/// [`MAX_OUTPUT_LEN`]. Dropping the handle without [`Self::close`]
/// leaves the session to the server's idle reaper.
///
/// # Example
///
/// ```no_run
/// use krv_server::{AlgorithmParams, Client, WireAlgorithm};
///
/// let client = Client::connect("127.0.0.1:4117").unwrap();
/// let session = client
///     .open_session(WireAlgorithm::Shake256, AlgorithmParams::none())
///     .unwrap();
/// session.absorb(b"streamed in ").unwrap();
/// session.absorb(b"two chunks").unwrap();
/// session.finalize(0).unwrap();
/// let digest = session.squeeze(64).unwrap();
/// session.close().unwrap();
/// assert_eq!(digest.len(), 64);
/// ```
#[derive(Debug)]
pub struct StreamingSession<'a> {
    client: &'a Client,
    session: u64,
}

impl StreamingSession<'_> {
    /// The wire session id.
    pub fn id(&self) -> u64 {
        self.session
    }

    /// Submits one `ABSORB` frame without waiting for its ack — the
    /// streaming pipelining primitive.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::OversizedChunk`] (client-side, nothing is sent)
    /// if the chunk exceeds [`MAX_CHUNK_LEN`], plus transport errors.
    pub fn submit_absorb(&self, chunk: &[u8]) -> Result<PendingReply, ClientError> {
        if chunk.len() > MAX_CHUNK_LEN {
            return Err(ClientError::Protocol(ProtocolError::OversizedChunk {
                len: chunk.len(),
            }));
        }
        let session = self.session;
        self.client
            .send(|id| absorb_head(id, session, chunk.len()), chunk)
    }

    /// Absorbs `data`, splitting it at [`MAX_CHUNK_LEN`] and keeping up
    /// to `ABSORB_WINDOW` (64) chunk acks in flight. For TupleHash
    /// sessions each call is one tuple entry, so `data` must fit a
    /// single chunk.
    ///
    /// # Errors
    ///
    /// Transport errors, and the server's error reply if the session
    /// has failed.
    pub fn absorb(&self, data: &[u8]) -> Result<(), ClientError> {
        let mut pending: VecDeque<PendingReply> = VecDeque::new();
        for chunk in data.chunks(MAX_CHUNK_LEN) {
            pending.push_back(self.submit_absorb(chunk)?);
            if pending.len() >= ABSORB_WINDOW {
                expect_ack(pending.pop_front().expect("window is non-empty"))?;
            }
        }
        for ack in pending {
            expect_ack(ack)?;
        }
        Ok(())
    }

    /// Finalizes the message, declaring the total output length
    /// (`0` = unbounded XOF squeezing, where the algorithm allows it).
    ///
    /// # Errors
    ///
    /// Transport errors and server error replies.
    pub fn finalize(&self, output_len: usize) -> Result<(), ClientError> {
        let session = self.session;
        expect_ack(self.client.send_request(|id| Request::Finalize {
            id,
            session,
            output_len,
        })?)
    }

    /// Squeezes `len` output bytes, splitting the request at
    /// [`MAX_OUTPUT_LEN`]. Sequential calls continue the output stream.
    ///
    /// # Errors
    ///
    /// Transport errors, server error replies, and
    /// [`ClientError::UnexpectedResponse`] for a non-`SQUEEZED` reply.
    pub fn squeeze(&self, len: usize) -> Result<Vec<u8>, ClientError> {
        let mut out = Vec::with_capacity(len);
        let mut remaining = len;
        while remaining > 0 {
            let take = remaining.min(MAX_OUTPUT_LEN);
            let session = self.session;
            let pending = self.client.send_request(|id| Request::Squeeze {
                id,
                session,
                len: take,
            })?;
            match pending.wait()?.response {
                Response::Squeezed { bytes, .. } => out.extend_from_slice(&bytes),
                Response::Error { code, detail, .. } => {
                    return Err(ClientError::Remote(RemoteError { code, detail }))
                }
                _ => return Err(ClientError::UnexpectedResponse),
            }
            remaining -= take;
        }
        Ok(out)
    }

    /// Closes the session, freeing its id on the server.
    ///
    /// # Errors
    ///
    /// Transport errors and server error replies.
    pub fn close(self) -> Result<(), ClientError> {
        let session = self.session;
        expect_ack(
            self.client
                .send_request(|id| Request::Close { id, session })?,
        )
    }
}

impl Drop for Client {
    /// Closes the connection and joins the reader; outstanding
    /// [`PendingReply`]s fail with [`ClientError::ConnectionClosed`].
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The reader thread: decodes response frames and fills pending slots
/// until the connection closes or the server breaks the protocol.
/// Buffered reads let one socket read deliver several pipelined
/// response frames.
fn read_responses(stream: TcpStream, shared: &SharedState) {
    let mut stream = io::BufReader::new(stream);
    // Anything but a well-formed frame — EOF, transport error, an
    // oversized or undecodable body — ends the connection.
    while let Ok(Some(Ok(body))) = read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        let Ok(response) = Response::decode(&body) else {
            break;
        };
        let arrived = Instant::now();
        let mut state = shared.state.lock().expect("client lock");
        if let Some(slot) = state.pending.get_mut(&response.id()) {
            let elapsed = match slot {
                Slot::Waiting { submitted } => arrived.duration_since(*submitted),
                // A duplicate id from the server; keep the first reply.
                Slot::Done(_) => continue,
            };
            *slot = Slot::Done(Box::new(Reply { response, elapsed }));
            drop(state);
            shared.arrived.notify_all();
        }
        // An id nobody registered (or an abandoned PendingReply whose
        // slot was already removed): drop the frame.
    }
    let mut state = shared.state.lock().expect("client lock");
    state.closed = true;
    drop(state);
    shared.arrived.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Payload sizes around the 8 KiB a buffered writer held, and the
    /// chunk limit.
    const SIZES: [usize; 6] = [0, 1, 8191, 8192, 8193, MAX_CHUNK_LEN];

    /// What the send path writes for a HASH payload or an ABSORB chunk —
    /// a head built for the request and the caller's bytes behind it —
    /// is byte for byte the length prefix and `Request::encode()`.
    #[test]
    fn hash_and_absorb_frames_match_the_encoded_request() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        let capture = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().expect("accept");
            let mut bytes = Vec::new();
            socket.read_to_end(&mut bytes).expect("read");
            bytes
        });
        let client = Client::connect(addr).expect("connect");
        let session = StreamingSession {
            client: &client,
            session: 0xC0DE,
        };
        let mut expected = Vec::new();
        let mut id = 0;
        for (n, len) in SIZES.into_iter().enumerate() {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + n) as u8).collect();
            let deadline = Some(Duration::from_millis(250));
            client
                .submit(WireAlgorithm::Shake128, &bytes, 48, deadline)
                .expect("submit HASH");
            session.submit_absorb(&bytes).expect("submit ABSORB");
            let requests = [
                Request::Hash {
                    id: id + 1,
                    algorithm: WireAlgorithm::Shake128,
                    output_len: 48,
                    deadline,
                    params: AlgorithmParams::none(),
                    payload: bytes.clone(),
                },
                Request::Absorb {
                    id: id + 2,
                    session: 0xC0DE,
                    chunk: bytes,
                },
            ];
            for request in requests {
                let body = request.encode();
                expected.extend_from_slice(&(body.len() as u32).to_le_bytes());
                expected.extend_from_slice(&body);
            }
            id += 2;
        }
        drop(client);
        let written = capture.join().expect("capture thread");
        assert_eq!(written.len(), expected.len());
        assert!(written == expected, "the frames differ from the encoding");
    }
}
