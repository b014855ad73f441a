//! A continuous-batching hashing service over the pooled vector engines.
//!
//! The paper's engines earn their speedup by keeping all `SN` sponge
//! states of a vector pass busy; a caller hashing one message at a time
//! leaves most of the register file idle. This crate closes that gap the
//! way inference servers do: independent callers [`Service::submit`]
//! single requests into a bounded admission queue, and a scheduler
//! thread continuously forms micro-batches sized to the engine pool —
//! closing a batch as soon as every pooled state slot can be filled, or
//! when the oldest request has waited [`ServiceConfig::max_wait`] — and
//! dispatches them on a [`krv_core::EnginePool`] (or the host-native
//! tier, see [`TierPolicy`]).
//!
//! One loop serves every request kind. At batch formation each live
//! request becomes a job that yields sponge operations round by round:
//! a one-shot [`HashRequest`] is one round on a fresh state, a
//! [`StreamRequest`] one round on its session's state, a
//! [`TreeRequest`] the rounds of its [`krv_sha3::TreeJob`] (up to
//! [`LEAVES_PER_ROUND`] leaves and the root per round), and a
//! [`KemRequest`] the rounds of its staged [`krv_kyber::KemJob`]. Each
//! round packs every live job's operations into one *dispatch group*:
//! one [`krv_sha3::drive_stream`] call, whatever the operations' sponge
//! parameters. The same call routes the round to its tier, retries it
//! once on a lost worker, and samples it for the mirror oracle
//! ([`TierPolicy::mirror_every`] counts rounds). A job's ticket
//! completes at the end of the round it finishes in, so a batch's
//! one-shot and stream tickets complete after its first round even
//! while its tree and KEM jobs run on. The round's counts reach
//! [`Service::metrics`] before any of its tickets complete.
//!
//! Robustness is part of the contract:
//!
//! * **Backpressure** — the admission queue is bounded; a full queue
//!   rejects with [`SubmitError::QueueFull`] instead of growing without
//!   limit.
//! * **Deadlines** — a request may carry a deadline; one that expires
//!   before dispatch completes with [`RequestError::TimedOut`] rather
//!   than occupying engine slots.
//! * **Supervision** — a dispatch group that loses pool workers is
//!   retried once on the survivors (the failed dispatch marks every
//!   dead worker it met); if the retry also fails (only possible once
//!   no live worker is left), every job in the round completes with
//!   [`RequestError::WorkerFailure`], and the shrunken pool capacity is
//!   reflected in every later batch.
//! * **Validation** — an ML-KEM key or ciphertext that fails FIPS 203
//!   input checks completes with [`RequestError::InvalidInput`] at batch
//!   formation, without riding any round.
//! * **Graceful drain** — [`Service::shutdown`] stops admission,
//!   completes everything already queued, and returns the final
//!   [`MetricsSnapshot`]; every admitted ticket resolves exactly once.
//!
//! Every completion carries its [`RequestTiming`], and the service keeps
//! [`krv_testkit::LatencyHistogram`]s of queue wait, service time and
//! end-to-end latency, summarized as p50/p90/p99 by [`Service::metrics`].
//!
//! # Example
//!
//! ```
//! use krv_service::{HashRequest, Service, ServiceConfig};
//! use krv_sha3::Sha3_256;
//!
//! let service = Service::start(ServiceConfig::default());
//! let ticket = service.submit(HashRequest::sha3_256(b"abc")).unwrap();
//! let completion = ticket.wait();
//! assert_eq!(completion.result.unwrap(), Sha3_256::digest(b"abc"));
//! let report = service.shutdown();
//! assert_eq!(report.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod scheduler;
mod shard;
mod ticket;
mod tier;

pub use metrics::{MetricsSnapshot, QuantileSummary, ShardMetrics};
pub use shard::{ShardConfig, ShardedService};
pub use ticket::{
    Completion, KemTicket, RequestError, RequestTiming, StreamOutput, StreamTicket, Ticket,
};
pub use tier::{TierKind, TierPolicy};

pub use krv_sha3::tree::LEAVES_PER_ROUND;

use krv_kyber::{KemOp, KemResult, KyberParams};
use krv_sha3::{SpongeParams, SpongeState, TreeMode, TreeState};
use scheduler::{Scheduler, Shared, Work};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How a [`Service`] is shaped: the pool it runs and the batching knobs.
/// Every pooled engine runs the paper's LMUL=8 kernel
/// ([`KernelKind::E64Lmul8`](krv_core::KernelKind::E64Lmul8)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// States per engine pass (`SN`).
    pub sn: usize,
    /// Modelled engines in the pool (`W`); with `sn` they set the batch
    /// slots. The pool runs them all on the scheduler thread: host
    /// parallelism comes from shards ([`ShardConfig::shards`]).
    pub workers: usize,
    /// Admission queue bound; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Longest the oldest queued request waits before its batch closes
    /// under-full. Trades tail latency against batch fill.
    pub max_wait: Duration,
    /// Which tier serves traffic and how often it is mirrored through
    /// the other tier as a differential oracle.
    pub tier: TierPolicy,
    /// Per-client fair-share cap: the most admission units one client id
    /// (see [`Service::submit_as`]) may hold at once. Each request holds
    /// its [`Request::fair_share_cost`]: one unit for a one-shot hash,
    /// byte-weighted units for a stream or tree operation (so session
    /// traffic is weighed by its bytes), and the parameter set's rank `k`
    /// for an ML-KEM operation. A client at or above its cap is refused
    /// with [`SubmitError::ClientThrottled`] even while the queue has
    /// room, so one flooding client cannot starve the rest. `None` (the
    /// default) disables per-client accounting limits.
    pub fair_share: Option<usize>,
}

impl Default for ServiceConfig {
    /// A small pool: 2 workers × `SN` = 4,
    /// a 1024-deep queue, a 500 µs batching window, and the simulator
    /// tier serving with mirroring off (the pre-tier behaviour).
    fn default() -> Self {
        Self {
            sn: 4,
            workers: 2,
            queue_capacity: 1024,
            max_wait: Duration::from_micros(500),
            tier: TierPolicy::default(),
            fair_share: None,
        }
    }
}

impl ServiceConfig {
    /// State slots a fully-fit batch fills: `workers × SN`.
    pub fn batch_slots(&self) -> usize {
        self.workers * self.sn
    }
}

/// One hashing request: a message, the sponge to run it through, and how
/// many output bytes to squeeze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRequest {
    /// The message to hash.
    pub message: Vec<u8>,
    /// The FIPS-202 sponge parameters (rate + domain separator).
    pub params: SpongeParams,
    /// Output bytes to squeeze.
    pub output_len: usize,
    /// Deadline relative to admission: a request still queued when it
    /// expires completes as [`RequestError::TimedOut`]. `None` waits
    /// indefinitely.
    pub deadline: Option<Duration>,
}

impl HashRequest {
    /// A request with explicit sponge parameters and no deadline.
    pub fn new(message: impl Into<Vec<u8>>, params: SpongeParams, output_len: usize) -> Self {
        Self {
            message: message.into(),
            params,
            output_len,
            deadline: None,
        }
    }

    /// A SHA3-256 request (32-byte digest).
    pub fn sha3_256(message: impl Into<Vec<u8>>) -> Self {
        Self::new(message, SpongeParams::sha3(256), 32)
    }

    /// A SHAKE128 request squeezing `output_len` bytes.
    pub fn shake128(message: impl Into<Vec<u8>>, output_len: usize) -> Self {
        Self::new(message, SpongeParams::shake(128), output_len)
    }

    /// Attaches a deadline (relative to admission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One bounded operation of a streaming hash session: absorb a chunk,
/// optionally pad, then squeeze a window — carried through the same
/// admission queue and micro-batches as one-shot [`HashRequest`]s.
///
/// A session is a [`SpongeState`] that lives outside the service (in a
/// server's session table, say) between operations: the caller submits
/// the state with each operation and receives it back, advanced, in the
/// [`StreamOutput`]. The scheduler drives every live stream operation of
/// a batch in its first round, beside the batch's other work, through
/// shared permutation passes ([`krv_sha3::drive_stream`]), so a hundred
/// slow-trickling sessions cost hardware passes like one busy one.
///
/// The service is lifecycle-lenient only to the extent
/// [`krv_sha3::StreamOp`] is: absorbing into a squeezing state,
/// double-finalizing, or squeezing an unfinalized state panics the
/// scheduler. Callers (the server's session table) must enforce the
/// `ABSORB* → FINALIZE → SQUEEZE*` order *before* submitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRequest {
    /// The session's sponge state, consumed by the operation and handed
    /// back (advanced) in the completion.
    pub state: Box<SpongeState>,
    /// Message bytes to absorb first (may be empty). Algorithm framing
    /// bytes ride here too: a cSHAKE prefix in the first operation, a
    /// KMAC `right_encode(L·8)` suffix in the finalizing one.
    pub absorb: Vec<u8>,
    /// Whether to apply domain separation + pad10*1 after absorbing.
    pub finalize: bool,
    /// Output bytes to squeeze after padding (0 for a pure absorb).
    pub squeeze_len: usize,
    /// Deadline relative to admission, as for [`HashRequest::deadline`].
    /// An expired stream operation completes as
    /// [`RequestError::TimedOut`] and its state is lost — the session
    /// must be abandoned.
    pub deadline: Option<Duration>,
}

impl StreamRequest {
    /// Fair-share accounting granularity: a stream operation holds
    /// `1 + absorb.len() / FAIR_SHARE_UNIT` units of its client's
    /// [`ServiceConfig::fair_share`] quota while queued (its
    /// [`Request::fair_share_cost`]), so session traffic is throttled by
    /// *bytes*, not frames — a client cannot dodge the cap by packing
    /// huge chunks into few operations.
    pub const FAIR_SHARE_UNIT: usize = 64 * 1024;

    /// An absorb-only operation.
    pub fn absorb(state: Box<SpongeState>, chunk: impl Into<Vec<u8>>) -> Self {
        Self {
            state,
            absorb: chunk.into(),
            finalize: false,
            squeeze_len: 0,
            deadline: None,
        }
    }

    /// A finalizing operation: absorb `suffix` (algorithm framing such
    /// as KMAC's `right_encode(L·8)`; empty for plain SHA-3/SHAKE), then
    /// pad, then squeeze `squeeze_len` bytes.
    pub fn finalize(
        state: Box<SpongeState>,
        suffix: impl Into<Vec<u8>>,
        squeeze_len: usize,
    ) -> Self {
        Self {
            state,
            absorb: suffix.into(),
            finalize: true,
            squeeze_len,
            deadline: None,
        }
    }

    /// A squeeze-only operation on an already-finalized state.
    pub fn squeeze(state: Box<SpongeState>, squeeze_len: usize) -> Self {
        Self {
            state,
            absorb: Vec::new(),
            finalize: false,
            squeeze_len,
            deadline: None,
        }
    }

    /// Attaches a deadline (relative to admission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One operation of a chunked tree hash — ParallelHash or the KRV
/// tree-hash ([`TreeMode`]): absorb a chunk, optionally finalize, then
/// squeeze — carried through the same admission queue and micro-batches
/// as every other request.
///
/// A tree session is a [`TreeState`] that lives outside the service
/// between operations, as a [`StreamRequest`]'s sponge does, and holds
/// two sponge states however long the message grows: the root and the
/// open leaf. The scheduler runs the operation as a
/// [`krv_sha3::TreeJob`]: each round packs up to [`LEAVES_PER_ROUND`]
/// leaves of the chunk, plus the root absorbing the previous round's
/// leaf digests, into the batch's shared dispatch, so one large message
/// fills `SN`-wide passes on its own. The ticket resolves once, with the
/// advanced state. A one-shot tree hash is one request on a fresh state
/// that finalizes ([`Self::digest`]).
///
/// The lifecycle contract is [`StreamRequest`]'s: an operation other
/// than a pure squeeze on a finalized tree, or a squeeze on a tree no
/// operation has finalized, panics the scheduler. A finalized tree's
/// root ([`TreeState::into_root`]) squeezes further as a plain
/// [`StreamRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeRequest {
    /// The tree, consumed by the operation and handed back (advanced)
    /// in the completion.
    pub state: Box<TreeState>,
    /// Message bytes to absorb (may be empty).
    pub chunk: Vec<u8>,
    /// `Some(L)` finalizes the tree under the declared output length
    /// `L`: the last leaf is sealed and the root binds the leaf count
    /// and `L` before padding.
    pub finalize: Option<usize>,
    /// Root output bytes to squeeze after finalizing (0 for none).
    pub squeeze_len: usize,
    /// Deadline relative to admission, as for [`HashRequest::deadline`];
    /// an expired operation loses its state, as a stream operation does.
    pub deadline: Option<Duration>,
}

impl TreeRequest {
    /// A one-shot tree hash: `message` on a fresh tree under `mode` and
    /// `customization`, finalized and squeezed to `output_len` bytes.
    pub fn digest(
        mode: TreeMode,
        customization: &[u8],
        message: impl Into<Vec<u8>>,
        output_len: usize,
    ) -> Self {
        Self {
            state: Box::new(TreeState::new(mode, customization)),
            chunk: message.into(),
            finalize: Some(output_len),
            squeeze_len: output_len,
            deadline: None,
        }
    }

    /// Attaches a deadline (relative to admission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One ML-KEM operation — key generation, encapsulation or
/// decapsulation — carried through the same admission queue and
/// micro-batches as hashing traffic.
///
/// The scheduler lowers each operation to a staged
/// [`krv_kyber::KemJob`] at batch formation and advances every live
/// operation of a batch in lockstep, packing the pending Keccak jobs of
/// *all* of them — matrix-expansion SHAKE128 squeezes, CBD PRFs, the
/// H/G/J hashes of the FO transform — into each round, beside the
/// batch's one-shot hashes and stream operations in the first.
/// Concurrent KEM clients therefore fill engine slots a single
/// operation could not: the cross-request batching this crate exists
/// for, applied to FIPS 203.
///
/// The wire-facing API is deterministic: key generation carries its
/// `(d, z)` seeds and encapsulation its randomness `m` explicitly, so
/// callers (and the conformance harness) control randomness and results
/// are reproducible end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KemRequest {
    /// The ML-KEM parameter set the operation runs under.
    pub params: KyberParams,
    /// The operation itself, with its seeds / key / ciphertext.
    pub op: KemOp,
    /// Deadline relative to admission, as for [`HashRequest::deadline`].
    /// An expired operation completes as [`RequestError::TimedOut`].
    pub deadline: Option<Duration>,
}

impl KemRequest {
    /// A key-generation request from the 32-byte seeds `d` and `z`.
    pub fn keygen(params: KyberParams, d: [u8; 32], z: [u8; 32]) -> Self {
        Self {
            params,
            op: KemOp::Keygen { d, z },
            deadline: None,
        }
    }

    /// An encapsulation request against the byte-encoded key `ek` with
    /// randomness `m`.
    pub fn encaps(params: KyberParams, ek: impl Into<Vec<u8>>, m: [u8; 32]) -> Self {
        Self {
            params,
            op: KemOp::Encaps { ek: ek.into(), m },
            deadline: None,
        }
    }

    /// A decapsulation request of ciphertext `ct` under the byte-encoded
    /// decapsulation key `dk`.
    pub fn decaps(params: KyberParams, dk: impl Into<Vec<u8>>, ct: impl Into<Vec<u8>>) -> Self {
        Self {
            params,
            op: KemOp::Decaps {
                dk: dk.into(),
                ct: ct.into(),
            },
            deadline: None,
        }
    }

    /// Attaches a deadline (relative to admission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A request kind the service admits: a one-shot [`HashRequest`], a
/// [`StreamRequest`], a [`TreeRequest`] or a [`KemRequest`].
/// [`Service::submit`] and its siblings are generic over it, and the
/// [`Ticket`] they return resolves to the kind's [`Self::Output`].
///
/// The trait is sealed: the scheduler knows how to run exactly these
/// four kinds.
pub trait Request: sealed::Sealed + Sized {
    /// What a served request hands back, on whichever thread completes
    /// its ticket.
    type Output: Send + 'static;

    /// The admission units the request holds against its client's
    /// [`ServiceConfig::fair_share`] while queued.
    fn fair_share_cost(&self) -> usize;

    /// The request's deadline, relative to admission.
    fn deadline(&self) -> Option<Duration>;

    /// Wraps the admitted request with the ticket cell its completion
    /// resolves, for the queue.
    #[doc(hidden)]
    fn lower(self, ticket: &Ticket<Self::Output>) -> Work;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::HashRequest {}
    impl Sealed for super::StreamRequest {}
    impl Sealed for super::TreeRequest {}
    impl Sealed for super::KemRequest {}
}

impl Request for HashRequest {
    type Output = Vec<u8>;

    /// One unit.
    fn fair_share_cost(&self) -> usize {
        1
    }

    fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    fn lower(self, ticket: &Ticket<Vec<u8>>) -> Work {
        Work::Hash(self, Arc::clone(&ticket.cell))
    }
}

impl Request for StreamRequest {
    type Output = StreamOutput;

    /// `1 + absorb.len() / FAIR_SHARE_UNIT` units
    /// ([`StreamRequest::FAIR_SHARE_UNIT`]).
    fn fair_share_cost(&self) -> usize {
        1 + self.absorb.len() / Self::FAIR_SHARE_UNIT
    }

    fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    fn lower(self, ticket: &Ticket<StreamOutput>) -> Work {
        Work::Stream(self, Arc::clone(&ticket.cell))
    }
}

impl Request for TreeRequest {
    type Output = StreamOutput<TreeState>;

    /// `1 + chunk.len() / FAIR_SHARE_UNIT` units, the stream rule
    /// ([`StreamRequest::FAIR_SHARE_UNIT`]).
    fn fair_share_cost(&self) -> usize {
        1 + self.chunk.len() / StreamRequest::FAIR_SHARE_UNIT
    }

    fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    fn lower(self, ticket: &Ticket<StreamOutput<TreeState>>) -> Work {
        Work::Tree(self, Arc::clone(&ticket.cell))
    }
}

impl Request for KemRequest {
    type Output = KemResult;

    /// The parameter set's rank `k`, since the operation's hash work — a
    /// `k × k` matrix expansion plus `2k + 1`-ish CBD/encode hashes —
    /// scales with it.
    fn fair_share_cost(&self) -> usize {
        self.params.k
    }

    fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    fn lower(self, ticket: &Ticket<KemResult>) -> Work {
        Work::Kem(self, Arc::clone(&ticket.cell))
    }
}

/// Why a submission was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — backpressure; retry later or shed
    /// load.
    QueueFull {
        /// Queue depth at the time of rejection.
        depth: usize,
    },
    /// The submitting client already holds its fair share of admission
    /// units ([`ServiceConfig::fair_share`]); backpressure aimed at one
    /// hot client while the queue stays open for everyone else.
    ClientThrottled {
        /// The client id that hit its cap.
        client: u64,
        /// Admission units the client held at the time of rejection.
        held: usize,
    },
    /// The service is draining; no new requests are admitted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => {
                write!(f, "admission queue full at depth {depth}")
            }
            SubmitError::ClientThrottled { client, held } => {
                write!(
                    f,
                    "client {client} throttled at its fair share ({held} queued)"
                )
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A running hashing service: a scheduler thread batching requests onto
/// an [`krv_core::EnginePool`].
///
/// Handles are shareable across submitting threads (`&Service` is all
/// submission needs); dropping the service closes the queue, drains it
/// and joins the scheduler.
#[derive(Debug)]
pub struct Service {
    shared: Arc<Shared>,
    config: ServiceConfig,
    scheduler: Option<JoinHandle<()>>,
}

impl Service {
    /// Starts the scheduler thread, which runs the engine pool.
    ///
    /// # Panics
    ///
    /// Panics if `sn`, `workers` or `queue_capacity` is zero.
    pub fn start(config: ServiceConfig) -> Self {
        assert!(config.sn > 0, "each engine needs at least one state slot");
        assert!(config.workers > 0, "the pool needs at least one worker");
        assert!(config.queue_capacity > 0, "the queue needs capacity");
        let shared = Arc::new(Shared::new(&config));
        let scheduler = Scheduler::new(Arc::clone(&shared), &config);
        let handle = std::thread::Builder::new()
            .name("krv-service-scheduler".into())
            .spawn(move || scheduler.run())
            .expect("spawn scheduler thread");
        Self {
            shared,
            config,
            scheduler: Some(handle),
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Submits a request for the anonymous client (id 0), returning the
    /// ticket its completion arrives on.
    ///
    /// Every [`Request`] kind rides the same admission queue and
    /// micro-batches: a one-shot [`HashRequest`] resolves to its digest,
    /// a [`StreamRequest`] or [`TreeRequest`] hands the advanced
    /// [`SpongeState`] or [`TreeState`] back in a [`StreamOutput`] for
    /// the session's next operation, and a [`KemRequest`] resolves to
    /// its [`KemResult`].
    ///
    /// With [`ServiceConfig::fair_share`] set, all `submit` traffic
    /// shares client 0's quota; callers serving distinct clients should
    /// use [`Self::submit_as`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ClientThrottled`] when client 0 holds its fair
    /// share, [`SubmitError::ShuttingDown`] once draining has begun.
    pub fn submit<R: Request>(&self, request: R) -> Result<Ticket<R::Output>, SubmitError> {
        self.submit_as(0, request)
    }

    /// Submits a request on behalf of `client`, the id fair-share
    /// admission accounts against (a connection token, a user id — any
    /// stable per-caller value).
    ///
    /// # Errors
    ///
    /// [`SubmitError::ClientThrottled`] when `client` already holds
    /// [`ServiceConfig::fair_share`] admission units, plus everything
    /// [`Self::submit`] can return.
    pub fn submit_as<R: Request>(
        &self,
        client: u64,
        request: R,
    ) -> Result<Ticket<R::Output>, SubmitError> {
        self.try_submit_as(client, request).map_err(|(_, e)| e)
    }

    /// [`Self::submit_as`], except a refusal hands the request back —
    /// message bytes, sponge state, key and ciphertext included —
    /// alongside the error instead of dropping it: the retry primitive
    /// for callers (a server's session table) that must not lose a
    /// request to backpressure.
    ///
    /// # Errors
    ///
    /// Exactly [`Self::submit_as`]'s errors, paired with the refused
    /// request.
    pub fn try_submit_as<R: Request>(
        &self,
        client: u64,
        request: R,
    ) -> Result<Ticket<R::Output>, (R, SubmitError)> {
        self.shared.admit(client, request)
    }

    /// [`Self::submit`] for one streaming operation: a one-line forward,
    /// kept for callers that name the request kind.
    ///
    /// # Errors
    ///
    /// Exactly [`Self::submit`]'s errors.
    pub fn submit_stream(&self, request: StreamRequest) -> Result<StreamTicket, SubmitError> {
        self.submit(request)
    }

    /// [`Self::submit`] for one ML-KEM operation: a one-line forward,
    /// kept for callers that name the request kind.
    ///
    /// # Errors
    ///
    /// Exactly [`Self::submit`]'s errors.
    pub fn submit_kem(&self, request: KemRequest) -> Result<KemTicket, SubmitError> {
        self.submit(request)
    }

    /// A point-in-time snapshot of the service's instrumentation.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shard_metrics().summarize()
    }

    /// The raw, mergeable form of [`Self::metrics`]: full latency
    /// histograms instead of percentile summaries, so per-shard copies
    /// can be [`ShardMetrics::merge`]d without losing fidelity.
    pub fn shard_metrics(&self) -> ShardMetrics {
        let queue_depth = self.shared.queue_depth();
        let mut metrics = self.shared.stats.lock().expect("stats lock").clone();
        metrics.queue_depth = queue_depth;
        metrics
    }

    /// Stops admission without waiting for the drain: subsequent
    /// [`Self::submit`] calls fail with [`SubmitError::ShuttingDown`]
    /// while already-admitted requests still complete.
    pub fn close(&self) {
        self.shared.close();
    }

    /// Kills a pool worker at the next batch boundary — a supervision
    /// drill. The affected batch fails, is retried on the survivors, and
    /// later batches shrink to the surviving capacity. An out-of-range
    /// or already-dead index is ignored.
    pub fn inject_worker_failure(&self, worker: usize) {
        self.shared.request_kill(worker);
    }

    /// Corrupts every subsequent native-tier digest — a mirroring drill,
    /// the tier analogue of [`Self::inject_worker_failure`]. With a
    /// nonzero [`TierPolicy::mirror_every`] the differential oracle must
    /// latch the mismatch in
    /// [`MetricsSnapshot::mirror_mismatches`]; a clean run must not.
    pub fn inject_native_corruption(&self) {
        self.shared.corrupt_native();
    }

    /// Graceful shutdown: stops admission, drains every queued request,
    /// joins the scheduler and returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop();
        self.metrics()
    }

    fn stop(&mut self) {
        self.shared.close();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    /// Same as [`Self::shutdown`], discarding the final metrics.
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_sha3::{Sha3_256, Sha3_512, Shake128};
    use krv_testkit::Rng;

    /// A tight batching window so single-burst tests complete quickly.
    fn fast_config() -> ServiceConfig {
        ServiceConfig {
            max_wait: Duration::from_micros(200),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn served_digests_match_the_reference_functions() {
        let service = Service::start(fast_config());
        let mut rng = Rng::new(0x5EED);
        let messages: Vec<Vec<u8>> = (0..42).map(|i| rng.bytes(i * 7 % 300)).collect();
        let tickets: Vec<Ticket> = messages
            .iter()
            .enumerate()
            .map(|(i, message)| {
                let request = match i % 3 {
                    0 => HashRequest::sha3_256(message.clone()),
                    1 => HashRequest::shake128(message.clone(), 16 + i),
                    _ => HashRequest::new(message.clone(), SpongeParams::sha3(512), 64),
                };
                service.submit(request).expect("queue has room")
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let completion = ticket.wait();
            let digest = completion.result.expect("request succeeds");
            match i % 3 {
                0 => assert_eq!(digest, Sha3_256::digest(&messages[i]), "sha3-256 #{i}"),
                1 => assert_eq!(digest, Shake128::digest(&messages[i], 16 + i), "shake #{i}"),
                _ => assert_eq!(digest, Sha3_512::digest(&messages[i]), "sha3-512 #{i}"),
            }
            assert!(completion.timing.batch_size >= 1);
            assert!(completion.timing.total >= completion.timing.queue);
            assert!(!completion.timing.retried);
        }
        let report = service.shutdown();
        assert_eq!(report.submitted, 42);
        assert_eq!(report.completed, 42);
        assert_eq!(report.timeouts, 0);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.worker_failures, 0);
        assert_eq!(report.e2e_ns.count, 42);
        assert!(report.e2e_ns.p50 <= report.e2e_ns.p99);
        assert!(report.e2e_ns.p99 <= report.e2e_ns.max);
        assert!(report.mean_batch_fill > 0.0 && report.mean_batch_fill <= 1.0);
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        // Queue bound 4, batch threshold 8, a 5 s window: the scheduler
        // cannot close a batch before the queue fills, so the fifth
        // submission is deterministically rejected.
        let service = Service::start(ServiceConfig {
            queue_capacity: 4,
            max_wait: Duration::from_secs(5),
            ..ServiceConfig::default()
        });
        for i in 0..4u8 {
            service
                .submit(HashRequest::sha3_256(vec![i; 16]))
                .expect("under the bound");
        }
        let rejected = service.submit(HashRequest::sha3_256(vec![9; 16]));
        assert_eq!(rejected.unwrap_err(), SubmitError::QueueFull { depth: 4 });
        // Shutdown drains the four queued requests despite the window.
        let report = service.shutdown();
        assert_eq!(report.completed, 4);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.queue_depth, 0);
    }

    #[test]
    fn expired_deadlines_complete_as_timeouts() {
        let service = Service::start(fast_config());
        let tickets: Vec<Ticket> = (0..3u8)
            .map(|i| {
                service
                    .submit(HashRequest::sha3_256(vec![i; 32]).with_deadline(Duration::ZERO))
                    .expect("admitted")
            })
            .collect();
        for ticket in tickets {
            let completion = ticket.wait();
            assert_eq!(completion.result, Err(RequestError::TimedOut));
            assert_eq!(completion.timing.service, Duration::ZERO);
        }
        let report = service.shutdown();
        assert_eq!(report.timeouts, 3);
        assert_eq!(report.completed, 0);
        assert_eq!(report.e2e_ns.count, 0, "timeouts stay out of latency");
    }

    #[test]
    fn close_stops_admission_but_still_drains() {
        let service = Service::start(ServiceConfig {
            max_wait: Duration::from_secs(5),
            ..ServiceConfig::default()
        });
        let ticket = service
            .submit(HashRequest::sha3_256(b"queued before close"))
            .expect("open");
        service.close();
        assert_eq!(
            service.submit(HashRequest::sha3_256(b"late")).unwrap_err(),
            SubmitError::ShuttingDown
        );
        // The queued request still completes, well before the 5 s
        // window, because closing wakes the scheduler into its drain.
        let completion = ticket.wait();
        assert_eq!(
            completion.result.expect("drained"),
            Sha3_256::digest(b"queued before close")
        );
        let report = service.shutdown();
        assert_eq!(report.completed, 1);
    }

    /// Kills `killed` of `workers` pool workers, then submits one full
    /// batch. With `workers × SN 2` slots the batch closes only when
    /// every request is queued, so its round spans every worker and
    /// meets every dead one; it fails once, is retried on the
    /// survivors, and later batches shrink to the surviving capacity.
    fn check_worker_deaths_cost_one_retry(workers: usize, killed: &[usize]) {
        let service = Service::start(ServiceConfig {
            sn: 2,
            workers,
            max_wait: Duration::from_secs(2),
            ..ServiceConfig::default()
        });
        for &worker in killed {
            service.inject_worker_failure(worker);
        }
        let messages: Vec<Vec<u8>> = (0..2 * workers as u8).map(|i| vec![i; 64]).collect();
        let tickets: Vec<Ticket> = messages
            .iter()
            .map(|m| service.submit(HashRequest::sha3_256(m.clone())).unwrap())
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let completion = ticket.wait();
            assert_eq!(
                completion.result.expect("retry succeeds"),
                Sha3_256::digest(&messages[i]),
                "request #{i} correct after the retry"
            );
            assert!(completion.timing.retried, "the killed batch retried");
        }
        let survivors = workers - killed.len();
        let report = service.shutdown();
        assert_eq!(report.completed, messages.len() as u64);
        assert_eq!(report.worker_failures, 0);
        assert_eq!(report.retries, 1, "one batch group retried once");
        assert_eq!(report.alive_workers, survivors);
        assert_eq!(report.batch_slots, 2 * survivors, "capacity shrank");
    }

    #[test]
    fn injected_worker_death_is_retried_and_capacity_shrinks() {
        check_worker_deaths_cost_one_retry(2, &[1]);
    }

    #[test]
    fn two_dead_workers_of_three_cost_one_retry() {
        check_worker_deaths_cost_one_retry(3, &[0, 1]);
    }

    #[test]
    fn losing_every_worker_fails_tickets_cleanly() {
        let service = Service::start(ServiceConfig {
            sn: 2,
            workers: 2,
            max_wait: Duration::from_secs(2),
            ..ServiceConfig::default()
        });
        service.inject_worker_failure(0);
        service.inject_worker_failure(1);
        let tickets: Vec<Ticket> = (0..4u8)
            .map(|i| service.submit(HashRequest::sha3_256(vec![i; 32])).unwrap())
            .collect();
        for ticket in tickets {
            let completion = ticket.wait();
            assert!(
                matches!(completion.result, Err(RequestError::WorkerFailure { .. })),
                "no workers left: {:?}",
                completion.result
            );
            assert!(completion.timing.retried);
        }
        // A follow-up request fails fast too (batches of 1, no hang).
        let late = service
            .submit(HashRequest::sha3_256(b"afterwards"))
            .expect("admission is still open")
            .wait();
        assert!(matches!(
            late.result,
            Err(RequestError::WorkerFailure {
                error: krv_core::PoolError::AllWorkersLost
            })
        ));
        let report = service.shutdown();
        assert_eq!(report.completed, 0);
        assert_eq!(report.worker_failures, 5);
        assert_eq!(report.alive_workers, 0);
    }

    #[test]
    fn on_complete_callbacks_fire_exactly_once() {
        let service = Service::start(fast_config());
        let (sender, receiver) = std::sync::mpsc::channel();
        for i in 0..5u8 {
            let sender = sender.clone();
            let ticket = service.submit(HashRequest::sha3_256(vec![i; 20])).unwrap();
            ticket.on_complete(move |completion| {
                sender.send((i, completion)).expect("receiver alive");
            });
        }
        let mut seen = [false; 5];
        for _ in 0..5 {
            let (i, completion) = receiver
                .recv_timeout(Duration::from_secs(10))
                .expect("every callback fires");
            assert!(!seen[i as usize], "callback #{i} fired twice");
            seen[i as usize] = true;
            assert_eq!(
                completion.result.expect("request succeeds"),
                Sha3_256::digest(&[i; 20]),
                "callback #{i} carries the right digest"
            );
        }

        // Registering on an already-completed ticket runs the callback
        // inline on the caller's thread.
        let ticket = service.submit(HashRequest::sha3_256(b"late")).unwrap();
        while !ticket.is_ready() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (sender, receiver) = std::sync::mpsc::channel();
        ticket.on_complete(move |completion| sender.send(completion).expect("send"));
        let completion = receiver.try_recv().expect("callback ran inline");
        assert_eq!(completion.result.unwrap(), Sha3_256::digest(b"late"));
        let report = service.shutdown();
        assert_eq!(report.completed, 6);
    }

    #[test]
    fn served_kem_operations_match_direct_library_calls() {
        use krv_kyber::{ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, KemResult};
        let service = Service::start(fast_config());
        for (set, params) in KyberParams::ALL.iter().enumerate() {
            let d = [set as u8; 32];
            let z = [0x5A ^ set as u8; 32];
            let m = [0xA5 ^ set as u8; 32];
            // The direct path: the same FIPS 203 pipeline on the
            // host-native backend, no queue or batching involved.
            let mut direct = krv_native::NativeBackend::new();
            let (ek, dk) = ml_kem_keygen(*params, &d, &z, &mut direct);
            let (ct, shared) = ml_kem_encaps(*params, &ek, &m, &mut direct).expect("valid ek");

            let keygen = service
                .submit_kem(KemRequest::keygen(*params, d, z))
                .expect("admitted")
                .wait();
            match keygen.result.expect("keygen succeeds") {
                KemResult::Keygen {
                    ek: served_ek,
                    dk: served_dk,
                } => {
                    assert_eq!(served_ek, ek, "{}: served ek", params.label());
                    assert_eq!(served_dk, dk, "{}: served dk", params.label());
                }
                other => panic!("keygen returned {other:?}"),
            }

            let encaps = service
                .submit_kem(KemRequest::encaps(*params, ek.clone(), m))
                .expect("admitted")
                .wait();
            match encaps.result.expect("encaps succeeds") {
                KemResult::Encaps {
                    ct: served_ct,
                    shared_secret,
                } => {
                    assert_eq!(served_ct, ct, "{}: served ct", params.label());
                    assert_eq!(shared_secret, shared, "{}: encaps secret", params.label());
                }
                other => panic!("encaps returned {other:?}"),
            }

            let decaps = service
                .submit_kem(KemRequest::decaps(*params, dk.clone(), ct.clone()))
                .expect("admitted")
                .wait();
            match decaps.result.expect("decaps succeeds") {
                KemResult::Decaps { shared_secret } => {
                    assert_eq!(shared_secret, shared, "{}: decaps secret", params.label());
                }
                other => panic!("decaps returned {other:?}"),
            }

            // Implicit rejection over the service: a tampered ciphertext
            // decapsulates to J(z ‖ ct′), never the real secret.
            let mut tampered = ct.clone();
            tampered[7] ^= 0x01;
            let expected_rejection =
                ml_kem_decaps(*params, &dk, &tampered, &mut direct).expect("valid dk");
            let rejected = service
                .submit_kem(KemRequest::decaps(*params, dk.clone(), tampered))
                .expect("admitted")
                .wait();
            match rejected.result.expect("tampered decaps still succeeds") {
                KemResult::Decaps { shared_secret } => {
                    assert_ne!(
                        shared_secret,
                        shared,
                        "{}: rejection differs",
                        params.label()
                    );
                    assert_eq!(
                        shared_secret,
                        expected_rejection,
                        "{}: rejection matches the direct path",
                        params.label()
                    );
                }
                other => panic!("decaps returned {other:?}"),
            }
        }
        let report = service.shutdown();
        assert_eq!(report.kem_keygen, 3);
        assert_eq!(report.kem_encaps, 3);
        assert_eq!(report.kem_decaps, 6);
        assert_eq!(report.completed, 12, "KEM ops count as completions");
        assert_eq!(report.kem_invalid, 0);
        assert!(report.kem_dispatches > 0);
        assert!(report.kem_hash_jobs >= report.kem_dispatches);
    }

    #[test]
    fn malformed_kem_inputs_fail_with_typed_errors() {
        use krv_kyber::KemError;
        let service = Service::start(fast_config());
        let params = KyberParams::ALL[0];
        let completion = service
            .submit_kem(KemRequest::encaps(params, vec![0u8; 17], [0u8; 32]))
            .expect("admitted")
            .wait();
        match completion.result {
            Err(RequestError::InvalidInput(KemError::EncapsKeyLength { .. })) => {}
            other => panic!("expected a typed length error, got {other:?}"),
        }
        // An expired KEM deadline resolves as TimedOut, like the other
        // lanes.
        let timed_out = service
            .submit_kem(
                KemRequest::keygen(params, [1u8; 32], [2u8; 32]).with_deadline(Duration::ZERO),
            )
            .expect("admitted")
            .wait();
        assert_eq!(timed_out.result, Err(RequestError::TimedOut));
        let report = service.shutdown();
        assert_eq!(report.kem_invalid, 1);
        assert_eq!(report.timeouts, 1);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn concurrent_kem_operations_share_dispatch_batches() {
        // A wide batching window so a burst of keygens lands in one
        // micro-batch: their matrix expansions and CBD PRFs must then
        // pack into shared dispatch groups, pushing mean occupancy
        // (hash jobs per dispatch) above one.
        let service = Service::start(ServiceConfig {
            max_wait: Duration::from_millis(50),
            ..ServiceConfig::default()
        });
        let params = KyberParams::ALL[0];
        let tickets: Vec<KemTicket> = (0..6u8)
            .map(|i| {
                service
                    .submit_as(
                        u64::from(i),
                        KemRequest::keygen(params, [i; 32], [i ^ 0xFF; 32]),
                    )
                    .expect("admitted")
            })
            .collect();
        for ticket in tickets {
            let completion = ticket.wait();
            assert!(completion.result.is_ok());
            assert!(completion.timing.batch_size >= 2, "the burst batched");
        }
        let report = service.shutdown();
        assert_eq!(report.kem_keygen, 6);
        let occupancy = report.kem_hash_jobs as f64 / report.kem_dispatches as f64;
        assert!(
            occupancy > 1.0,
            "cross-request batching packs jobs: occupancy {occupancy:.2} \
             ({} jobs / {} dispatches)",
            report.kem_hash_jobs,
            report.kem_dispatches
        );
    }

    #[test]
    fn config_accessors_and_defaults_are_consistent() {
        let config = ServiceConfig::default();
        assert_eq!(config.batch_slots(), config.workers * config.sn);
        let service = Service::start(config);
        assert_eq!(service.config(), &config);
        let metrics = service.metrics();
        assert_eq!(metrics.batch_slots, config.batch_slots());
        assert_eq!(metrics.alive_workers, config.workers);
        assert_eq!(metrics.queue_depth, 0);
        assert_eq!(metrics.batches, 0);
        assert_eq!(metrics.mean_batch_fill, 0.0);
    }

    #[test]
    fn submit_errors_format_human_readably() {
        assert_eq!(
            SubmitError::QueueFull { depth: 7 }.to_string(),
            "admission queue full at depth 7"
        );
        assert_eq!(
            SubmitError::ShuttingDown.to_string(),
            "service is shutting down"
        );
        assert_eq!(
            RequestError::TimedOut.to_string(),
            "deadline elapsed before the request was dispatched"
        );
        let failure = RequestError::WorkerFailure {
            error: krv_core::PoolError::AllWorkersLost,
        };
        assert!(failure.to_string().contains("after retry"));
    }
}
