//! Service instrumentation: counters, batch-fill accounting and latency
//! histograms, snapshotted for callers as [`MetricsSnapshot`].

use crate::ServiceConfig;
use krv_testkit::LatencyHistogram;

/// Percentile summary of one latency distribution, in nanoseconds.
///
/// Percentiles inherit the ≤ 6.25 % bucket quantization of
/// [`LatencyHistogram`]; `mean` and `max` are exact.
///
/// # Example
///
/// ```
/// use krv_service::QuantileSummary;
/// use krv_testkit::LatencyHistogram;
///
/// let mut hist = LatencyHistogram::new();
/// for v in 1..=100u64 {
///     hist.record(v * 1000);
/// }
/// let summary = QuantileSummary::from_histogram(&hist);
/// assert_eq!(summary.count, 100);
/// assert_eq!(summary.max, 100_000);
/// assert!(summary.p50 <= summary.p90 && summary.p90 <= summary.p99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// 50th percentile.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
}

impl QuantileSummary {
    /// Summarizes a histogram.
    pub fn from_histogram(hist: &LatencyHistogram) -> Self {
        Self {
            count: hist.count(),
            mean: hist.mean(),
            p50: hist.percentile(0.50),
            p90: hist.percentile(0.90),
            p99: hist.percentile(0.99),
            max: hist.max(),
        }
    }
}

/// The scheduler-side ledger behind [`MetricsSnapshot`]. Latency
/// histograms record **successful** requests only; rejected, timed-out
/// and failed requests are counted instead, so the tail percentiles
/// describe served traffic.
#[derive(Debug)]
pub(crate) struct ServiceStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests completed with a digest.
    pub completed: u64,
    /// Requests whose deadline elapsed before dispatch.
    pub timeouts: u64,
    /// Requests refused at admission because the queue was full.
    pub rejected: u64,
    /// Requests refused at admission by the per-client fair-share cap.
    pub throttled: u64,
    /// Requests failed after their batch's single retry also failed.
    pub worker_failures: u64,
    /// Dispatch groups retried after losing a pool worker.
    pub retries: u64,
    /// Batches dispatched (including all-timeout batches).
    pub batches: u64,
    /// Requests served by the native tier.
    pub native_served: u64,
    /// Requests served by the simulator tier.
    pub simulator_served: u64,
    /// Requests re-hashed through the non-primary tier by mirroring.
    pub mirrored: u64,
    /// Mirrored requests whose tier digests disagreed (latched; never
    /// reset while the service runs).
    pub mirror_mismatches: u64,
    /// Streaming operations completed (each is one ABSORB / FINALIZE /
    /// SQUEEZE micro-op carried through the batch lane; also counted in
    /// `completed`).
    pub stream_ops: u64,
    /// Message bytes absorbed by completed streaming operations.
    pub stream_absorbed: u64,
    /// Output bytes squeezed by completed streaming operations.
    pub stream_squeezed: u64,
    /// ML-KEM key generations completed (also counted in `completed`).
    pub kem_keygen: u64,
    /// ML-KEM encapsulations completed (also counted in `completed`).
    pub kem_encaps: u64,
    /// ML-KEM decapsulations completed (also counted in `completed`).
    pub kem_decaps: u64,
    /// Keccak jobs dispatched on behalf of KEM operations.
    pub kem_hash_jobs: u64,
    /// KEM rounds dispatched: each packs the pending hash jobs of every
    /// live KEM operation of a batch into one dispatch group.
    pub kem_dispatches: u64,
    /// KEM operations refused at batch formation by FIPS 203 input
    /// validation (malformed key or ciphertext).
    pub kem_invalid: u64,
    /// Sum of per-batch fill ratios (`batch_size / batch_slots`).
    pub fill_sum: f64,
    /// Pool workers alive as of the last dispatched batch.
    pub alive_workers: usize,
    /// State slots a batch can fill as of the last dispatched batch.
    pub batch_slots: usize,
    /// Admission → batch formation wait.
    pub queue_wait: LatencyHistogram,
    /// Batch dispatch duration, per request.
    pub service_time: LatencyHistogram,
    /// Admission → completion, end to end.
    pub e2e: LatencyHistogram,
}

impl ServiceStats {
    pub(crate) fn new(config: &ServiceConfig) -> Self {
        Self {
            submitted: 0,
            completed: 0,
            timeouts: 0,
            rejected: 0,
            throttled: 0,
            worker_failures: 0,
            retries: 0,
            batches: 0,
            native_served: 0,
            simulator_served: 0,
            mirrored: 0,
            mirror_mismatches: 0,
            stream_ops: 0,
            stream_absorbed: 0,
            stream_squeezed: 0,
            kem_keygen: 0,
            kem_encaps: 0,
            kem_decaps: 0,
            kem_hash_jobs: 0,
            kem_dispatches: 0,
            kem_invalid: 0,
            fill_sum: 0.0,
            alive_workers: config.workers,
            batch_slots: config.batch_slots(),
            queue_wait: LatencyHistogram::new(),
            service_time: LatencyHistogram::new(),
            e2e: LatencyHistogram::new(),
        }
    }

    /// The raw, mergeable form of this ledger — histograms included, so
    /// per-shard copies combine without losing percentile fidelity.
    pub(crate) fn shard_metrics(&self, queue_depth: usize) -> ShardMetrics {
        ShardMetrics {
            submitted: self.submitted,
            completed: self.completed,
            timeouts: self.timeouts,
            rejected: self.rejected,
            throttled: self.throttled,
            worker_failures: self.worker_failures,
            retries: self.retries,
            batches: self.batches,
            native_served: self.native_served,
            simulator_served: self.simulator_served,
            mirrored: self.mirrored,
            mirror_mismatches: self.mirror_mismatches,
            stream_ops: self.stream_ops,
            stream_absorbed: self.stream_absorbed,
            stream_squeezed: self.stream_squeezed,
            kem_keygen: self.kem_keygen,
            kem_encaps: self.kem_encaps,
            kem_decaps: self.kem_decaps,
            kem_hash_jobs: self.kem_hash_jobs,
            kem_dispatches: self.kem_dispatches,
            kem_invalid: self.kem_invalid,
            fill_sum: self.fill_sum,
            queue_depth,
            alive_workers: self.alive_workers,
            batch_slots: self.batch_slots,
            queue_wait: self.queue_wait.clone(),
            service_time: self.service_time.clone(),
            e2e: self.e2e.clone(),
        }
    }
}

/// The raw, mergeable instrumentation of one service shard: every
/// counter of [`MetricsSnapshot`] plus the full latency **histograms**
/// instead of pre-summarized percentiles.
///
/// This is the form shard metrics aggregate in: summarizing first and
/// then combining percentiles is lossy, but merging the log-bucketed
/// [`LatencyHistogram`]s bucket-wise and summarizing once keeps the
/// merged percentiles inside the histogram's ≤ 6.25 % quantization
/// bound, exactly as if one histogram had recorded every shard's
/// samples.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMetrics {
    /// Requests admitted into this shard's queue.
    pub submitted: u64,
    /// Requests completed with a digest.
    pub completed: u64,
    /// Requests whose deadline elapsed before dispatch.
    pub timeouts: u64,
    /// Submissions refused with a full queue.
    pub rejected: u64,
    /// Submissions refused by the per-client fair-share cap.
    pub throttled: u64,
    /// Requests failed after a batch retry also failed.
    pub worker_failures: u64,
    /// Dispatch groups retried after losing a pool worker.
    pub retries: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests served by the native tier.
    pub native_served: u64,
    /// Requests served by the simulator tier.
    pub simulator_served: u64,
    /// Requests re-hashed through the non-primary tier by mirroring.
    pub mirrored: u64,
    /// Mirrored requests whose tier digests disagreed (latched).
    pub mirror_mismatches: u64,
    /// Streaming operations completed (also counted in `completed`).
    pub stream_ops: u64,
    /// Message bytes absorbed by completed streaming operations.
    pub stream_absorbed: u64,
    /// Output bytes squeezed by completed streaming operations.
    pub stream_squeezed: u64,
    /// ML-KEM key generations completed (also counted in `completed`).
    pub kem_keygen: u64,
    /// ML-KEM encapsulations completed (also counted in `completed`).
    pub kem_encaps: u64,
    /// ML-KEM decapsulations completed (also counted in `completed`).
    pub kem_decaps: u64,
    /// Keccak jobs dispatched on behalf of KEM operations.
    pub kem_hash_jobs: u64,
    /// KEM rounds dispatched: each packs the pending hash jobs of every
    /// live KEM operation of a batch into one dispatch group.
    pub kem_dispatches: u64,
    /// KEM operations refused by FIPS 203 input validation.
    pub kem_invalid: u64,
    /// Sum of per-batch fill ratios (`batch_size / batch_slots`).
    pub fill_sum: f64,
    /// Requests queued at snapshot time.
    pub queue_depth: usize,
    /// Pool workers alive as of the last dispatched batch.
    pub alive_workers: usize,
    /// State slots a batch can fill as of the last dispatched batch.
    pub batch_slots: usize,
    /// Queue-wait latencies of successful requests, nanoseconds.
    pub queue_wait: LatencyHistogram,
    /// Service-time latencies of successful requests, nanoseconds.
    pub service_time: LatencyHistogram,
    /// End-to-end latencies of successful requests, nanoseconds.
    pub e2e: LatencyHistogram,
}

impl Default for ShardMetrics {
    fn default() -> Self {
        Self::empty()
    }
}

impl ShardMetrics {
    /// The identity of [`Self::merge`]: all counters zero, histograms
    /// empty.
    pub fn empty() -> Self {
        Self {
            submitted: 0,
            completed: 0,
            timeouts: 0,
            rejected: 0,
            throttled: 0,
            worker_failures: 0,
            retries: 0,
            batches: 0,
            native_served: 0,
            simulator_served: 0,
            mirrored: 0,
            mirror_mismatches: 0,
            stream_ops: 0,
            stream_absorbed: 0,
            stream_squeezed: 0,
            kem_keygen: 0,
            kem_encaps: 0,
            kem_decaps: 0,
            kem_hash_jobs: 0,
            kem_dispatches: 0,
            kem_invalid: 0,
            fill_sum: 0.0,
            queue_depth: 0,
            alive_workers: 0,
            batch_slots: 0,
            queue_wait: LatencyHistogram::new(),
            service_time: LatencyHistogram::new(),
            e2e: LatencyHistogram::new(),
        }
    }

    /// Folds `other` into `self`: counters and gauges add (queue depth,
    /// alive workers and batch slots become cluster-wide totals;
    /// `fill_sum` and `batches` add so the summarized mean fill stays
    /// batch-weighted), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Self) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.timeouts += other.timeouts;
        self.rejected += other.rejected;
        self.throttled += other.throttled;
        self.worker_failures += other.worker_failures;
        self.retries += other.retries;
        self.batches += other.batches;
        self.native_served += other.native_served;
        self.simulator_served += other.simulator_served;
        self.mirrored += other.mirrored;
        self.mirror_mismatches += other.mirror_mismatches;
        self.stream_ops += other.stream_ops;
        self.stream_absorbed += other.stream_absorbed;
        self.stream_squeezed += other.stream_squeezed;
        self.kem_keygen += other.kem_keygen;
        self.kem_encaps += other.kem_encaps;
        self.kem_decaps += other.kem_decaps;
        self.kem_hash_jobs += other.kem_hash_jobs;
        self.kem_dispatches += other.kem_dispatches;
        self.kem_invalid += other.kem_invalid;
        self.fill_sum += other.fill_sum;
        self.queue_depth += other.queue_depth;
        self.alive_workers += other.alive_workers;
        self.batch_slots += other.batch_slots;
        self.queue_wait.merge(&other.queue_wait);
        self.service_time.merge(&other.service_time);
        self.e2e.merge(&other.e2e);
    }

    /// Collapses the histograms into percentile summaries, producing the
    /// caller-facing [`MetricsSnapshot`].
    pub fn summarize(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted,
            completed: self.completed,
            timeouts: self.timeouts,
            rejected: self.rejected,
            throttled: self.throttled,
            worker_failures: self.worker_failures,
            retries: self.retries,
            batches: self.batches,
            native_served: self.native_served,
            simulator_served: self.simulator_served,
            mirrored: self.mirrored,
            mirror_mismatches: self.mirror_mismatches,
            stream_ops: self.stream_ops,
            stream_absorbed: self.stream_absorbed,
            stream_squeezed: self.stream_squeezed,
            kem_keygen: self.kem_keygen,
            kem_encaps: self.kem_encaps,
            kem_decaps: self.kem_decaps,
            kem_hash_jobs: self.kem_hash_jobs,
            kem_dispatches: self.kem_dispatches,
            kem_invalid: self.kem_invalid,
            queue_depth: self.queue_depth,
            mean_batch_fill: if self.batches == 0 {
                0.0
            } else {
                self.fill_sum / self.batches as f64
            },
            alive_workers: self.alive_workers,
            batch_slots: self.batch_slots,
            queue_ns: QuantileSummary::from_histogram(&self.queue_wait),
            service_ns: QuantileSummary::from_histogram(&self.service_time),
            e2e_ns: QuantileSummary::from_histogram(&self.e2e),
        }
    }
}

/// A point-in-time copy of the service's instrumentation, from
/// [`Service::metrics`](crate::Service::metrics) or as the final report
/// of [`Service::shutdown`](crate::Service::shutdown).
///
/// The counters tie out: every admitted request ends in exactly one of
/// `completed`, `timeouts`, `worker_failures` or `kem_invalid` (or is
/// still queued / in flight), and `rejected` counts submissions that
/// were never admitted at all.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests completed with a digest.
    pub completed: u64,
    /// Requests whose deadline elapsed before dispatch.
    pub timeouts: u64,
    /// Submissions refused with a full queue.
    pub rejected: u64,
    /// Submissions refused by the per-client fair-share cap: the client
    /// already held its quota of queue slots, so admitting more would
    /// let it starve everyone else.
    pub throttled: u64,
    /// Requests failed after a batch retry also failed.
    pub worker_failures: u64,
    /// Dispatch groups retried after losing a pool worker.
    pub retries: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests served by the native tier.
    pub native_served: u64,
    /// Requests served by the simulator tier.
    pub simulator_served: u64,
    /// Items replayed through the non-primary tier by the mirror
    /// sampler: one-shot hashes, stream operations and KEM hash jobs.
    pub mirrored: u64,
    /// Mirrored items whose native and simulator outputs or final
    /// sponge states disagreed. Latched: any nonzero value means the tiers have diverged and the
    /// primary tier's output cannot be trusted until investigated.
    pub mirror_mismatches: u64,
    /// Streaming operations completed: each OPEN session's ABSORB /
    /// FINALIZE / SQUEEZE micro-ops carried through the batch lane.
    /// Stream operations also count in `submitted` / `completed` /
    /// `timeouts` / `worker_failures`, so those still tie out.
    pub stream_ops: u64,
    /// Message bytes absorbed by completed streaming operations.
    pub stream_absorbed: u64,
    /// Output bytes squeezed by completed streaming operations.
    pub stream_squeezed: u64,
    /// ML-KEM key generations completed through the KEM lane. KEM
    /// operations also count in `submitted` / `completed` / `timeouts` /
    /// `worker_failures`, so those still tie out (an operation refused
    /// by input validation counts in `kem_invalid` instead of
    /// `completed`).
    pub kem_keygen: u64,
    /// ML-KEM encapsulations completed through the KEM lane.
    pub kem_encaps: u64,
    /// ML-KEM decapsulations completed through the KEM lane.
    pub kem_decaps: u64,
    /// Keccak jobs dispatched on behalf of KEM operations: every matrix
    /// expansion squeeze, CBD PRF, rejection-retry block and H/G/J call
    /// the lane packed into shared batches.
    pub kem_hash_jobs: u64,
    /// KEM rounds dispatched: each packs the pending hash jobs of every
    /// live KEM operation of a batch into one dispatch group.
    /// `kem_hash_jobs / kem_dispatches` is the lane's mean batch
    /// occupancy — above 1.0 means cross-request batching is packing
    /// jobs from concurrent operations into shared passes.
    pub kem_dispatches: u64,
    /// KEM operations refused at batch formation by FIPS 203 input
    /// validation (malformed key or ciphertext); these never reach the
    /// engines.
    pub kem_invalid: u64,
    /// Requests queued at snapshot time.
    pub queue_depth: usize,
    /// Mean batch fill ratio (`batch_size / batch_slots`, 1.0 = every
    /// pooled state slot used).
    pub mean_batch_fill: f64,
    /// Pool workers alive as of the last dispatched batch.
    pub alive_workers: usize,
    /// State slots a batch can fill as of the last dispatched batch
    /// (shrinks when workers die).
    pub batch_slots: usize,
    /// Queue-wait latency of successful requests, nanoseconds.
    pub queue_ns: QuantileSummary,
    /// Service-time latency of successful requests, nanoseconds.
    pub service_ns: QuantileSummary,
    /// End-to-end latency of successful requests, nanoseconds.
    pub e2e_ns: QuantileSummary,
}
