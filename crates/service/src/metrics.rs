//! Service instrumentation: counters, batch-fill accounting and latency
//! histograms, snapshotted for callers as [`MetricsSnapshot`].
//!
//! The additive counters are declared once, in the `ledger!` table
//! below, in `STATS` wire order. The table generates their fields in
//! [`ShardMetrics`] (the scheduler's ledger and its mergeable per-shard
//! copy), in [`MetricsSnapshot`] and in the scheduler's per-batch tally,
//! and every method that walks them: [`ShardMetrics::merge`],
//! [`ShardMetrics::summarize`], the tally's fold and the
//! [`MetricsSnapshot::counters`] accessors the wire codec iterates.
//! Adding a counter is one line of the table; it also changes the
//! fixed-width `STATS` layout, so it needs a protocol version bump.

use crate::{RequestError, RequestTiming, StreamOutput, TierKind};
use krv_core::PoolError;
use krv_testkit::LatencyHistogram;
use std::time::Duration;

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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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

/// Declares the ledger from its counter table: one additive `u64`
/// counter per entry, with its doc comment, in `STATS` wire order.
macro_rules! ledger {
    (@accessors $ledger:ident: $($name:ident)+) => {
        impl $ledger {
            /// Number of counters in the ledger's table.
            pub const COUNTERS: usize = [$(stringify!($name)),+].len();

            /// Every table counter as `(name, value)`, in table order —
            /// the order of the `STATS` wire encoding.
            pub fn counters(&self) -> [(&'static str, u64); $ledger::COUNTERS] {
                [$((stringify!($name), self.$name)),+]
            }

            /// Every table counter, mutably, in table order.
            pub fn counters_mut(&mut self) -> [&mut u64; $ledger::COUNTERS] {
                [$(&mut self.$name),+]
            }
        }
    };
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// One batch's contribution to the ledger, counted without the
        /// stats lock and added under one acquisition by
        /// [`ShardMetrics::fold`].
        #[derive(Default)]
        pub(crate) struct BatchTally {
            $(pub $name: u64,)+
            /// The batch's fill ratio (`batch_size / batch_slots`).
            pub fill_sum: f64,
            /// Queue wait, service time and end-to-end latency of each
            /// successful request.
            pub samples: Vec<(Duration, Duration, Duration)>,
        }

        /// The raw, mergeable instrumentation of one service shard: every
        /// counter of [`MetricsSnapshot`] plus the full latency
        /// **histograms** instead of pre-summarized percentiles. The
        /// scheduler keeps its ledger in this form, and
        /// [`Service::shard_metrics`](crate::Service::shard_metrics)
        /// copies it out.
        ///
        /// This is the form shard metrics aggregate in: summarizing first
        /// and then combining percentiles is lossy, but merging the
        /// log-bucketed [`LatencyHistogram`]s bucket-wise and summarizing
        /// once keeps the merged percentiles inside the histogram's
        /// ≤ 6.25 % quantization bound, exactly as if one histogram had
        /// recorded every shard's samples. The default value (counters
        /// zero, histograms empty) is the identity of [`Self::merge`].
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct ShardMetrics {
            $($(#[doc = $doc])+ pub $name: u64,)+
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

        /// A point-in-time copy of the service's instrumentation, from
        /// [`Service::metrics`](crate::Service::metrics) or as the final
        /// report of [`Service::shutdown`](crate::Service::shutdown).
        ///
        /// The counters tie out: every admitted request ends in exactly
        /// one of `completed`, `timeouts`, `worker_failures` or
        /// `kem_invalid` (or is still queued / in flight), and `rejected`
        /// counts submissions that were never admitted at all. Latency
        /// summaries cover **successful** requests only, so the tail
        /// percentiles describe served traffic.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
            /// Requests queued at snapshot time.
            pub queue_depth: usize,
            /// Mean batch fill ratio (`batch_size / batch_slots`, 1.0 =
            /// every pooled state slot used).
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

        impl ShardMetrics {
            /// Folds `other` into `self`: counters and gauges add (queue
            /// depth, alive workers and batch slots become cluster-wide
            /// totals; `fill_sum` and `batches` add so the summarized mean
            /// fill stays batch-weighted), histograms merge bucket-wise.
            pub fn merge(&mut self, other: &Self) {
                $(self.$name += other.$name;)+
                self.fill_sum += other.fill_sum;
                self.queue_depth += other.queue_depth;
                self.alive_workers += other.alive_workers;
                self.batch_slots += other.batch_slots;
                self.queue_wait.merge(&other.queue_wait);
                self.service_time.merge(&other.service_time);
                self.e2e.merge(&other.e2e);
            }

            /// Collapses the histograms into percentile summaries,
            /// producing the caller-facing [`MetricsSnapshot`].
            pub fn summarize(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name,)+
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

            /// Adds one batch's tally: its counters and fill ratio add,
            /// and its latency samples enter the histograms.
            pub(crate) fn fold(&mut self, tally: BatchTally) {
                $(self.$name += tally.$name;)+
                self.fill_sum += tally.fill_sum;
                for (queue, service, total) in tally.samples {
                    self.queue_wait.record_duration(queue);
                    self.service_time.record_duration(service);
                    self.e2e.record_duration(total);
                }
            }
        }

        ledger!(@accessors ShardMetrics: $($name)+);
        ledger!(@accessors MetricsSnapshot: $($name)+);
    };
}

ledger! {
    /// Requests admitted into the queue.
    submitted,
    /// Requests served: one-shot hashes, stream and tree operations and
    /// ML-KEM operations that completed with a result. A tree operation
    /// is one request however many leaves it carries.
    completed,
    /// Requests whose deadline elapsed before dispatch.
    timeouts,
    /// Submissions refused with a full queue.
    rejected,
    /// Submissions refused by the per-client fair-share cap: the client
    /// already held its quota of queue slots, so admitting more would
    /// let it starve everyone else.
    throttled,
    /// Requests failed because a round they rode in failed again on its
    /// retry.
    worker_failures,
    /// Rounds retried after losing a pool worker.
    retries,
    /// Batches dispatched (including all-timeout batches).
    batches,
    /// Requests served by the native tier.
    native_served,
    /// Requests served by the simulator tier.
    simulator_served,
    /// Items replayed through the non-primary tier by the mirror
    /// sampler: every one-shot hash, stream operation, tree leaf piece
    /// and tree root item, and KEM hash job of each sampled round.
    mirrored,
    /// Mirrored items whose native and simulator outputs or final
    /// sponge states disagreed. Latched: any nonzero value means the
    /// tiers have diverged and the primary tier's output cannot be
    /// trusted until investigated.
    mirror_mismatches,
    /// Stream and tree operations completed: each OPEN session's ABSORB
    /// / FINALIZE / SQUEEZE operation (a stream operation served in one
    /// round, a tree operation in its job's rounds) and each one-shot
    /// tree request. They also count in `submitted` / `completed` /
    /// `timeouts` / `worker_failures`, so those still tie out.
    stream_ops,
    /// Message bytes absorbed by completed stream operations, and the
    /// chunks of completed tree operations.
    stream_absorbed,
    /// Output bytes squeezed by completed stream and tree operations.
    stream_squeezed,
    /// ML-KEM key generations completed. KEM
    /// operations also count in `submitted` / `completed` / `timeouts` /
    /// `worker_failures`, so those still tie out (an operation refused
    /// by input validation counts in `kem_invalid` instead of
    /// `completed`).
    kem_keygen,
    /// ML-KEM encapsulations completed.
    kem_encaps,
    /// ML-KEM decapsulations completed.
    kem_decaps,
    /// Keccak jobs dispatched on behalf of KEM operations: every matrix
    /// expansion squeeze, CBD PRF, rejection-retry block and H/G/J call
    /// the scheduler packed into shared rounds.
    kem_hash_jobs,
    /// Rounds that carried at least one KEM hash job; each packs the
    /// pending hash jobs of every live KEM operation of a batch (beside
    /// the batch's one-shots and stream operations, in its first round).
    /// `kem_hash_jobs / kem_dispatches` is the mean KEM occupancy of a
    /// round — above 1.0 means cross-request batching is packing jobs
    /// from concurrent operations into shared passes.
    kem_dispatches,
    /// KEM operations refused at batch formation by FIPS 203 input
    /// validation (malformed key or ciphertext); these never reach the
    /// engines.
    kem_invalid,
}

impl BatchTally {
    /// Counts one finished request: served on its tier with its
    /// latencies sampled, or failed when its round failed again on the
    /// retry. Returns the result the ticket carries.
    pub(crate) fn finish<T>(
        &mut self,
        result: Result<T, PoolError>,
        timing: &RequestTiming,
    ) -> Result<T, RequestError> {
        let output = result.map_err(|error| {
            self.worker_failures += 1;
            RequestError::WorkerFailure { error }
        })?;
        self.completed += 1;
        match timing.tier {
            TierKind::Native => self.native_served += 1,
            TierKind::Simulator => self.simulator_served += 1,
        }
        self.samples
            .push((timing.queue, timing.service, timing.total));
        Ok(output)
    }

    /// Counts one served stream or tree operation's bytes and hands
    /// back its output.
    pub(crate) fn stream_op<S>(
        &mut self,
        absorbed: usize,
        state: Box<S>,
        output: Vec<u8>,
    ) -> StreamOutput<S> {
        self.stream_ops += 1;
        self.stream_absorbed += absorbed as u64;
        self.stream_squeezed += output.len() as u64;
        StreamOutput { state, output }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ledger with a distinct nonzero value in every counter and gauge
    /// and one sample in each histogram, all derived from `seed`.
    fn filled(seed: u64) -> ShardMetrics {
        let mut metrics = ShardMetrics {
            fill_sum: seed as f64 * 0.75,
            queue_depth: 5 * seed as usize,
            alive_workers: 7 * seed as usize,
            batch_slots: 11 * seed as usize,
            ..ShardMetrics::default()
        };
        for (i, counter) in metrics.counters_mut().into_iter().enumerate() {
            *counter = 100 * seed + i as u64 + 1;
        }
        metrics.queue_wait.record(1_000 * seed);
        metrics.service_time.record(2_000 * seed);
        metrics.e2e.record(3_000 * seed);
        metrics
    }

    #[test]
    fn merge_summarize_and_default_cover_every_field() {
        let (a, b) = (filled(1), filled(2));
        let mut merged = a.clone();
        merged.merge(&b);

        // merge: every counter and gauge adds, every histogram merges.
        let (ca, cb) = (a.counters(), b.counters());
        for (i, (name, value)) in merged.counters().into_iter().enumerate() {
            assert_eq!(value, ca[i].1 + cb[i].1, "merged {name}");
        }
        assert_eq!(merged.fill_sum, 2.25);
        assert_eq!(merged.queue_depth, 15);
        assert_eq!(merged.alive_workers, 21);
        assert_eq!(merged.batch_slots, 33);
        for (hist, (low, high)) in [
            (&merged.queue_wait, (1_000, 2_000)),
            (&merged.service_time, (2_000, 4_000)),
            (&merged.e2e, (3_000, 6_000)),
        ] {
            let mut expected = LatencyHistogram::new();
            expected.record(low);
            expected.record(high);
            assert_eq!(*hist, expected);
        }

        // summarize: every counter and gauge carries over, the fill
        // becomes a batch-weighted mean and each histogram a summary.
        let snapshot = merged.summarize();
        assert_eq!(snapshot.counters(), merged.counters());
        assert_eq!(snapshot.queue_depth, 15);
        assert_eq!(snapshot.alive_workers, 21);
        assert_eq!(snapshot.batch_slots, 33);
        assert_eq!(snapshot.mean_batch_fill, 2.25 / merged.batches as f64);
        assert_eq!(
            snapshot.queue_ns,
            QuantileSummary::from_histogram(&merged.queue_wait)
        );
        assert_eq!(
            snapshot.service_ns,
            QuantileSummary::from_histogram(&merged.service_time)
        );
        assert_eq!(
            snapshot.e2e_ns,
            QuantileSummary::from_histogram(&merged.e2e)
        );
        assert_eq!(snapshot.e2e_ns.count, 2);

        // default(): the identity of merge on either side, and it
        // summarizes to the default snapshot.
        let mut left = ShardMetrics::default();
        left.merge(&a);
        assert_eq!(left, a);
        let mut right = a.clone();
        right.merge(&ShardMetrics::default());
        assert_eq!(right, a);
        assert!(ShardMetrics::default()
            .counters()
            .iter()
            .all(|&(_, value)| value == 0));
        assert_eq!(
            ShardMetrics::default().summarize(),
            MetricsSnapshot::default()
        );
    }
}
