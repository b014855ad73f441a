//! Sharded serving: N independent [`Service`]s behind one front door.
//!
//! A single service serializes every admission through one queue mutex
//! and every batch through one scheduler thread. Sharding splits the
//! backend into `shards` fully independent services — each with its own
//! admission queue, deadline scheduler and engine pool — and routes
//! each request by a stable hash of its client id, so one client's
//! traffic always lands on the same shard (its fair-share accounting
//! stays exact) while distinct clients spread across all of them.
//!
//! Metrics stay whole-cluster: every shard keeps its raw
//! [`ShardMetrics`] (counters plus full latency histograms), and
//! [`ShardedService::metrics`] merges them bucket-wise before
//! summarizing, so the aggregated percentiles respect the same ≤ 6.25 %
//! histogram quantization bound as a single shard's.

use crate::metrics::ShardMetrics;
use crate::{MetricsSnapshot, Request, Service, ServiceConfig, SubmitError, Ticket};

/// How a [`ShardedService`] is shaped: the shard count and the
/// configuration every shard runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Independent service shards (each with its own queue, scheduler
    /// and engine pool).
    pub shards: usize,
    /// The per-shard service configuration; note `queue_capacity` and
    /// `fair_share` apply per shard, not cluster-wide.
    pub service: ServiceConfig,
}

impl Default for ShardConfig {
    /// Two shards of the default service configuration.
    fn default() -> Self {
        Self {
            shards: 2,
            service: ServiceConfig::default(),
        }
    }
}

/// SplitMix64's output finalizer: a full-avalanche 64-bit mix, so
/// adjacent client ids (connection tokens count up from zero) spread
/// uniformly across shards instead of striping.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// N independent [`Service`] shards with consistent client routing and
/// merged metrics.
///
/// # Example
///
/// ```
/// use krv_service::{HashRequest, ShardConfig, ShardedService};
/// use krv_sha3::Sha3_256;
///
/// let service = ShardedService::start(ShardConfig::default());
/// let ticket = service.submit_as(7, HashRequest::sha3_256(b"abc")).unwrap();
/// assert_eq!(ticket.wait().result.unwrap(), Sha3_256::digest(b"abc"));
/// let report = service.shutdown();
/// assert_eq!(report.completed, 1);
/// ```
#[derive(Debug)]
pub struct ShardedService {
    shards: Vec<Service>,
}

impl ShardedService {
    /// Starts `config.shards` independent services.
    ///
    /// # Panics
    ///
    /// Panics if the shard count is zero, or on anything
    /// [`Service::start`] panics on.
    pub fn start(config: ShardConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        Self {
            shards: (0..config.shards)
                .map(|_| Service::start(config.service))
                .collect(),
        }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `client` routes to: a stable full-avalanche hash
    /// of the client id, so the same client always lands on the same
    /// shard (per-client fair-share accounting never splits) and the
    /// mapping is reproducible across restarts with the same shard
    /// count.
    pub fn route(&self, client: u64) -> usize {
        (mix64(client) % self.shards.len() as u64) as usize
    }

    /// Submits a request on behalf of `client` to its routed shard. A
    /// client's hashes, stream operations and ML-KEM calls all land on
    /// that shard, so its fair-share account never splits.
    ///
    /// # Errors
    ///
    /// Exactly [`Service::submit_as`]'s errors, scoped to the routed
    /// shard's queue and fair-share cap.
    pub fn submit_as<R: Request>(
        &self,
        client: u64,
        request: R,
    ) -> Result<Ticket<R::Output>, SubmitError> {
        self.shards[self.route(client)].submit_as(client, request)
    }

    /// [`Service::try_submit_as`] on the routed shard: a refusal hands
    /// the request back for a later retry.
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
        self.shards[self.route(client)].try_submit_as(client, request)
    }

    /// Submits for the anonymous client 0 (routed like any other id).
    ///
    /// # Errors
    ///
    /// See [`Self::submit_as`].
    pub fn submit<R: Request>(&self, request: R) -> Result<Ticket<R::Output>, SubmitError> {
        self.submit_as(0, request)
    }

    /// Direct access to one shard (for per-shard drills such as
    /// [`Service::inject_worker_failure`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.shards()`.
    pub fn shard(&self, index: usize) -> &Service {
        &self.shards[index]
    }

    /// Raw per-shard metrics, histograms included, in shard order.
    pub fn shard_metrics(&self) -> Vec<ShardMetrics> {
        self.shards.iter().map(Service::shard_metrics).collect()
    }

    /// The cluster-wide snapshot: every shard's raw metrics merged
    /// (counters summed, histograms combined bucket-wise), then
    /// summarized once — identical to a single service having recorded
    /// every sample.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut merged = ShardMetrics::default();
        for shard in &self.shards {
            merged.merge(&shard.shard_metrics());
        }
        merged.summarize()
    }

    /// Stops admission on every shard without waiting for the drains.
    pub fn close(&self) {
        for shard in &self.shards {
            shard.close();
        }
    }

    /// Graceful shutdown: closes every shard, drains them all (the
    /// drains overlap — closing first lets every scheduler drain
    /// concurrently before any join), and returns the merged final
    /// metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.close();
        let mut merged = ShardMetrics::default();
        for shard in &mut self.shards {
            shard.stop();
            merged.merge(&shard.shard_metrics());
        }
        merged.summarize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HashRequest;
    use krv_sha3::Sha3_256;
    use std::time::Duration;

    fn fast_shards(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            service: ServiceConfig {
                max_wait: Duration::from_micros(200),
                ..ServiceConfig::default()
            },
        }
    }

    #[test]
    fn routing_is_consistent_and_covers_every_shard() {
        let service = ShardedService::start(fast_shards(4));
        for client in 0..64u64 {
            assert_eq!(service.route(client), service.route(client));
        }
        let mut hit = [false; 4];
        for client in 0..64u64 {
            hit[service.route(client)] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 clients cover 4 shards: {hit:?}");
        drop(service);
    }

    #[test]
    fn sharded_digests_match_the_reference() {
        let service = ShardedService::start(fast_shards(3));
        let messages: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; 10 + i as usize]).collect();
        let tickets: Vec<_> = messages
            .iter()
            .enumerate()
            .map(|(client, message)| {
                service
                    .submit_as(client as u64, HashRequest::sha3_256(message.clone()))
                    .expect("queues have room")
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(
                ticket.wait().result.expect("served"),
                Sha3_256::digest(&messages[i]),
                "request #{i}"
            );
        }
        let report = service.shutdown();
        assert_eq!(report.submitted, 24);
        assert_eq!(report.completed, 24);
    }

    #[test]
    fn merged_metrics_are_the_shard_sum() {
        let service = ShardedService::start(fast_shards(2));
        let tickets: Vec<_> = (0..16u64)
            .map(|client| {
                service
                    .submit_as(client, HashRequest::sha3_256(vec![client as u8; 32]))
                    .expect("admitted")
            })
            .collect();
        for ticket in tickets {
            ticket.wait().result.expect("served");
        }
        let per_shard = service.shard_metrics();
        let merged = service.metrics();
        assert_eq!(per_shard.len(), 2);
        assert!(
            per_shard.iter().all(|s| s.submitted > 0),
            "16 clients land on both shards: {:?}",
            per_shard.iter().map(|s| s.submitted).collect::<Vec<_>>()
        );
        assert_eq!(
            merged.submitted,
            per_shard.iter().map(|s| s.submitted).sum::<u64>()
        );
        assert_eq!(
            merged.completed,
            per_shard.iter().map(|s| s.completed).sum::<u64>()
        );
        assert_eq!(
            merged.e2e_ns.count,
            per_shard.iter().map(|s| s.e2e.count()).sum::<u64>()
        );
        service.shutdown();
    }
}
