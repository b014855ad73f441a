//! Shard-merge fidelity: the aggregated snapshot must be the exact
//! counter sum of its shards, and its percentiles must stay inside the
//! histogram quantization bound relative to the *exact* latency samples
//! — merging raw histograms bucket-wise is lossless with respect to
//! that bound, unlike averaging pre-summarized percentiles.

use krv_service::{HashRequest, ServiceConfig, ShardConfig, ShardMetrics, ShardedService, Ticket};
use krv_sha3::Sha3_256;
use krv_testkit::Rng;
use std::time::Duration;

/// The histogram's relative quantization: 4 sub-bucket bits → bucket
/// upper bounds within 1/16 (6.25 %) above the recorded value.
const QUANT: f64 = 1.0 + 1.0 / 16.0;

fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn merged_snapshot_is_the_exact_shard_sum_with_bounded_percentiles() {
    let service = ShardedService::start(ShardConfig {
        shards: 3,
        service: ServiceConfig {
            max_wait: Duration::from_micros(200),
            ..ServiceConfig::default()
        },
    });

    // 40 clients spread over the shards, a burst each, every exact
    // end-to-end latency collected on the side.
    let mut rng = Rng::new(0x5AAD_0001);
    let mut tickets: Vec<(Vec<u8>, Ticket)> = Vec::new();
    for client in 0..40u64 {
        for _ in 0..4 {
            let payload_len = rng.below(300);
            let payload = rng.bytes(payload_len);
            let ticket = service
                .submit_as(client, HashRequest::sha3_256(payload.clone()))
                .expect("queue has room");
            tickets.push((payload, ticket));
        }
    }
    let mut samples: Vec<u64> = Vec::with_capacity(tickets.len());
    for (payload, ticket) in tickets {
        let completion = ticket.wait();
        let digest = completion.result.expect("request succeeds");
        assert_eq!(digest, Sha3_256::digest(&payload));
        samples.push(u64::try_from(completion.timing.total.as_nanos()).expect("fits"));
    }
    samples.sort_unstable();

    // Counter exactness: the merged snapshot is the arithmetic sum of
    // the per-shard snapshots, for every counter of the ledger's table.
    let shards = service.shard_metrics();
    let merged = service.metrics();
    assert_eq!(shards.len(), 3);
    let per_shard: Vec<_> = shards.iter().map(ShardMetrics::counters).collect();
    for (i, (name, value)) in merged.counters().into_iter().enumerate() {
        let sum: u64 = per_shard.iter().map(|counters| counters[i].1).sum();
        assert_eq!(value, sum, "merged {name} is not the shard sum");
    }
    assert_eq!(merged.submitted, 160);
    assert_eq!(
        merged.e2e_ns.count,
        shards.iter().map(|s| s.e2e.count()).sum::<u64>()
    );
    assert_eq!(merged.e2e_ns.count, 160);
    for shard in &shards {
        assert!(
            shard.e2e.count() > 0,
            "routing left a shard idle — 40 clients must cover 3 shards"
        );
    }

    // Percentile fidelity: merging the shard histograms bucket-wise
    // behaves exactly like one histogram that recorded every sample, so
    // each merged percentile sits in [exact, exact × 1.0625] (+1 for
    // the integer bucket edges) of the true sample percentile.
    for q in [0.50, 0.90, 0.99] {
        let exact = exact_percentile(&samples, q);
        let got = match q {
            0.50 => merged.e2e_ns.p50,
            0.90 => merged.e2e_ns.p90,
            _ => merged.e2e_ns.p99,
        };
        assert!(
            got >= exact,
            "merged p{} = {got} below the exact sample percentile {exact}",
            (q * 100.0) as u32
        );
        let bound = (exact as f64 * QUANT) as u64 + 1;
        assert!(
            got <= bound,
            "merged p{} = {got} beyond the quantization bound {bound} (exact {exact})",
            (q * 100.0) as u32
        );
    }
    // The extremes are exact, not quantized.
    assert_eq!(merged.e2e_ns.max, *samples.last().expect("samples"));

    let report = service.shutdown();
    assert_eq!(report.completed, 160);
}
