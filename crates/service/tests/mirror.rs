//! Tier routing and the online differential oracle.
//!
//! These tests pin the serving contract of the tier layer: the native
//! tier serves bit-identical digests, the mirror sampler re-hashes
//! sampled groups through the other tier, and a corrupted native kernel
//! is caught — whether it is serving traffic or only mirroring it. A
//! tree request's leaves and root are mirrored item by item.

use krv_service::{HashRequest, Service, ServiceConfig, Ticket, TierKind, TierPolicy, TreeRequest};
use krv_sha3::tree::krv_tree_hash256;
use krv_sha3::{Sha3_256, Shake128, TreeMode};
use std::time::Duration;

fn tiered_config(tier: TierPolicy) -> ServiceConfig {
    ServiceConfig {
        max_wait: Duration::from_micros(200),
        tier,
        ..ServiceConfig::default()
    }
}

fn submit_mixed(service: &Service, count: usize) -> Vec<(Vec<u8>, Ticket)> {
    (0..count)
        .map(|i| {
            let message = vec![i as u8; 11 + 17 * i];
            let request = if i.is_multiple_of(2) {
                HashRequest::sha3_256(message.clone())
            } else {
                HashRequest::shake128(message.clone(), 48)
            };
            let ticket = service.submit(request).expect("queue has room");
            (message, ticket)
        })
        .collect()
}

fn expected_digest(i: usize, message: &[u8]) -> Vec<u8> {
    if i.is_multiple_of(2) {
        Sha3_256::digest(message).to_vec()
    } else {
        Shake128::digest(message, 48)
    }
}

#[test]
fn native_primary_serves_reference_digests() {
    let service = Service::start(tiered_config(TierPolicy::native()));
    let tickets = submit_mixed(&service, 12);
    for (i, (message, ticket)) in tickets.into_iter().enumerate() {
        let completion = ticket.wait();
        assert_eq!(
            completion.result.expect("native tier serves"),
            expected_digest(i, &message),
            "request #{i}"
        );
        assert_eq!(completion.timing.tier, TierKind::Native);
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 12);
    assert_eq!(report.native_served, 12);
    assert_eq!(report.simulator_served, 0);
    assert_eq!(report.mirrored, 0, "mirroring was off");
    assert_eq!(report.mirror_mismatches, 0);
}

#[test]
fn clean_mirroring_samples_without_mismatches() {
    let service = Service::start(tiered_config(TierPolicy::native().with_mirror_every(1)));
    let tickets = submit_mixed(&service, 10);
    for (i, (message, ticket)) in tickets.into_iter().enumerate() {
        let completion = ticket.wait();
        assert_eq!(
            completion.result.expect("native tier serves"),
            expected_digest(i, &message),
            "request #{i}"
        );
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 10);
    assert_eq!(report.native_served, 10);
    assert_eq!(
        report.mirrored, 10,
        "mirror_every=1 re-hashes every served request"
    );
    assert_eq!(
        report.mirror_mismatches, 0,
        "the tiers agree on healthy hardware"
    );
}

#[test]
fn corrupted_native_primary_is_latched_by_the_oracle() {
    let service = Service::start(tiered_config(TierPolicy::native().with_mirror_every(1)));
    service.inject_native_corruption();
    let tickets = submit_mixed(&service, 8);
    for (i, (message, ticket)) in tickets.into_iter().enumerate() {
        let completion = ticket.wait();
        // The drill corrupts served traffic — that is the point: the
        // service itself cannot tell, only the mirror can.
        assert_ne!(
            completion.result.expect("corrupted but served"),
            expected_digest(i, &message),
            "request #{i} digest is corrupted"
        );
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 8);
    assert_eq!(report.mirrored, 8);
    assert_eq!(
        report.mirror_mismatches, 8,
        "every mirrored request disagrees with the simulator"
    );
}

#[test]
fn corrupted_native_mirror_is_caught_from_the_simulator_side() {
    // Simulator serves (digests stay correct); the corrupted native
    // tier only mirrors — the oracle still latches the divergence.
    let service = Service::start(tiered_config(TierPolicy::simulator().with_mirror_every(1)));
    service.inject_native_corruption();
    let tickets = submit_mixed(&service, 6);
    for (i, (message, ticket)) in tickets.into_iter().enumerate() {
        let completion = ticket.wait();
        assert_eq!(
            completion.result.expect("simulator tier serves"),
            expected_digest(i, &message),
            "served digests are untouched by the drill"
        );
        assert_eq!(completion.timing.tier, TierKind::Simulator);
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 6);
    assert_eq!(report.simulator_served, 6);
    assert_eq!(report.native_served, 0);
    assert_eq!(report.mirrored, 6);
    assert_eq!(report.mirror_mismatches, 6);
}

#[test]
fn default_config_never_touches_the_tier_counters() {
    let service = Service::start(ServiceConfig {
        max_wait: Duration::from_micros(200),
        ..ServiceConfig::default()
    });
    let tickets = submit_mixed(&service, 5);
    for (i, (message, ticket)) in tickets.into_iter().enumerate() {
        let completion = ticket.wait();
        assert_eq!(
            completion.result.expect("default path serves"),
            expected_digest(i, &message)
        );
        assert_eq!(completion.timing.tier, TierKind::Simulator);
    }
    let report = service.shutdown();
    assert_eq!(report.simulator_served, report.completed);
    assert_eq!(report.native_served, 0);
    assert_eq!(report.mirrored, 0);
    assert_eq!(report.mirror_mismatches, 0);
}

#[test]
fn sampled_mirroring_checks_a_strict_subset() {
    // mirror_every = 2 with one group per batch: roughly half the
    // dispatch groups are sampled. The exact split depends on batch
    // formation, so assert the envelope rather than the count.
    let service = Service::start(tiered_config(TierPolicy::native().with_mirror_every(2)));
    let tickets = submit_mixed(&service, 16);
    for (_, ticket) in tickets {
        ticket.wait().result.expect("served");
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 16);
    assert!(report.mirrored > 0, "sampling rate 2 mirrors some groups");
    assert!(report.mirrored < 16, "and skips others");
    assert_eq!(report.mirror_mismatches, 0);
}

#[test]
fn tree_leaves_and_root_are_mirrored_as_items() {
    // Three blocks and a tail: round 1 carries four leaves beside the
    // root absorbing its prefix, round 2 the last fold.
    let message: Vec<u8> = (0..3 * 4096 + 100).map(|i| (i * 7 % 251) as u8).collect();
    let expected = krv_tree_hash256(&message, 32, b"mirror");
    let request = || TreeRequest::digest(TreeMode::krv_tree256(), b"mirror", message.clone(), 32);

    let service = Service::start(tiered_config(TierPolicy::native().with_mirror_every(1)));
    let served = service.submit(request()).expect("admitted").wait();
    assert_eq!(served.result.expect("native tier serves").output, expected);
    let report = service.shutdown();
    assert_eq!(report.native_served, 1);
    assert_eq!(
        report.mirrored,
        5 + 1,
        "every leaf and root item of both rounds"
    );
    assert_eq!(report.mirror_mismatches, 0);

    let service = Service::start(tiered_config(TierPolicy::native().with_mirror_every(1)));
    service.inject_native_corruption();
    let served = service.submit(request()).expect("admitted").wait();
    assert_ne!(
        served.result.expect("corrupted but served").output,
        expected
    );
    let report = service.shutdown();
    assert_eq!(report.mirrored, 6);
    assert_eq!(
        report.mirror_mismatches, 5,
        "each leaf digest and the root output disagree; the prefix-only root item squeezes nothing"
    );
}
