//! Acceptance tests for the pooled execution backend.
//!
//! The contract: an [`EnginePool`] is *behaviorally invisible* — any
//! batch scheduled through it produces bit-identical output to the
//! scalar [`ReferenceBackend`], and its cycle accounting is
//! deterministic whatever the number of modelled engines.

use keccak_rvv::core::{EnginePool, KernelKind};
use keccak_rvv::keccak::KeccakState;
use keccak_rvv::sha3::{
    hash_batch, BatchRequest, PermutationBackend, ReferenceBackend, SpongeParams,
};
use krv_testkit::Rng;

/// The headline acceptance case: 1000 mixed-length SHAKE128 messages
/// through a pool of 4 worker engines must match the reference backend
/// bit for bit.
#[test]
fn pool_matches_reference_on_a_thousand_mixed_messages() {
    let mut rng = Rng::new(0x9E3779B97F4A7C15);
    let messages: Vec<Vec<u8>> = (0..1000)
        .map(|_| {
            let len = rng.below(600);
            rng.bytes(len)
        })
        .collect();
    let requests: Vec<BatchRequest<'_>> =
        messages.iter().map(|m| BatchRequest::new(m, 32)).collect();
    let params = SpongeParams::shake(128);

    let expected = hash_batch(params, ReferenceBackend::new(), &requests);
    let mut pool = EnginePool::new(KernelKind::E64Lmul8, 4, 4);
    let pooled = hash_batch(params, &mut pool, &requests);

    assert_eq!(pooled, expected, "pooled output diverged from reference");
    assert!(pool.permutations() > 0, "the pool did the work");
}

/// State counts that do not divide evenly into the pool's width —
/// including fewer states than one engine holds — still round-trip.
#[test]
fn ragged_state_counts_match_reference() {
    let mut pool = EnginePool::new(KernelKind::E64Lmul8, 3, 4);
    for count in [1usize, 2, 3, 5, 11, 13] {
        let mut rng = Rng::new(0xC0FFEE ^ count as u64);
        let mut states: Vec<KeccakState> = (0..count)
            .map(|_| {
                let mut lanes = [0u64; 25];
                for lane in &mut lanes {
                    *lane = rng.next_u64();
                }
                KeccakState::from_lanes(lanes)
            })
            .collect();
        let mut expected = states.clone();
        ReferenceBackend::new().permute_all(&mut expected);
        pool.permute_slice(&mut states).expect("pool dispatch");
        assert_eq!(states, expected, "count = {count}");
    }
}

/// An empty dispatch is a no-op, not a panic.
#[test]
fn empty_batch_and_empty_slice_are_no_ops() {
    let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, 4);
    pool.permute_slice(&mut []).expect("empty slice");
    assert_eq!(pool.permutations(), 0);
    let outputs = hash_batch(SpongeParams::shake(128), &mut pool, &[]);
    assert!(outputs.is_empty());
}

/// The simulated cycle totals are a property of the *work*, not the
/// worker count: any pool shape reports the same `total_cycles` for the
/// same states, and more workers only shrink the critical path.
#[test]
fn cycle_accounting_is_deterministic_across_worker_counts() {
    let mut rng = Rng::new(0xDE7E_2215);
    let base: Vec<KeccakState> = (0..10)
        .map(|_| {
            let mut lanes = [0u64; 25];
            for lane in &mut lanes {
                *lane = rng.next_u64();
            }
            KeccakState::from_lanes(lanes)
        })
        .collect();

    let mut totals = Vec::new();
    let mut outputs = Vec::new();
    for workers in [1usize, 2, 4, 5] {
        let mut pool = EnginePool::new(KernelKind::E64Lmul8, 2, workers);
        let mut states = base.clone();
        pool.permute_slice(&mut states).expect("pool dispatch");
        let metrics = pool.last_metrics().expect("metrics recorded").clone();
        assert_eq!(
            metrics.per_engine.len(),
            workers,
            "one load entry per worker"
        );
        if workers > 1 {
            assert!(metrics.speedup() > 1.0, "parallelism shortens the path");
        }
        totals.push(metrics.total_cycles);
        outputs.push(states);
    }
    assert!(
        totals.windows(2).all(|pair| pair[0] == pair[1]),
        "total cycles varied with worker count: {totals:?}"
    );
    assert!(
        outputs.windows(2).all(|pair| pair[0] == pair[1]),
        "outputs varied with worker count"
    );
}
