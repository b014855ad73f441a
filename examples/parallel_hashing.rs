//! Parallel-state throughput: the paper's core claim in action.
//!
//! Hashes a batch of *mixed-length* messages with SHA3-256 through the
//! drain-and-refill scheduler ([`keccak_rvv::sha3::hash_batch`]) on
//! three tiers of simulated hardware:
//!
//! 1. single engines with 1, 3 and 6 resident Keccak states (the
//!    paper's Table 7/8 sweep) — throughput scales with `SN` while the
//!    per-pass latency stays flat, and
//! 2. an [`EnginePool`] scheduling passes across its modelled engines
//!    — the critical-path cycles shrink while total simulated work
//!    stays exactly the same. The pool runs every pass on the calling
//!    thread, so its gain is the simulated one.
//!
//! Run with: `cargo run --example parallel_hashing`

use keccak_rvv::core::{EnginePool, KernelKind, VectorKeccakEngine};
use keccak_rvv::sha3::{hash_batch, hex, BatchRequest, Sha3_256, SpongeParams};

fn main() {
    // 24 messages of *different* lengths: the scheduler drains finished
    // streams out of the pack, so no lockstep padding is needed.
    let messages: Vec<Vec<u8>> = (0..24u32)
        .map(|i| {
            (0..20 + 37 * i as usize)
                .map(|j| (i as usize * 131 + j) as u8)
                .collect()
        })
        .collect();
    let requests: Vec<BatchRequest<'_>> =
        messages.iter().map(|m| BatchRequest::new(m, 32)).collect();
    let expected: Vec<_> = messages.iter().map(|m| Sha3_256::digest(m)).collect();

    println!(
        "batch of {} messages, lengths {}..{} bytes, SHA3-256\n",
        messages.len(),
        messages.first().map_or(0, Vec::len),
        messages.last().map_or(0, Vec::len),
    );
    println!(
        "{:<36} {:>6} {:>14} {:>18}",
        "backend", "passes", "cycles/pass", "throughput (b/cc)"
    );
    for states in [1usize, 3, 6] {
        let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, states);
        let digests = hash_batch(SpongeParams::sha3(256), &mut engine, &requests);
        for (digest, reference) in digests.iter().zip(&expected) {
            assert_eq!(digest.as_slice(), reference.as_slice());
        }
        let metrics = engine.last_metrics().expect("engine ran");
        println!(
            "{:<36} {:>6} {:>14} {:>18.3}",
            format!("engine, SN = {states}"),
            engine.permutations(),
            metrics.permutation_cycles,
            metrics.throughput_bits_per_cycle(),
        );
    }

    // A pool of 4 worker engines, 3 states each: same work, sharded.
    let mut pool = EnginePool::new(KernelKind::E64Lmul8, 3, 4);
    let digests = hash_batch(SpongeParams::sha3(256), &mut pool, &requests);
    for (digest, reference) in digests.iter().zip(&expected) {
        assert_eq!(digest.as_slice(), reference.as_slice());
    }
    println!(
        "{:<36} {:>6} {:>14} {:>18}",
        "pool, 4 workers × SN = 3",
        pool.permutations(),
        "—",
        "—",
    );

    // One full-width dispatch shows the pool's cycle accounting: the
    // critical path (busiest worker) shrinks, total work does not.
    let mut states = vec![keccak_rvv::keccak::KeccakState::new(); pool.capacity()];
    pool.permute_slice(&mut states).expect("pool dispatch");
    let metrics = pool.last_metrics().expect("pool ran");
    println!(
        "\nfull-width pool dispatch ({} states): critical path {} of {} total cycles",
        pool.capacity(),
        metrics.max_cycles,
        metrics.total_cycles,
    );
    println!(
        "(simulated parallel speedup ×{:.2}; totals are invariant under the worker count)",
        metrics.speedup()
    );

    println!("\nlatency per permutation is constant; throughput scales with SN —");
    println!("paper §4.2: \"The latency is the same no matter how many Keccak states");
    println!("there are in the system simultaneously.\"");
    println!("\nfirst digest: {}", hex(&expected[0]));
}
