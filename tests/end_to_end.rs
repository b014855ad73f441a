//! Cross-crate end-to-end tests: random states through every kernel,
//! SHA-3 known answers on the simulated hardware, multi-state batches.

use keccak_rvv::core::{KernelKind, VectorKeccakEngine};
use keccak_rvv::keccak::{keccak_f1600, KeccakState};
use keccak_rvv::sha3::{
    hash_batch, hex, BatchRequest, Sha3_256, Sha3_512, Shake128, SpongeParams, Xof,
};
use krv_testkit::Rng;

fn random_states(rng: &mut Rng, n: usize) -> Vec<KeccakState> {
    (0..n)
        .map(|_| {
            let mut lanes = [0u64; 25];
            for lane in lanes.iter_mut() {
                *lane = rng.next_u64();
            }
            KeccakState::from_lanes(lanes)
        })
        .collect()
}

#[test]
fn random_states_through_every_kernel() {
    let mut rng = Rng::new(0xC0FFEE);
    for kind in KernelKind::ALL {
        for sn in [1usize, 2, 3, 6] {
            let mut engine = VectorKeccakEngine::new(kind, sn);
            for _ in 0..3 {
                let mut states = random_states(&mut rng, sn);
                let mut expected = states.clone();
                engine.permute_slice(&mut states).expect("kernel runs");
                for state in &mut expected {
                    keccak_f1600(state);
                }
                assert_eq!(states, expected, "{kind} SN={sn}");
            }
        }
    }
}

#[test]
fn sha3_kats_on_the_simulated_processor() {
    // FIPS-202 known answers computed entirely on the simulated SIMD
    // processor with custom vector extensions.
    let engine = VectorKeccakEngine::new(KernelKind::E32Lmul8, 1);
    let mut hasher = Sha3_256::with_backend(engine);
    hasher.update(b"abc");
    assert_eq!(
        hex(&hasher.finalize()),
        "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
    );
    let engine = VectorKeccakEngine::new(KernelKind::E64Lmul1, 1);
    let mut hasher = Sha3_512::with_backend(engine);
    hasher.update(b"");
    assert_eq!(
        hex(&hasher.finalize()),
        "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6\
         15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26"
    );
}

#[test]
fn shake_streaming_on_the_simulated_processor() {
    let engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 1);
    let mut simulated = Shake128::with_backend(engine);
    simulated.update(b"stream me");
    let mut reference = Shake128::new();
    reference.update(b"stream me");
    // Cross several squeeze blocks (rate = 168 bytes).
    for len in [10usize, 158, 168, 500] {
        assert_eq!(simulated.squeeze(len), reference.squeeze(len), "len {len}");
    }
}

#[test]
fn batch_on_hardware_matches_batch_on_software() {
    let inputs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i ^ 0x5A; 333]).collect();
    let requests: Vec<BatchRequest<'_>> =
        inputs.iter().map(|v| BatchRequest::new(v, 256)).collect();

    let hw_out = hash_batch(
        SpongeParams::shake(256),
        VectorKeccakEngine::new(KernelKind::E64Lmul8, 6),
        &requests,
    );
    let sw_out = hash_batch(
        SpongeParams::shake(256),
        keccak_rvv::sha3::ReferenceBackend::new(),
        &requests,
    );
    assert_eq!(hw_out, sw_out);
}

#[test]
fn engines_report_monotone_permutation_counts() {
    let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul1, 2);
    assert_eq!(engine.permutations(), 0);
    let mut states = vec![KeccakState::new(); 4];
    engine.permute_slice(&mut states).unwrap();
    assert_eq!(engine.permutations(), 2, "two chunks of two");
}

#[test]
fn mixed_backends_agree_on_long_messages() {
    let message: Vec<u8> = (0..100_000u32).map(|i| (i * 7 + 3) as u8).collect();
    let expected = Sha3_256::digest(&message);
    let mut hasher = Sha3_256::with_backend(VectorKeccakEngine::new(KernelKind::E64Lmul8, 1));
    hasher.update(&message);
    assert_eq!(hasher.finalize(), expected);
}
