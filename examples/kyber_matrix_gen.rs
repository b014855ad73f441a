//! CRYSTALS-Kyber matrix expansion — the workload the paper's
//! introduction motivates its design with — inside an ML-KEM-1024 key
//! generation.
//!
//! ML-KEM-1024 expands a public 4 × 4 matrix **Â** of polynomials from a
//! 32-byte seed ρ: entry (i, j) is sampled by rejection from
//! `SHAKE128(ρ ‖ j ‖ i)`. Because all sixteen XOF calls share the input
//! length, they can run in lockstep — and with the multi-state vector
//! engine, `SN` of them advance per hardware permutation pass. The
//! staged `KemJob` puts them in one round beside the eight SHAKE256
//! streams of the secret and error vectors; this example drives that
//! job round by round on the 6-state engine and checks its keys against
//! the reference backend.
//!
//! Run with: `cargo run --release --example kyber_matrix_gen`

use keccak_rvv::core::{KernelKind, VectorKeccakEngine};
use keccak_rvv::kyber::{ml_kem_keygen, KemJob, KemOp, KemResult, KemStaging, KyberParams};
use keccak_rvv::sha3::{drive_stream, ReferenceBackend, SpongeParams};

fn main() {
    let params = KyberParams::KYBER1024;
    let d = *b"keccak-rvv kyber example seed 01";
    let z = *b"keccak-rvv kyber example seed 02";

    // Every Keccak call on the simulated vector processor with 6
    // resident Keccak states (EleNum = 30).
    let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 6);
    let mut job = KemJob::new(params, KemOp::Keygen { d, z }).expect("keygen never rejects");
    let mut staging = KemStaging::new();
    let sponges = [
        ("SHAKE128", SpongeParams::shake(128)),
        ("SHAKE256", SpongeParams::shake(256)),
        ("SHA3-512", SpongeParams::sha3(512)),
        ("SHA3-256", SpongeParams::sha3(256)),
    ];
    println!("{} keygen on the 6-state engine:", params.label());
    let mut round = 0;
    while !job.is_done() {
        round += 1;
        let counts = sponges.map(|(_, sponge)| {
            let jobs = job.pending().iter();
            jobs.filter(|hash_job| hash_job.params == sponge).count()
        });
        if round == 2 {
            assert_eq!(counts[..2], [16, 8], "Â beside the 2k CBD streams");
        }
        let before = engine.permutations();
        let mut items = Vec::new();
        staging.push_items(job.pending(), &mut items);
        drive_stream(&mut engine, &mut items);
        job.advance(staging.outputs());
        let carried: Vec<String> = sponges
            .iter()
            .zip(counts)
            .filter(|&(_, count)| count > 0)
            .map(|((name, _), count)| format!("{count} {name}"))
            .collect();
        println!(
            "  round {round}: {} -> {} hardware passes",
            carried.join(" + "),
            engine.permutations() - before
        );
    }
    let KemResult::Keygen { ek, dk } = job.into_result() else {
        unreachable!("a keygen job yields keys")
    };
    let reference = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
    assert_eq!(
        (ek.clone(), dk.clone()),
        reference,
        "keys must be backend-independent"
    );

    println!(
        "ek: {} bytes (t̂ ‖ ρ), dk: {} bytes; identical to the reference backend's",
        ek.len(),
        dk.len()
    );
    println!(
        "total hardware permutation passes: {}",
        engine.permutations()
    );
    if let Some(metrics) = engine.last_metrics() {
        println!(
            "each pass: {} cycles, {} of them the permutation, for {} states ({:.3} bits/cycle)",
            metrics.total_cycles,
            metrics.permutation_cycles,
            metrics.states,
            metrics.throughput_bits_per_cycle()
        );
    }
}
