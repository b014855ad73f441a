//! The paper's §5 future work, end to end: FIPS 203 ML-KEM with every
//! Keccak invocation (G, H, J, the SHAKE128 matrix expansion, the
//! SHAKE256 PRF) executed on the simulated SIMD processor with custom
//! vector extensions.

use keccak_rvv::core::{KernelKind, VectorKeccakEngine};
use keccak_rvv::kyber::{ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, KyberParams};
use keccak_rvv::sha3::ReferenceBackend;

#[test]
fn kyber768_keygen_on_the_vector_processor() {
    let (d, z) = ([0xA7u8; 32], [0xA8u8; 32]);
    let params = KyberParams::KYBER768;
    let reference = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
    let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 6);
    let accelerated = ml_kem_keygen(params, &d, &z, &mut engine);
    assert_eq!(reference, accelerated, "keys must be backend-independent");
    assert!(
        engine.permutations() >= 4,
        "matrix + secrets expansion used the hardware ({} passes)",
        engine.permutations()
    );
}

#[test]
fn kyber1024_matrix_uses_six_state_batches() {
    // ML-KEM-1024 expands 16 XOF streams; a 6-state engine covers them in
    // ceil(16/6) = 3 hardware passes per permutation step.
    let (d, z) = ([0x11u8; 32], [0x12u8; 32]);
    let params = KyberParams::KYBER1024;
    let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 6);
    let (ek, dk) = ml_kem_keygen(params, &d, &z, &mut engine);
    assert_eq!(ek.len(), params.ek_len());
    let reference = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
    assert_eq!((ek, dk), reference);
}

#[test]
fn thirty_two_bit_architecture_also_works() {
    let (d, z, m) = ([0xC3u8; 32], [0xC4u8; 32], [0xC5u8; 32]);
    let params = KyberParams::KYBER512;
    let (ek, dk) = ml_kem_keygen(params, &d, &z, ReferenceBackend::new());
    let (ct, shared) = ml_kem_encaps(params, &ek, &m, ReferenceBackend::new()).unwrap();
    let mut engine = VectorKeccakEngine::new(KernelKind::E32Lmul8, 3);
    assert_eq!(
        ml_kem_keygen(params, &d, &z, &mut engine),
        (ek.clone(), dk.clone())
    );
    assert_eq!(
        ml_kem_encaps(params, &ek, &m, &mut engine).unwrap(),
        (ct.clone(), shared)
    );
    assert_eq!(
        ml_kem_decaps(params, &dk, &ct, &mut engine).unwrap(),
        shared
    );
}

#[test]
fn full_pke_round_trip_on_the_vector_processor() {
    // Encaps encrypts under K-PKE and decaps decrypts and re-encrypts, so
    // a recovered secret is a K-PKE round trip on the hardware.
    let params = KyberParams::KYBER768;
    let (d, z) = ([0x3Cu8; 32], [0x3Du8; 32]);
    let m = *b"a secret worth 32 bytes exactly!";
    let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 6);
    let (ek, dk) = ml_kem_keygen(params, &d, &z, &mut engine);
    let (ct, shared) = ml_kem_encaps(params, &ek, &m, &mut engine).unwrap();
    assert_eq!(
        ml_kem_decaps(params, &dk, &ct, &mut engine).unwrap(),
        shared
    );
    // The same ciphertext and secret come out when produced on the host.
    let host = ml_kem_encaps(params, &ek, &m, ReferenceBackend::new()).unwrap();
    assert_eq!((ct, shared), host, "ciphertexts are backend-independent");
}

#[test]
fn keccak_work_per_keygen_is_accounted() {
    // How much device Keccak work one ML-KEM-768 keygen needs: G, the 9
    // XOF streams of the matrix beside the 6 PRF streams (three 6-state
    // passes for the first block, then two per further XOF block), and
    // H(ek) over the 1184-byte key (one pass per absorbed block). The
    // exact count is a stable regression value for the cost model.
    let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 6);
    let _ = ml_kem_keygen(KyberParams::KYBER768, &[1u8; 32], &[2u8; 32], &mut engine);
    let passes = engine.permutations();
    assert!(
        (5..=40).contains(&passes),
        "unexpected hardware pass count {passes}"
    );
    if let Some(metrics) = engine.last_metrics() {
        let total_keccak_cycles = passes * metrics.permutation_cycles;
        // Order of magnitude: tens of thousands of device cycles.
        assert!(total_keccak_cycles > 10_000 && total_keccak_cycles < 200_000);
    }
}
