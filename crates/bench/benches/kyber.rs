//! Wall-clock benches for the Kyber workload (the paper's §5 future
//! work): the three ML-KEM operations per parameter set on the host
//! reference backend and the host-native Keccak tier — the path
//! krvbench's `kyber.op_us_native` times — and ML-KEM-768 through the
//! simulated 6-state vector processor.

use krv_core::{KernelKind, VectorKeccakEngine};
use krv_kyber::{ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, KyberParams};
use krv_native::NativeBackend;
use krv_sha3::{PermutationBackend, ReferenceBackend};
use krv_testkit::Stopwatch;
use std::hint::black_box;

/// Times keygen, encaps and decaps of `params` on `backend`, `iters`
/// operations a run.
fn bench_ml_kem<B: PermutationBackend>(
    tier: &str,
    params: KyberParams,
    iters: u64,
    mut backend: B,
) {
    let name = params.label();
    let (d, z, m) = ([0x42u8; 32], [0x43u8; 32], [0x44u8; 32]);
    let (ek, dk) = ml_kem_keygen(params, &d, &z, &mut backend);
    let (ct, _) = ml_kem_encaps(params, &ek, &m, &mut backend).expect("valid ek");
    let sw = Stopwatch::measure(iters, 3, || {
        black_box(ml_kem_keygen(params, black_box(&d), &z, &mut backend));
    });
    println!("{}", sw.report(&format!("ml_kem_keygen/{tier}/{name}")));
    let sw = Stopwatch::measure(iters, 3, || {
        black_box(ml_kem_encaps(params, black_box(&ek), &m, &mut backend).expect("valid ek"));
    });
    println!("{}", sw.report(&format!("ml_kem_encaps/{tier}/{name}")));
    let sw = Stopwatch::measure(iters, 3, || {
        black_box(ml_kem_decaps(params, black_box(&dk), &ct, &mut backend).expect("valid"));
    });
    println!("{}", sw.report(&format!("ml_kem_decaps/{tier}/{name}")));
}

fn main() {
    for params in KyberParams::ALL {
        bench_ml_kem("host", params, 20, ReferenceBackend::new());
        bench_ml_kem("native", params, 200, NativeBackend::new());
    }
    let engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 6);
    bench_ml_kem("simulated_6state", KyberParams::KYBER768, 5, engine);
}
