//! Wall-clock benches for the Kyber workload (the paper's §5 future
//! work): keygen and PKE round trips on the host reference backend and
//! through the simulated vector processor, and the three ML-KEM
//! operations per parameter set on the host-native Keccak tier — the
//! path krvbench's `kyber.op_us_native` times.

use krv_core::{KernelKind, VectorKeccakEngine};
use krv_kyber::{
    decrypt, encrypt, keygen, ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, KyberParams,
};
use krv_native::NativeBackend;
use krv_sha3::ReferenceBackend;
use krv_testkit::Stopwatch;
use std::hint::black_box;

fn bench_keygen() {
    for (name, params) in [
        ("kyber512", KyberParams::KYBER512),
        ("kyber768", KyberParams::KYBER768),
        ("kyber1024", KyberParams::KYBER1024),
    ] {
        let seed = [0x42u8; 32];
        let sw = Stopwatch::measure(5, 3, || {
            black_box(keygen(params, black_box(&seed), ReferenceBackend::new()));
        });
        println!("{}", sw.report(&format!("kyber_keygen/host/{name}")));
    }
    // One simulated configuration.
    let seed = [0x42u8; 32];
    let mut engine = VectorKeccakEngine::new(KernelKind::E64Lmul8, 6);
    let sw = Stopwatch::measure(1, 3, || {
        black_box(keygen(KyberParams::KYBER768, black_box(&seed), &mut engine));
    });
    println!("{}", sw.report("kyber_keygen/simulated_6state/kyber768"));
}

fn bench_pke() {
    let params = KyberParams::KYBER768;
    let keypair = keygen(params, &[7u8; 32], ReferenceBackend::new());
    let message = [0xABu8; 32];
    let sw = Stopwatch::measure(5, 3, || {
        black_box(encrypt(
            params,
            &keypair,
            black_box(&message),
            &[9u8; 32],
            ReferenceBackend::new(),
        ));
    });
    println!("{}", sw.report("kyber_pke/encrypt"));
    let ciphertext = encrypt(
        params,
        &keypair,
        &message,
        &[9u8; 32],
        ReferenceBackend::new(),
    );
    let sw = Stopwatch::measure(20, 3, || {
        black_box(decrypt(params, &keypair, black_box(&ciphertext)));
    });
    println!("{}", sw.report("kyber_pke/decrypt"));
}

fn bench_ml_kem() {
    let mut native = NativeBackend::new();
    for params in KyberParams::ALL {
        let name = params.label();
        let (d, z, m) = ([0x42u8; 32], [0x43u8; 32], [0x44u8; 32]);
        let (ek, dk) = ml_kem_keygen(params, &d, &z, &mut native);
        let (ct, _) = ml_kem_encaps(params, &ek, &m, &mut native).expect("valid ek");
        let sw = Stopwatch::measure(200, 3, || {
            black_box(ml_kem_keygen(params, black_box(&d), &z, &mut native));
        });
        println!("{}", sw.report(&format!("ml_kem_keygen/native/{name}")));
        let sw = Stopwatch::measure(200, 3, || {
            black_box(ml_kem_encaps(params, black_box(&ek), &m, &mut native).expect("valid ek"));
        });
        println!("{}", sw.report(&format!("ml_kem_encaps/native/{name}")));
        let sw = Stopwatch::measure(200, 3, || {
            black_box(ml_kem_decaps(params, black_box(&dk), &ct, &mut native).expect("valid"));
        });
        println!("{}", sw.report(&format!("ml_kem_decaps/native/{name}")));
    }
}

fn main() {
    bench_keygen();
    bench_pke();
    bench_ml_kem();
}
