//! Wall-clock benches for the SHA-3 layer: single-message hashing, XOF
//! squeezing, and the batch API the paper motivates with Kyber.

use krv_sha3::{hash_batch, BatchRequest, ReferenceBackend, Sha3_256, Shake128, SpongeParams, Xof};
use krv_testkit::Stopwatch;
use std::hint::black_box;

fn bench_sha3_digest() {
    for size in [64usize, 1024, 65536] {
        let message = vec![0xA5u8; size];
        let sw = Stopwatch::measure(if size > 4096 { 50 } else { 500 }, 5, || {
            black_box(Sha3_256::digest(black_box(&message)));
        });
        println!(
            "{}  ({:.1} MB/s)",
            sw.report(&format!("sha3_256/{size}")),
            sw.per_second(size as f64) / 1e6
        );
    }
}

fn bench_shake_squeeze() {
    for out_len in [168usize, 1344] {
        let sw = Stopwatch::measure(200, 5, || {
            let mut xof = Shake128::new();
            xof.update(b"seed material");
            black_box(xof.squeeze(out_len));
        });
        println!(
            "{}  ({:.1} MB/s)",
            sw.report(&format!("shake128_squeeze/{out_len}")),
            sw.per_second(out_len as f64) / 1e6
        );
    }
}

/// Batch hashing vs hashing the members one by one — the code path a
/// multi-state hardware backend accelerates.
fn bench_batch() {
    let inputs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 136]).collect();
    let sw = Stopwatch::measure(200, 5, || {
        let requests: Vec<BatchRequest<'_>> = inputs
            .iter()
            .map(|v| BatchRequest::new(black_box(v), 168))
            .collect();
        black_box(hash_batch(
            SpongeParams::shake(128),
            ReferenceBackend::new(),
            &requests,
        ));
    });
    println!("{}", sw.report("batch_vs_sequential/batch6"));
    let sw = Stopwatch::measure(200, 5, || {
        let out: Vec<Vec<u8>> = inputs
            .iter()
            .map(|input| {
                let mut xof = Shake128::new();
                xof.update(black_box(input));
                xof.squeeze(168)
            })
            .collect();
        black_box(out);
    });
    println!("{}", sw.report("batch_vs_sequential/sequential6"));
}

fn main() {
    bench_sha3_digest();
    bench_shake_squeeze();
    bench_batch();
}
