//! The single dispatch path under mixed work: one batch holding one-shot
//! hashes of two sponge parameter sets, a stream operation and an
//! ML-KEM keygen goes through the same supervision (retry once on a lost
//! worker) and the same mirror oracle (and corruption drill) in every
//! lane.

use krv_kyber::{ml_kem_keygen, KemResult, KyberParams};
use krv_service::{
    HashRequest, KemRequest, MetricsSnapshot, Service, ServiceConfig, StreamRequest, TierPolicy,
};
use krv_sha3::{
    drive_stream, ReferenceBackend, Sha3_256, Shake128, Shake256, SpongeParams, SpongeState,
    StreamItem, StreamOp,
};
use std::time::Duration;

const STREAM_PREFIX: &[u8] = b"a stream operation";
const STREAM_LEN: usize = 64;
const KEM_D: [u8; 32] = [0x2D; 32];
const KEM_Z: [u8; 32] = [0xD2; 32];

/// Two workers of `SN = 2`: four slots, so the four requests below close
/// exactly one batch, and a batch closes only when all four are queued.
fn four_slot_config(tier: TierPolicy) -> ServiceConfig {
    ServiceConfig {
        sn: 2,
        workers: 2,
        max_wait: Duration::from_secs(2),
        tier,
        ..ServiceConfig::default()
    }
}

/// What one mixed batch answered.
struct Answers {
    sha3: Vec<u8>,
    shake: Vec<u8>,
    stream_state: SpongeState,
    stream_output: Vec<u8>,
    kem: KemResult,
    report: MetricsSnapshot,
}

/// A SHAKE256 state that has absorbed the stream prefix, so the batch's
/// stream operation starts mid-session.
fn session_state() -> SpongeState {
    let mut state = SpongeState::new(SpongeParams::shake(256));
    let mut items = [StreamItem {
        state: &mut state,
        op: StreamOp::absorb(STREAM_PREFIX),
    }];
    drive_stream(&mut ReferenceBackend::new(), &mut items);
    state
}

/// Submits the four requests of one mixed batch and collects the answers
/// and the final report. `prepare` runs on the service before anything is
/// submitted (to arm a drill).
fn run_mixed_batch(config: ServiceConfig, prepare: impl FnOnce(&Service)) -> Answers {
    let service = Service::start(config);
    prepare(&service);
    let sha3 = service
        .submit(HashRequest::sha3_256(b"one-shot sha3".to_vec()))
        .expect("admitted");
    let shake = service
        .submit(HashRequest::shake128(b"one-shot shake".to_vec(), 200))
        .expect("admitted");
    let stream = service
        .submit_stream(StreamRequest::finalize(
            Box::new(session_state()),
            Vec::new(),
            STREAM_LEN,
        ))
        .expect("admitted");
    let kem = service
        .submit_kem(KemRequest::keygen(KyberParams::KYBER512, KEM_D, KEM_Z))
        .expect("admitted");

    let sha3 = sha3.wait();
    let shake = shake.wait();
    let stream = stream.wait();
    let kem = kem.wait();
    for timing in [sha3.timing, shake.timing, stream.timing, kem.timing] {
        assert_eq!(timing.batch_size, 4, "all four requests rode one batch");
    }
    let stream = stream.result.expect("stream operation served");
    Answers {
        sha3: sha3.result.expect("sha3 served"),
        shake: shake.result.expect("shake served"),
        stream_state: *stream.state,
        stream_output: stream.output,
        kem: kem.result.expect("keygen served"),
        report: service.shutdown(),
    }
}

/// Asserts every answer is byte-identical to the library's.
fn assert_library_answers(answers: &Answers) {
    assert_eq!(answers.sha3, Sha3_256::digest(b"one-shot sha3"));
    assert_eq!(answers.shake, Shake128::digest(b"one-shot shake", 200));
    let mut state = session_state();
    let mut output = vec![0u8; STREAM_LEN];
    let mut items = [StreamItem {
        state: &mut state,
        op: StreamOp {
            absorb: &[],
            finalize: true,
            squeeze: &mut output,
        },
    }];
    drive_stream(&mut ReferenceBackend::new(), &mut items);
    assert_eq!(answers.stream_output, output);
    assert_eq!(
        answers.stream_output,
        Shake256::digest(STREAM_PREFIX, STREAM_LEN)
    );
    assert_eq!(answers.stream_state, state);
    let (ek, dk) = ml_kem_keygen(
        KyberParams::KYBER512,
        &KEM_D,
        &KEM_Z,
        ReferenceBackend::new(),
    );
    assert_eq!(answers.kem, KemResult::Keygen { ek, dk });
}

#[test]
fn worker_loss_is_retried_once_across_every_lane() {
    let answers = run_mixed_batch(four_slot_config(TierPolicy::simulator()), |service| {
        service.inject_worker_failure(1);
    });
    assert_library_answers(&answers);
    let report = &answers.report;
    assert_eq!(report.completed, 4);
    assert_eq!(report.retries, 1, "the dispatch that met the dead worker");
    assert_eq!(report.worker_failures, 0);
    assert_eq!(report.alive_workers, 1);
}

#[test]
fn corrupted_native_primary_mismatches_in_every_lane() {
    let policy = TierPolicy::native().with_mirror_every(1);
    let answers = run_mixed_batch(four_slot_config(policy), |service| {
        service.inject_native_corruption();
    });
    let report = &answers.report;
    assert_eq!(report.completed, 4);
    let items = 2 + 1 + report.kem_hash_jobs;
    assert_eq!(
        report.mirrored, items,
        "every one-shot, stream op and KEM hash"
    );
    assert_eq!(
        report.mirror_mismatches, items,
        "every mirrored item disagrees"
    );
}

#[test]
fn clean_native_primary_mirrors_every_lane_without_mismatches() {
    let policy = TierPolicy::native().with_mirror_every(1);
    let answers = run_mixed_batch(four_slot_config(policy), |_| {});
    assert_library_answers(&answers);
    let report = &answers.report;
    assert_eq!(report.completed, 4);
    assert_eq!(report.native_served, 4);
    assert_eq!(report.mirrored, 2 + 1 + report.kem_hash_jobs);
    assert_eq!(report.mirror_mismatches, 0);
}
