//! The streaming lane end to end through the service: chunked sessions
//! must squeeze exactly the bytes the one-shot functions produce, at
//! every chunk split; stream bytes must count against fair-share
//! admission; and the stream mirror oracle must catch a corrupted
//! native tier.

use krv_service::{
    HashRequest, Request, RequestError, Service, ServiceConfig, StreamRequest, SubmitError,
    TierPolicy,
};
use krv_sha3::sp800_185::{cshake_params, kmac256, kmac_stream_prefix, output_length_suffix};
use krv_sha3::{Sha3_256, Shake256, SpongeParams, SpongeState};
use std::time::Duration;

fn fast_config() -> ServiceConfig {
    ServiceConfig {
        max_wait: Duration::from_micros(200),
        ..ServiceConfig::default()
    }
}

/// Runs one whole session through the service: absorb `prefix`, absorb
/// the message in `split`-byte chunks, finalize with `suffix`, then
/// squeeze `output_len` bytes across two SQUEEZE operations.
fn run_session(
    service: &Service,
    params: SpongeParams,
    prefix: &[u8],
    message: &[u8],
    split: usize,
    suffix: &[u8],
    output_len: usize,
) -> Vec<u8> {
    let mut state = Box::new(SpongeState::new(params));
    let absorb = |state: Box<SpongeState>, chunk: &[u8]| -> Box<SpongeState> {
        let done = service
            .submit_stream(StreamRequest::absorb(state, chunk))
            .expect("admitted")
            .wait();
        done.result.expect("absorb succeeds").state
    };
    if !prefix.is_empty() {
        state = absorb(state, prefix);
    }
    for chunk in message.chunks(split.max(1)) {
        state = absorb(state, chunk);
    }
    let first = output_len / 2;
    let done = service
        .submit_stream(StreamRequest::finalize(state, suffix, first))
        .expect("admitted")
        .wait();
    let out = done.result.expect("finalize succeeds");
    let mut output = out.output;
    let done = service
        .submit_stream(StreamRequest::squeeze(out.state, output_len - first))
        .expect("admitted")
        .wait();
    let out = done.result.expect("squeeze succeeds");
    output.extend_from_slice(&out.output);
    output
}

#[test]
fn streamed_sessions_match_oneshot_at_every_split() {
    let service = Service::start(fast_config());
    let message: Vec<u8> = (0..301u32).map(|i| (i * 31 % 251) as u8).collect();
    let rate = SpongeParams::sha3(256).rate_bytes();
    for split in [1, 7, rate - 1, rate, rate + 1, message.len()] {
        let digest = run_session(
            &service,
            SpongeParams::sha3(256),
            &[],
            &message,
            split,
            &[],
            32,
        );
        assert_eq!(digest, Sha3_256::digest(&message), "sha3-256 split {split}");
        let xof = run_session(
            &service,
            SpongeParams::shake(256),
            &[],
            &message,
            split,
            &[],
            64,
        );
        assert_eq!(
            xof,
            Shake256::digest(&message, 64),
            "shake256 split {split}"
        );
    }
    let report = service.shutdown();
    assert!(report.stream_ops > 0);
    assert_eq!(report.completed, report.stream_ops, "all traffic streamed");
    assert_eq!(report.worker_failures, 0);
}

#[test]
fn streamed_kmac_matches_the_oneshot_wrapper() {
    let service = Service::start(fast_config());
    let key: Vec<u8> = (0x40..0x60).collect();
    let custom = b"My Tagged Application";
    let message: Vec<u8> = (0..200u8).collect();
    let params = cshake_params(256, b"KMAC", custom);
    let prefix = kmac_stream_prefix(256, &key, custom);
    let suffix = output_length_suffix(64);
    for split in [1, 64, 136, 137] {
        let mac = run_session(&service, params, &prefix, &message, split, &suffix, 64);
        assert_eq!(
            mac,
            kmac256(&key, &message, 64, custom),
            "kmac256 split {split}"
        );
    }
    service.shutdown();
}

#[test]
fn streams_and_oneshots_share_the_service() {
    let service = Service::start(fast_config());
    let message: Vec<u8> = (0..500u16).map(|i| (i % 256) as u8).collect();
    // Interleave: a streaming session advances while one-shot tickets
    // ride the same batches.
    let mut state = Box::new(SpongeState::new(SpongeParams::sha3(256)));
    let mut oneshots = Vec::new();
    for chunk in message.chunks(100) {
        oneshots.push(
            service
                .submit(HashRequest::sha3_256(chunk.to_vec()))
                .unwrap(),
        );
        let done = service
            .submit_stream(StreamRequest::absorb(state, chunk))
            .unwrap()
            .wait();
        state = done.result.expect("absorb").state;
    }
    let done = service
        .submit_stream(StreamRequest::finalize(state, Vec::new(), 32))
        .unwrap()
        .wait();
    assert_eq!(
        done.result.expect("finalize").output,
        Sha3_256::digest(&message)
    );
    for (ticket, chunk) in oneshots.into_iter().zip(message.chunks(100)) {
        assert_eq!(
            ticket.wait().result.expect("served"),
            Sha3_256::digest(chunk)
        );
    }
    let report = service.shutdown();
    assert_eq!(report.stream_ops, 6);
    assert_eq!(report.completed, 11, "5 one-shots + 6 stream ops");
    assert_eq!(report.stream_absorbed, 500, "every message byte counted");
    assert_eq!(report.stream_squeezed, 32);
}

#[test]
fn stream_bytes_count_against_fair_share() {
    // fair_share = 4 units; a big absorb chunk holds
    // 1 + len/FAIR_SHARE_UNIT units, so one 256 KiB chunk (5 units,
    // admitted while the client is idle) immediately throttles the next
    // operation, while a 1-byte op costs a single unit.
    let big = vec![0u8; 4 * StreamRequest::FAIR_SHARE_UNIT];
    let request = StreamRequest::absorb(Box::new(SpongeState::new(SpongeParams::sha3(256))), big);
    assert_eq!(request.fair_share_cost(), 5);
    assert_eq!(
        StreamRequest::squeeze(request.state.clone(), 32).fair_share_cost(),
        1
    );

    let service = Service::start(ServiceConfig {
        fair_share: Some(4),
        // A long window so the queue holds both submissions.
        max_wait: Duration::from_secs(5),
        ..ServiceConfig::default()
    });
    let big = vec![0u8; 4 * StreamRequest::FAIR_SHARE_UNIT];
    let state = Box::new(SpongeState::new(SpongeParams::sha3(256)));
    let ticket = service
        .submit_as(7, StreamRequest::absorb(state, big))
        .expect("an idle client's oversized op still admits");
    let refused = service.submit_as(7, HashRequest::sha3_256(b"more"));
    assert_eq!(
        refused.unwrap_err(),
        SubmitError::ClientThrottled { client: 7, held: 5 }
    );
    // Another client is unaffected.
    let other = service
        .submit_as(8, HashRequest::sha3_256(b"other"))
        .expect("fair share is per client");
    service.close();
    assert!(ticket.wait().result.is_ok());
    assert!(other.wait().result.is_ok());
    let report = service.shutdown();
    assert_eq!(report.throttled, 1);
}

#[test]
fn stream_mirror_oracle_catches_native_corruption() {
    let service = Service::start(ServiceConfig {
        tier: TierPolicy::native().with_mirror_every(1),
        max_wait: Duration::from_micros(200),
        ..ServiceConfig::default()
    });
    service.inject_native_corruption();
    let state = Box::new(SpongeState::new(SpongeParams::sha3(256)));
    let done = service
        .submit_stream(StreamRequest::finalize(state, *b"abc", 32))
        .unwrap()
        .wait();
    let out = done.result.expect("corruption is not a failure");
    assert_ne!(out.output, Sha3_256::digest(b"abc"), "output was corrupted");
    let report = service.shutdown();
    assert!(report.mirrored >= 1);
    assert!(
        report.mirror_mismatches >= 1,
        "the stream mirror oracle latched the corruption"
    );
}

#[test]
fn clean_stream_mirroring_reports_no_mismatches() {
    let service = Service::start(ServiceConfig {
        tier: TierPolicy::native().with_mirror_every(1),
        max_wait: Duration::from_micros(200),
        ..ServiceConfig::default()
    });
    let message: Vec<u8> = (0..250u8).collect();
    let digest = run_session(
        &service,
        SpongeParams::sha3(256),
        &[],
        &message,
        50,
        &[],
        32,
    );
    assert_eq!(digest, Sha3_256::digest(&message));
    let report = service.shutdown();
    assert!(report.mirrored >= 1);
    assert_eq!(report.mirror_mismatches, 0);
}

#[test]
fn expired_stream_deadline_times_out_and_loses_the_session() {
    let service = Service::start(fast_config());
    let state = Box::new(SpongeState::new(SpongeParams::sha3(256)));
    let done = service
        .submit_stream(StreamRequest::absorb(state, *b"chunk").with_deadline(Duration::ZERO))
        .unwrap()
        .wait();
    assert_eq!(done.result, Err(RequestError::TimedOut));
    let report = service.shutdown();
    assert_eq!(report.timeouts, 1);
    assert_eq!(report.stream_ops, 0, "timed-out ops are not stream_ops");
}
