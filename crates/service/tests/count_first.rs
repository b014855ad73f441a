//! Count first, complete after: a ticket's callback that reads the
//! service's metrics must find its own request already counted, for
//! every outcome a batch can give — served in the first round, served
//! in a later round, expired at batch formation, or refused by input
//! validation.

use krv_kyber::KyberParams;
use krv_service::{
    HashRequest, KemRequest, MetricsSnapshot, Service, ServiceConfig, StreamRequest,
};
use krv_sha3::{SpongeParams, SpongeState};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn callbacks_find_their_own_completion_counted() {
    // Five slots and a long window: the batch closes exactly when the
    // fifth request (the keygen) is admitted.
    let service = Arc::new(Service::start(ServiceConfig {
        sn: 5,
        workers: 1,
        max_wait: Duration::from_secs(30),
        ..ServiceConfig::default()
    }));
    let (sender, receiver) = mpsc::channel::<(&'static str, bool, MetricsSnapshot)>();
    // Each callback holds its own handle on the service; the test body
    // keeps the original, so no callback drops the last one on the
    // scheduler thread.
    let watch = |label: &'static str| {
        let service = Arc::clone(&service);
        let sender = sender.clone();
        move |served: bool| {
            let metrics = service.metrics();
            sender
                .send((label, served, metrics))
                .expect("receiver alive");
        }
    };

    let expired = watch("expired");
    service
        .submit(HashRequest::sha3_256(b"too late".to_vec()).with_deadline(Duration::ZERO))
        .expect("admitted")
        .on_complete(move |completion| expired(completion.result.is_ok()));
    let invalid = watch("invalid");
    service
        .submit_kem(KemRequest::encaps(
            KyberParams::KYBER512,
            vec![0u8; 17],
            [3; 32],
        ))
        .expect("admitted")
        .on_complete(move |completion| invalid(completion.result.is_ok()));
    let one_shot = watch("one-shot");
    service
        .submit(HashRequest::sha3_256(b"served".to_vec()))
        .expect("admitted")
        .on_complete(move |completion| one_shot(completion.result.is_ok()));
    let stream = watch("stream");
    let state = Box::new(SpongeState::new(SpongeParams::shake(256)));
    service
        .submit_stream(StreamRequest::finalize(state, b"stream".to_vec(), 32))
        .expect("admitted")
        .on_complete(move |completion| stream(completion.result.is_ok()));
    let keygen = watch("keygen");
    service
        .submit_kem(KemRequest::keygen(KyberParams::KYBER512, [1; 32], [2; 32]))
        .expect("admitted")
        .on_complete(move |completion| keygen(completion.result.is_ok()));

    let seen: Vec<_> = (0..5)
        .map(|_| {
            receiver
                .recv_timeout(Duration::from_secs(20))
                .expect("every callback runs")
        })
        .collect();
    let order: Vec<&str> = seen.iter().map(|(label, _, _)| *label).collect();
    assert_eq!(
        order,
        ["expired", "invalid", "one-shot", "stream", "keygen"],
        "batch formation, then round 1, then the keygen's last round"
    );

    let mut served = 0;
    for (label, ok, metrics) in &seen {
        assert_eq!(metrics.batches, 1, "{label}: its batch is counted");
        match *label {
            "expired" => {
                assert!(!ok);
                assert_eq!(metrics.timeouts, 1, "{label}: counted as a timeout");
            }
            "invalid" => {
                assert!(!ok);
                assert_eq!(metrics.kem_invalid, 1, "{label}: counted as invalid");
            }
            _ => {
                assert!(ok, "{label} is served");
                served += 1;
                assert!(
                    metrics.completed >= served,
                    "{label}: completed {} < {served}",
                    metrics.completed
                );
                assert!(
                    metrics.e2e_ns.count >= served,
                    "{label}: e2e count {} < {served}",
                    metrics.e2e_ns.count
                );
            }
        }
    }

    let report = service.metrics();
    assert_eq!(report.completed, 3);
    assert_eq!(report.timeouts, 1);
    assert_eq!(report.kem_invalid, 1);
}
