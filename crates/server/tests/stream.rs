//! Streaming-session properties over real sockets: a streamed hash
//! equals its one-shot at **every** chunk split, for absorb and for
//! squeeze, across the FIPS and SP 800-185 wire algorithms; tree
//! sessions agree with the scalar reference under any chunking, run as
//! one service request whose leaves ride the batch scheduler as items,
//! and stop at the configured leaf cap.

use krv_server::{
    AlgorithmParams, Client, ClientError, ErrorCode, RemoteError, Server, ServerConfig,
    WireAlgorithm,
};
use krv_service::{ServiceConfig, TierPolicy};
use krv_sha3::sp800_185::{kmac256, tuple_hash128, CShake128};
use krv_sha3::tree::{krv_tree_hash256, parallel_hash256};
use krv_sha3::{Sha3_256, Shake256};
use std::time::Duration;

fn quick_server() -> Server {
    let config = ServerConfig {
        service: ServiceConfig {
            max_wait: Duration::from_micros(200),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", config).expect("bind ephemeral port")
}

/// A deterministic test message: the conformance pattern bytes.
fn pattern(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((167 * i + 31 * len + 13) & 0xFF) as u8)
        .collect()
}

/// Streams `message` through one session split into `head`/`tail` at
/// `at`, returning the squeezed digest.
fn stream_split(
    client: &Client,
    algorithm: WireAlgorithm,
    params: AlgorithmParams,
    message: &[u8],
    at: usize,
    output_len: usize,
) -> Vec<u8> {
    let session = client.open_session(algorithm, params).expect("open");
    session.absorb(&message[..at]).expect("absorb head");
    session.absorb(&message[at..]).expect("absorb tail");
    // XOFs take an open-ended finalize (budget 0); everything else pins
    // its output length at finalize time.
    let budget = match algorithm {
        WireAlgorithm::Shake128
        | WireAlgorithm::Shake256
        | WireAlgorithm::CShake128
        | WireAlgorithm::CShake256 => 0,
        _ => output_len,
    };
    session.finalize(budget).expect("finalize");
    let digest = session.squeeze(output_len).expect("squeeze");
    session.close().expect("close");
    digest
}

#[test]
fn streamed_absorb_matches_the_oneshot_at_every_split() {
    let server = quick_server();
    let client = Client::connect(server.local_addr()).expect("connect");
    // 200 bytes spans the SHAKE256/cSHAKE128 rate boundaries, so the
    // splits cover intra-block, exactly-at-rate and cross-block chunks.
    let message = pattern(200);
    let key = b"stream split key";
    let sha3 = Sha3_256::digest(&message).to_vec();
    let shake = Shake256::digest(&message, 32);
    let cshake = CShake128::digest(b"KRV", b"split", &message, 32);
    let kmac = kmac256(key, &message, 32, b"split");
    for at in 0..=message.len() {
        let got = stream_split(
            &client,
            WireAlgorithm::Sha3_256,
            AlgorithmParams::none(),
            &message,
            at,
            32,
        );
        assert_eq!(got, sha3, "SHA3-256 split at {at}");
        let got = stream_split(
            &client,
            WireAlgorithm::Shake256,
            AlgorithmParams::none(),
            &message,
            at,
            32,
        );
        assert_eq!(got, shake, "SHAKE256 split at {at}");
        let got = stream_split(
            &client,
            WireAlgorithm::CShake128,
            AlgorithmParams::cshake(b"KRV", b"split"),
            &message,
            at,
            32,
        );
        assert_eq!(got, cshake, "cSHAKE128 split at {at}");
        let got = stream_split(
            &client,
            WireAlgorithm::Kmac256,
            AlgorithmParams::kmac(&key[..], &b"split"[..]),
            &message,
            at,
            32,
        );
        assert_eq!(got, kmac, "KMAC256 split at {at}");
    }
    server.shutdown();
}

#[test]
fn streamed_squeeze_matches_the_oneshot_at_every_split() {
    let server = quick_server();
    let client = Client::connect(server.local_addr()).expect("connect");
    let message = pattern(77);
    let expected = Shake256::digest(&message, 96);
    for at in 0..=expected.len() {
        let session = client
            .open_session(WireAlgorithm::Shake256, AlgorithmParams::none())
            .expect("open");
        session.absorb(&message).expect("absorb");
        session.finalize(0).expect("finalize");
        let mut streamed = session.squeeze(at).expect("first squeeze");
        streamed.extend(
            session
                .squeeze(expected.len() - at)
                .expect("second squeeze"),
        );
        session.close().expect("close");
        assert_eq!(streamed, expected, "SHAKE256 squeeze split at {at}");
    }
    server.shutdown();
}

#[test]
fn tuple_sessions_absorb_one_entry_per_chunk() {
    let server = quick_server();
    let client = Client::connect(server.local_addr()).expect("connect");
    // Each ABSORB frame is one tuple entry, including the empty one —
    // the defining property that distinguishes TupleHash streaming from
    // plain concatenation.
    let entries: [&[u8]; 4] = [b"first", b"", b"third entry", &[0xAB; 300]];
    let expected = tuple_hash128(&entries, 32, b"tuple");
    let session = client
        .open_session(
            WireAlgorithm::TupleHash128,
            AlgorithmParams::customization(&b"tuple"[..]),
        )
        .expect("open");
    let mut pending = Vec::new();
    for entry in entries {
        pending.push(session.submit_absorb(entry).expect("absorb entry"));
    }
    for reply in pending {
        reply.wait().expect("absorb ack");
    }
    session.finalize(32).expect("finalize");
    let digest = session.squeeze(32).expect("squeeze");
    session.close().expect("close");
    assert_eq!(digest, expected);
    server.shutdown();
}

#[test]
fn tree_sessions_match_the_reference_under_any_chunking() {
    let server = quick_server();
    let client = Client::connect(server.local_addr()).expect("connect");
    // Chunk sizes straddling the 4096-byte block: sub-block, prime,
    // exactly-block and whole-message chunks all land identically, and
    // a two-block message in block-sized chunks leaves no open leaf.
    let long = pattern(10_000);
    let blocks = pattern(8192);
    let inputs = [
        (&long, 997usize),
        (&long, 4096),
        (&long, 5000),
        (&long, 10_000),
        (&blocks, 4096),
    ];
    for (message, chunk) in inputs {
        let session = client
            .open_session(WireAlgorithm::TreeHash256, AlgorithmParams::none())
            .expect("open");
        for piece in message.chunks(chunk) {
            session.absorb(piece).expect("absorb");
        }
        session.finalize(32).expect("finalize");
        let digest = session.squeeze(32).expect("squeeze");
        session.close().expect("close");
        let expected = krv_tree_hash256(message, 32, b"");
        assert_eq!(
            digest,
            expected,
            "{} bytes chunked at {chunk}",
            message.len()
        );
    }
    let message = long;
    // The empty message has zero leaves (SP 800-185 §6.2 step 1): the
    // root absorbs only its framing.
    let session = client
        .open_session(WireAlgorithm::TreeHash256, AlgorithmParams::none())
        .expect("open");
    session.finalize(32).expect("finalize");
    let digest = session.squeeze(32).expect("squeeze");
    session.close().expect("close");
    assert_eq!(digest, krv_tree_hash256(b"", 32, b""));
    // ParallelHash256 streams through the same tree machinery with a
    // caller-chosen block size.
    let expected = parallel_hash256(&message, 512, 64, b"par");
    let session = client
        .open_session(
            WireAlgorithm::ParallelHash256,
            AlgorithmParams::parallel_hash(512, &b"par"[..]),
        )
        .expect("open");
    for piece in message.chunks(300) {
        session.absorb(piece).expect("absorb");
    }
    session.finalize(64).expect("finalize");
    let digest = session.squeeze(64).expect("squeeze");
    session.close().expect("close");
    assert_eq!(digest, expected);
    server.shutdown();
}

#[test]
fn tree_leaves_ride_the_batch_scheduler() {
    // Mirroring every round counts the items each round carries.
    let config = ServerConfig {
        service: ServiceConfig {
            max_wait: Duration::from_micros(200),
            tier: TierPolicy::native().with_mirror_every(1),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let client = Client::connect(server.local_addr()).expect("connect");
    let before = client.stats().expect("stats before");
    // 16 full blocks: one wire request is one service submission, whose
    // first round carries the 16 leaves beside the root and whose second
    // folds their digests.
    let message = pattern(16 * 4096);
    let digest = client
        .hash_with(
            WireAlgorithm::TreeHash256,
            AlgorithmParams::none(),
            &message,
            32,
        )
        .expect("tree digest");
    assert_eq!(digest, krv_tree_hash256(&message, 32, b""));
    let after = client.stats().expect("stats after");
    assert_eq!(
        after.submitted - before.submitted,
        1,
        "one tree, one request"
    );
    assert_eq!(
        after.mirrored - before.mirrored,
        16 + 1 + 1,
        "16 leaves and the root, then the root's fold, mirrored item by item"
    );
    assert_eq!(after.mirror_mismatches, 0);
    server.shutdown();
}

/// The server's answer to a session frame, as a remote error code.
fn remote_code<T: std::fmt::Debug>(result: Result<T, ClientError>) -> ErrorCode {
    match result {
        Err(ClientError::Remote(RemoteError { code, .. })) => code,
        other => panic!("expected a remote error, got {other:?}"),
    }
}

#[test]
fn the_tree_leaf_cap_refuses_one_byte_more() {
    let config = ServerConfig {
        service: ServiceConfig {
            max_wait: Duration::from_micros(200),
            ..ServiceConfig::default()
        },
        max_tree_leaves: 4,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let client = Client::connect(server.local_addr()).expect("connect");
    let open = || {
        client
            .open_session(WireAlgorithm::TreeHash256, AlgorithmParams::none())
            .expect("open")
    };
    let message = pattern(4 * 4096 + 1);
    let (full, extra) = message.split_at(4 * 4096);

    // Four blocks fill the cap exactly.
    let session = open();
    session
        .absorb(full)
        .expect("four leaves are within the cap");
    session.finalize(32).expect("finalize");
    assert_eq!(
        session.squeeze(32).expect("squeeze"),
        krv_tree_hash256(full, 32, b"")
    );
    session.close().expect("close");

    // One more byte needs a fifth leaf: SESSION_LIMIT poisons the
    // session, CLOSE still frees it, and the connection keeps serving.
    let session = open();
    session
        .absorb(full)
        .expect("four leaves are within the cap");
    assert_eq!(remote_code(session.absorb(extra)), ErrorCode::SessionLimit);
    assert_eq!(remote_code(session.finalize(32)), ErrorCode::SessionLimit);
    session.close().expect("close");
    assert_eq!(
        client
            .digest(WireAlgorithm::Sha3_256, b"still serving")
            .expect("hash"),
        Sha3_256::digest(b"still serving").to_vec()
    );

    // A five-block one-shot is refused the same way.
    let oneshot = client.hash_with(
        WireAlgorithm::TreeHash256,
        AlgorithmParams::none(),
        &pattern(5 * 4096),
        32,
    );
    assert_eq!(remote_code(oneshot), ErrorCode::SessionLimit);
    server.shutdown();
}

#[test]
fn interleaved_sessions_on_one_socket_stay_independent() {
    let server = quick_server();
    let client = Client::connect(server.local_addr()).expect("connect");
    // Both messages cover exactly five chunks at their chunk sizes, so
    // the zip below absorbs each fully, strictly interleaved.
    let (a_msg, b_msg) = (pattern(450), pattern(333));
    let a = client
        .open_session(WireAlgorithm::Shake256, AlgorithmParams::none())
        .expect("open a");
    let b = client
        .open_session(WireAlgorithm::Sha3_256, AlgorithmParams::none())
        .expect("open b");
    for (ca, cb) in a_msg.chunks(100).zip(b_msg.chunks(67)) {
        a.absorb(ca).expect("absorb a");
        b.absorb(cb).expect("absorb b");
    }
    a.finalize(0).expect("finalize a");
    b.finalize(32).expect("finalize b");
    let da = a.squeeze(32).expect("squeeze a");
    let db = b.squeeze(32).expect("squeeze b");
    a.close().expect("close a");
    b.close().expect("close b");
    assert_eq!(da, Shake256::digest(&a_msg, 32));
    assert_eq!(db, Sha3_256::digest(&b_msg).to_vec());
    server.shutdown();
}

/// The headline acceptance run: a 256 MiB message streamed over TCP in
/// 1 MiB wire chunks matches the in-process one-shot for SHA3-256,
/// SHAKE256 (with the squeeze itself streamed), KMAC256 and the KRV
/// tree-hash. Server memory stays bounded: flat sessions carry a sponge
/// state (200 bytes) between chunks and tree sessions two (the root and
/// the open leaf) — never the message.
///
/// Ignored by default (it hashes 2 GiB of traffic end to end); run with
/// `cargo test --release -p krv-server --test stream -- --ignored`.
#[test]
#[ignore = "256 MiB end-to-end run; use --release"]
fn a_256_mib_message_streams_correctly_over_tcp() {
    const MIB: usize = 1 << 20;
    let server = quick_server();
    let client = Client::connect(server.local_addr()).expect("connect");
    let message = pattern(256 * MIB);
    let key = b"acceptance key..";

    let cases: [(WireAlgorithm, AlgorithmParams, usize, Vec<u8>); 4] = [
        (
            WireAlgorithm::Sha3_256,
            AlgorithmParams::none(),
            32,
            Sha3_256::digest(&message).to_vec(),
        ),
        (
            WireAlgorithm::Shake256,
            AlgorithmParams::none(),
            64,
            Shake256::digest(&message, 64),
        ),
        (
            WireAlgorithm::Kmac256,
            AlgorithmParams::kmac(&key[..], &b"acceptance"[..]),
            32,
            kmac256(key, &message, 32, b"acceptance"),
        ),
        (
            WireAlgorithm::TreeHash256,
            AlgorithmParams::none(),
            32,
            krv_tree_hash256(&message, 32, b""),
        ),
    ];
    for (algorithm, params, output_len, expected) in cases {
        let session = client.open_session(algorithm, params).expect("open");
        for chunk in message.chunks(MIB) {
            session.absorb(chunk).expect("absorb 1 MiB chunk");
        }
        let fixed = algorithm.fixed_output_len().is_some()
            || matches!(
                algorithm,
                WireAlgorithm::Kmac256 | WireAlgorithm::TreeHash256
            );
        session
            .finalize(if fixed { output_len } else { 0 })
            .expect("finalize");
        // Stream the squeeze too: two uneven pulls.
        let mut digest = session.squeeze(output_len / 3).expect("squeeze head");
        digest.extend(
            session
                .squeeze(output_len - output_len / 3)
                .expect("squeeze tail"),
        );
        session.close().expect("close");
        assert_eq!(digest, expected, "{} over 256 MiB", algorithm.name());
    }
    server.shutdown();
}
