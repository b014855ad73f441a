//! Protocol robustness fuzz: malformed frames against the decoder and
//! against a live daemon socket.
//!
//! Two layers, both SplitMix64-seeded and reproducible:
//!
//! * the **decoder** must answer every mutation of a valid frame —
//!   truncation, bit flips, wrong magic, wrong version, length-field
//!   corruption, pure garbage — with a typed [`ProtocolError`] or a
//!   valid decode, never a panic;
//! * a **live server** fed the same malformations must close the
//!   offending connection (promptly — a hang fails the test) and keep
//!   serving fresh connections; the daemon never dies.
//!
//! A failing case shrinks via `krv_testkit::shrink` to a minimal byte
//! string before it is reported.

use krv_server::protocol::{
    encode_tuple_payload, read_frame, write_frame, DEFAULT_MAX_FRAME, MAX_CHUNK_LEN,
};
use krv_server::{
    AlgorithmParams, Client, ErrorCode, Request, Response, Server, ServerConfig, WireAlgorithm,
};
use krv_service::ServiceConfig;
use krv_sha3::{Sha3_256, Shake256};
use krv_testkit::{shrink, CaseReport, Rng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A well-formed params block for an algorithm (FIPS ids take none).
fn valid_params(algorithm: WireAlgorithm) -> AlgorithmParams {
    match algorithm {
        WireAlgorithm::CShake128 | WireAlgorithm::CShake256 => {
            AlgorithmParams::cshake(&b"Fuzz"[..], &b"ctx"[..])
        }
        WireAlgorithm::Kmac128 | WireAlgorithm::Kmac256 => {
            AlgorithmParams::kmac(&b"fuzz key material"[..], &b""[..])
        }
        WireAlgorithm::TupleHash128 | WireAlgorithm::TupleHash256 => {
            AlgorithmParams::customization(&b""[..])
        }
        WireAlgorithm::ParallelHash128 | WireAlgorithm::ParallelHash256 => {
            AlgorithmParams::parallel_hash(1024, &b""[..])
        }
        _ => AlgorithmParams::none(),
    }
}

/// A random but well-formed request frame body.
fn valid_body(rng: &mut Rng) -> Vec<u8> {
    if rng.below(8) == 0 {
        return Request::Stats { id: rng.next_u64() }.encode();
    }
    let algorithm = *rng.pick(&WireAlgorithm::ALL);
    let output_len = algorithm
        .fixed_output_len()
        .unwrap_or_else(|| 1 + rng.below(200));
    let payload_len = rng.below(300);
    let payload = match algorithm {
        // TupleHash payloads carry entry framing of their own.
        WireAlgorithm::TupleHash128 | WireAlgorithm::TupleHash256 => {
            let entry = rng.bytes(payload_len);
            encode_tuple_payload(&[&entry])
        }
        _ => rng.bytes(payload_len),
    };
    Request::Hash {
        id: rng.next_u64(),
        algorithm,
        output_len,
        deadline: rng.next_bool().then(|| Duration::from_millis(500)),
        params: valid_params(algorithm),
        payload,
    }
    .encode()
}

/// One seeded malformation of a valid frame body.
fn mutate(rng: &mut Rng, mut body: Vec<u8>) -> Vec<u8> {
    match rng.below(6) {
        // Truncate anywhere, including to empty.
        0 => {
            body.truncate(rng.below(body.len() + 1));
            body
        }
        // Flip one random bit.
        1 => {
            if !body.is_empty() {
                let at = rng.below(body.len());
                body[at] ^= 1 << rng.below(8);
            }
            body
        }
        // Corrupt the magic.
        2 => {
            body[rng.below(4)] ^= 0xFF;
            body
        }
        // Claim a version we do not speak.
        3 => {
            body[4] = rng.next_u32() as u8 | 0x80;
            body
        }
        // Corrupt an interior length field (offsets inside the hash
        // request layout), desynchronizing the declared sizes.
        4 => {
            let at = 14 + rng.below(body.len().saturating_sub(14).max(1));
            if at < body.len() {
                body[at] = body[at].wrapping_add(1 + rng.next_u32() as u8 % 255);
            }
            body
        }
        // Replace with pure garbage.
        _ => {
            let len = rng.below(64);
            rng.bytes(len)
        }
    }
}

#[test]
fn decoder_survives_every_seeded_malformation() {
    let mut rng = Rng::new(0xF022_0001);
    for case in 0..4000u64 {
        let body = valid_body(&mut rng);
        let body = mutate(&mut rng, body);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = Request::decode(&body);
        }));
        if outcome.is_err() {
            let minimal = shrink(body, byte_shrink_candidates, |candidate| {
                catch_unwind(AssertUnwindSafe(|| {
                    let _ = Request::decode(candidate);
                }))
                .is_err()
            });
            panic!(
                "{}",
                CaseReport::new(
                    "server/protocol-fuzz",
                    0xF022_0001,
                    format!("decode panicked on case {case}, minimized to {minimal:02x?}")
                )
            );
        }
    }
}

#[test]
fn guaranteed_invalid_frames_decode_to_typed_errors() {
    let mut rng = Rng::new(0xF022_0002);
    for _ in 0..1500 {
        let body = valid_body(&mut rng);
        // Wrong magic.
        let mut bad = body.clone();
        bad[rng.below(4)] ^= 0xFF;
        assert!(Request::decode(&bad).is_err(), "magic must be checked");
        // Wrong version.
        let mut bad = body.clone();
        bad[4] ^= 0x55;
        assert!(Request::decode(&bad).is_err(), "version must be checked");
        // Strict truncation (any proper prefix fails: the layout has no
        // optional tail).
        let cut = rng.below(body.len());
        assert!(
            Request::decode(&body[..cut]).is_err(),
            "truncation to {cut} of {} must fail",
            body.len()
        );
        // Trailing bytes.
        let mut bad = body.clone();
        let extra = 1 + rng.below(8);
        bad.extend_from_slice(&rng.bytes(extra));
        assert!(Request::decode(&bad).is_err(), "trailing bytes must fail");
    }
}

/// Shrink candidates for a byte string: drop one byte, or halve it.
#[allow(clippy::ptr_arg)] // `shrink` wants FnMut(&Vec<u8>) -> Vec<Vec<u8>>
fn byte_shrink_candidates(bytes: &Vec<u8>) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    if bytes.len() > 1 {
        out.push(bytes[..bytes.len() / 2].to_vec());
    }
    for i in 0..bytes.len().min(64) {
        let mut smaller = bytes.clone();
        smaller.remove(i);
        out.push(smaller);
    }
    out
}

/// What a raw malformed-bytes probe observed from the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// The server closed the connection (EOF) without a response.
    Closed,
    /// The server answered with at least one frame, then closed.
    RespondedThenClosed,
    /// Nothing happened within the patience window: a hang.
    Hung,
}

/// Writes `bytes` raw to a fresh connection, closes the write half, and
/// reports how the daemon reacted.
fn probe(addr: std::net::SocketAddr, bytes: &[u8]) -> Probe {
    let mut stream = TcpStream::connect(addr).expect("connect probe");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // The peer may close mid-write (oversized prefix): ignore write
    // errors, the read below observes the outcome either way.
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut seen_response = false;
    let mut buffer = [0u8; 4096];
    loop {
        match stream.read(&mut buffer) {
            Ok(0) => {
                return if seen_response {
                    Probe::RespondedThenClosed
                } else {
                    Probe::Closed
                }
            }
            Ok(_) => seen_response = true,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Probe::Hung
            }
            // Reset counts as closed: the daemon dropped us.
            Err(_) => {
                return if seen_response {
                    Probe::RespondedThenClosed
                } else {
                    Probe::Closed
                }
            }
        }
    }
}

#[test]
fn live_daemon_survives_malformed_frames_without_hanging_or_dying() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            service: ServiceConfig {
                max_wait: Duration::from_micros(200),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let seed = 0xF022_0003u64;
    let mut rng = Rng::new(seed);

    for case in 0..40u64 {
        let wire = match case % 5 {
            // A malformed body behind a correct length prefix.
            0..=2 => {
                let body = valid_body(&mut rng);
                let body = mutate(&mut rng, body);
                let mut wire = Vec::new();
                write_frame(&mut wire, &body).expect("frame");
                wire
            }
            // An oversized declared length: rejected before the body.
            3 => {
                let mut wire = ((DEFAULT_MAX_FRAME + 1 + rng.below(1 << 20)) as u32)
                    .to_le_bytes()
                    .to_vec();
                let extra = rng.below(32);
                wire.extend_from_slice(&rng.bytes(extra));
                wire
            }
            // A truncated frame: the prefix promises more than we send.
            _ => {
                let body = valid_body(&mut rng);
                let mut wire = Vec::new();
                write_frame(&mut wire, &body).expect("frame");
                let keep = 4 + rng.below(body.len());
                wire.truncate(keep);
                wire
            }
        };
        let outcome = probe(addr, &wire);
        if outcome == Probe::Hung {
            let minimal = shrink(wire, byte_shrink_candidates, |candidate| {
                probe(addr, candidate) == Probe::Hung
            });
            panic!(
                "{}",
                CaseReport::new(
                    "server/socket-fuzz",
                    seed,
                    format!("daemon hung on case {case}, minimized to {minimal:02x?}")
                )
            );
        }
        // Closed (malformed) or responded-then-closed (a bit flip can
        // leave the frame valid) are both acceptable; a hang never is.
    }

    // A valid frame followed by garbage: the valid request is answered
    // before the violation closes the connection.
    let good = Request::Hash {
        id: 77,
        algorithm: WireAlgorithm::Sha3_256,
        output_len: 32,
        deadline: None,
        params: AlgorithmParams::none(),
        payload: b"still served".to_vec(),
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &good.encode()).expect("frame");
    wire.extend_from_slice(b"\xDE\xAD\xBE\xEF garbage after a valid frame");
    assert_eq!(
        probe(addr, &wire),
        Probe::RespondedThenClosed,
        "the in-flight request drains before the violation closes the socket"
    );

    // After all of that abuse the daemon still serves a clean client.
    let client = Client::connect(addr).expect("fresh connection");
    assert_eq!(
        client
            .digest(WireAlgorithm::Sha3_256, b"alive")
            .expect("daemon survived the fuzz"),
        Sha3_256::digest(b"alive")
    );
    drop(client);
    server.shutdown();
}

/// Writes a batch of request frames to a fresh connection and collects
/// every response the server sends before *it* closes the connection.
/// Panics if the server hangs instead of closing.
fn session_probe(addr: std::net::SocketAddr, frames: &[Request]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect session probe");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut wire = Vec::new();
    for frame in frames {
        write_frame(&mut wire, &frame.encode()).expect("frame");
    }
    stream.write_all(&wire).expect("write");
    stream.flush().expect("flush");
    // Deliberately keep the write half open: a session-state violation
    // must make the *server* close the connection.
    let mut out = Vec::new();
    loop {
        match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            Ok(Some(Ok(body))) => out.push(Response::decode(&body).expect("valid response")),
            Ok(Some(Err(oversized))) => panic!("oversized response: {oversized:?}"),
            Ok(None) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("daemon hung instead of closing a violating connection")
            }
            Err(_) => break,
        }
    }
    out
}

/// The typed error codes in a response batch.
fn error_codes(responses: &[Response]) -> Vec<ErrorCode> {
    responses
        .iter()
        .filter_map(|response| match response {
            Response::Error { code, .. } => Some(*code),
            _ => None,
        })
        .collect()
}

/// Session-state mutation families: every out-of-order, unknown-id,
/// duplicate-id, over-budget, truncated or oversized session frame must
/// draw a typed error (or a protocol-level close), kill **only** the
/// offending connection, and leave sessions on other connections — and
/// the daemon itself — fully alive.
#[test]
fn session_state_violations_kill_only_the_offending_connection() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            service: ServiceConfig {
                max_wait: Duration::from_micros(200),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // A healthy streaming session on its own connection: it must ride
    // out every violation below untouched.
    let survivor_client = Client::connect(addr).expect("survivor connect");
    let survivor = survivor_client
        .open_session(WireAlgorithm::Shake256, AlgorithmParams::none())
        .expect("survivor open");
    let survivor_message = b"the survivor session outlives every violating neighbour";
    let (head, tail) = survivor_message.split_at(20);
    survivor.absorb(head).expect("survivor absorb");

    let shake = WireAlgorithm::Shake256;
    let none = AlgorithmParams::none;
    let open = |id, session| Request::Open {
        id,
        session,
        algorithm: shake,
        params: none(),
    };
    // (family name, frames, expected typed error code; None means the
    // violation is caught at decode time and closed without a reply)
    let families: Vec<(&str, Vec<Request>, Option<ErrorCode>)> = vec![
        (
            "absorb to a never-opened session",
            vec![Request::Absorb {
                id: 1,
                session: 99,
                chunk: b"orphan".to_vec(),
            }],
            Some(ErrorCode::BadSession),
        ),
        (
            "squeeze before finalize",
            vec![
                open(1, 7),
                Request::Absorb {
                    id: 2,
                    session: 7,
                    chunk: b"data".to_vec(),
                },
                Request::Squeeze {
                    id: 3,
                    session: 7,
                    len: 32,
                },
            ],
            Some(ErrorCode::SessionState),
        ),
        (
            "absorb after finalize",
            vec![
                open(1, 7),
                Request::Finalize {
                    id: 2,
                    session: 7,
                    output_len: 0,
                },
                Request::Absorb {
                    id: 3,
                    session: 7,
                    chunk: b"late".to_vec(),
                },
            ],
            Some(ErrorCode::SessionState),
        ),
        (
            "duplicate open of a live session id",
            vec![open(1, 5), open(2, 5)],
            Some(ErrorCode::BadSession),
        ),
        (
            "close of an unknown session",
            vec![Request::Close { id: 1, session: 42 }],
            Some(ErrorCode::BadSession),
        ),
        (
            "squeeze past the finalize budget",
            vec![
                Request::Open {
                    id: 1,
                    session: 7,
                    algorithm: WireAlgorithm::Sha3_256,
                    params: none(),
                },
                Request::Finalize {
                    id: 2,
                    session: 7,
                    output_len: 32,
                },
                Request::Squeeze {
                    id: 3,
                    session: 7,
                    len: 33,
                },
            ],
            Some(ErrorCode::SessionState),
        ),
        (
            "interleaved sessions with one violating",
            vec![
                open(1, 10),
                open(2, 11),
                Request::Absorb {
                    id: 3,
                    session: 10,
                    chunk: b"fine".to_vec(),
                },
                Request::Squeeze {
                    id: 4,
                    session: 11,
                    len: 8,
                },
            ],
            Some(ErrorCode::SessionState),
        ),
    ];

    for (family, frames, expected) in families {
        let responses = session_probe(addr, &frames);
        let codes = error_codes(&responses);
        let code = expected.expect("typed families carry a code");
        assert_eq!(
            codes,
            vec![code],
            "{family}: expected exactly one {code:?} error, got {responses:?}"
        );
    }

    // Truncated chunk: the ABSORB body ends before its declared chunk
    // does. Caught at decode time; the connection closes, typed reply
    // optional (the OPEN before it is still answered).
    let mut wire = Vec::new();
    write_frame(&mut wire, &open(1, 3).encode()).expect("frame");
    let absorb = Request::Absorb {
        id: 2,
        session: 3,
        chunk: vec![0xAA; 64],
    }
    .encode();
    write_frame(&mut wire, &absorb[..absorb.len() - 10]).expect("frame");
    assert_ne!(
        probe(addr, &wire),
        Probe::Hung,
        "truncated chunk must close, not hang"
    );

    // Oversized chunk: one byte past MAX_CHUNK_LEN still fits the frame
    // cap, so it reaches the session decoder and dies there.
    let mut wire = Vec::new();
    write_frame(&mut wire, &open(1, 3).encode()).expect("frame");
    write_frame(
        &mut wire,
        &Request::Absorb {
            id: 2,
            session: 3,
            chunk: vec![0xBB; MAX_CHUNK_LEN + 1],
        }
        .encode(),
    )
    .expect("frame");
    assert_ne!(
        probe(addr, &wire),
        Probe::Hung,
        "oversized chunk must close, not hang"
    );

    // The survivor session never noticed any of it.
    survivor.absorb(tail).expect("survivor absorb tail");
    survivor.finalize(0).expect("survivor finalize");
    let digest = survivor.squeeze(32).expect("survivor squeeze");
    survivor.close().expect("survivor close");
    assert_eq!(digest, Shake256::digest(survivor_message, 32));

    // And the daemon still serves fresh connections.
    let client = Client::connect(addr).expect("fresh connection");
    assert_eq!(
        client
            .digest(WireAlgorithm::Sha3_256, b"alive")
            .expect("daemon survived the session fuzz"),
        Sha3_256::digest(b"alive")
    );
    drop(client);
    drop(survivor_client);
    server.shutdown();
}

/// Reads `count` response frames off a raw socket, panicking on any
/// protocol error.
fn read_responses(stream: &mut TcpStream, count: usize) -> Vec<Response> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let body = read_frame(stream, DEFAULT_MAX_FRAME)
            .expect("frame")
            .expect("open")
            .expect("well-sized");
        out.push(Response::decode(&body).expect("valid response"));
    }
    out
}

/// The event loop only consumes whole frames: a request dribbled one
/// byte at a time — the worst possible partial-frame delivery — must
/// parse identically to one delivered in a single write.
#[test]
fn byte_dribble_delivery_parses_identically() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");

    let request = Request::Hash {
        id: 9,
        algorithm: WireAlgorithm::Sha3_256,
        output_len: 32,
        deadline: None,
        params: AlgorithmParams::none(),
        payload: b"dribbled one byte at a time".to_vec(),
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &request.encode()).expect("frame");
    for byte in &wire {
        stream.write_all(std::slice::from_ref(byte)).expect("write");
        stream.flush().expect("flush");
    }

    match &read_responses(&mut stream, 1)[0] {
        Response::Digest { id, bytes } => {
            assert_eq!(*id, 9);
            assert_eq!(bytes, &Sha3_256::digest(b"dribbled one byte at a time"));
        }
        other => panic!("expected a digest, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

/// A pipelined burst of valid frames delivered in seeded random chunk
/// splits — boundaries landing inside length prefixes, headers and
/// payloads — must never desynchronize framing: every request is
/// answered, ids intact, digests correct.
#[test]
fn random_chunk_splits_never_desync_framing() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut rng = Rng::new(0xF022_0004);

    for _round in 0..10 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");

        let count = 2 + rng.below(6);
        let mut wire = Vec::new();
        let mut payloads = Vec::new();
        for id in 0..count as u64 {
            let payload_len = rng.below(400);
            let payload = rng.bytes(payload_len);
            let request = Request::Hash {
                id,
                algorithm: WireAlgorithm::Sha3_256,
                output_len: 32,
                deadline: None,
                params: AlgorithmParams::none(),
                payload: payload.clone(),
            };
            write_frame(&mut wire, &request.encode()).expect("frame");
            payloads.push(payload);
        }

        write_in_random_splits(&mut stream, &wire, &mut rng);

        let mut responses = read_responses(&mut stream, count);
        responses.sort_by_key(|response| match response {
            Response::Digest { id, .. } => *id,
            other => panic!("expected digests only, got {other:?}"),
        });
        for (id, payload) in payloads.iter().enumerate() {
            match &responses[id] {
                Response::Digest { id: got, bytes } => {
                    assert_eq!(*got, id as u64);
                    assert_eq!(bytes, &Sha3_256::digest(payload), "request {id} digest");
                }
                other => panic!("expected a digest, got {other:?}"),
            }
        }
    }

    // One more input: a session around a MAX_CHUNK_LEN ABSORB, the
    // largest frame a client sends.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let chunk = rng.bytes(MAX_CHUNK_LEN);
    let session = 5;
    let frames = [
        Request::Open {
            id: 0,
            session,
            algorithm: WireAlgorithm::Sha3_256,
            params: AlgorithmParams::none(),
        },
        Request::Absorb {
            id: 1,
            session,
            chunk: chunk.clone(),
        },
        Request::Finalize {
            id: 2,
            session,
            output_len: 32,
        },
        Request::Squeeze {
            id: 3,
            session,
            len: 32,
        },
        Request::Close { id: 4, session },
    ];
    let mut wire = Vec::new();
    for frame in &frames {
        write_frame(&mut wire, &frame.encode()).expect("frame");
    }
    write_in_random_splits(&mut stream, &wire, &mut rng);
    let responses = read_responses(&mut stream, frames.len());
    assert_eq!(
        responses,
        [
            Response::Opened { id: 0, session },
            Response::Absorbed { id: 1, session },
            Response::Finalized { id: 2, session },
            Response::Squeezed {
                id: 3,
                session,
                bytes: Sha3_256::digest(&chunk).to_vec(),
            },
            Response::Closed { id: 4, session },
        ]
    );
    server.shutdown();
}

/// Writes `wire` in seeded chunks of 1 to 37 bytes.
fn write_in_random_splits(stream: &mut TcpStream, wire: &[u8], rng: &mut Rng) {
    let mut at = 0;
    while at < wire.len() {
        let chunk = (1 + rng.below(37)).min(wire.len() - at);
        stream.write_all(&wire[at..at + chunk]).expect("write");
        stream.flush().expect("flush");
        at += chunk;
    }
}
