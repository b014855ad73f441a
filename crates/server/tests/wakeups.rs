//! The I/O threads' wake-ups: an idle thread sleeps in `poll`, and every
//! piece of work that no client byte announces still gets done.
//!
//! Each I/O thread blocks until a socket is ready, its wake socket is
//! written or a deadline passes. These tests pin both halves of that:
//! an idle connection costs its thread no wake-ups, and the work a
//! timed park used to pick up for free — a session operation parked on
//! backpressure, the close after a half-closed pipeline, a response owed
//! to a peer that reset, responses a full socket could not take — is
//! done without client traffic and without spinning. A parked
//! operation is also retried on time while other traffic keeps its
//! thread awake. The thread figures come from `/proc/self/task`; where
//! that is absent (not Linux) the measuring tests skip their
//! assertions.
//!
//! Every test here takes one lock, so no other daemon's I/O threads run
//! in this process while a test reads the thread figures.

use krv_server::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME, MAX_OUTPUT_LEN};
use krv_server::{AlgorithmParams, Client, Request, Response, Server, ServerConfig, WireAlgorithm};
use krv_service::ServiceConfig;
use krv_sha3::{Sha3_256, Shake128, Shake256};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Voluntary context switches and CPU nanoseconds of this process's
/// `krv-server-io-*` threads, summed; `None` where `/proc` is
/// unavailable.
fn io_threads() -> Option<(u64, u64)> {
    let mut switches = 0;
    let mut cpu_ns = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let dir = task.ok()?.path();
        // A thread that exits between the listing and the read is not
        // an I/O thread of the daemon under test.
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.starts_with("krv-server-io-") {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).ok()?;
        switches += status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
            .trim()
            .parse::<u64>()
            .ok()?;
        let schedstat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
        cpu_ns += schedstat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some((switches, cpu_ns))
}

fn hash_request(id: u64, payload: &[u8]) -> Request {
    Request::Hash {
        id,
        algorithm: WireAlgorithm::Sha3_256,
        output_len: 32,
        deadline: None,
        params: AlgorithmParams::none(),
        payload: payload.to_vec(),
    }
}

/// Frames `requests` into one buffer, to be written in one go.
fn frames(requests: &[Request]) -> Vec<u8> {
    let mut wire = Vec::new();
    for request in requests {
        write_frame(&mut wire, &request.encode()).expect("frame");
    }
    wire
}

fn read_response(stream: &mut TcpStream) -> Response {
    let body = read_frame(stream, DEFAULT_MAX_FRAME)
        .expect("read")
        .expect("a frame, not EOF")
        .expect("within the frame limit");
    Response::decode(&body).expect("decodes")
}

#[test]
fn an_idle_connection_costs_its_io_thread_no_wake_ups() {
    let _serial = serial();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(
        client
            .digest(WireAlgorithm::Sha3_256, b"one")
            .expect("served"),
        Sha3_256::digest(b"one")
    );
    let Some((before, _)) = io_threads() else {
        return;
    };
    // The connection stays open and idle, 100 times shorter than its
    // 30 s idle timeout: nothing is due, so nothing should wake.
    std::thread::sleep(Duration::from_millis(300));
    let (after, _) = io_threads().expect("still readable");
    assert!(
        after - before <= 5,
        "idle I/O threads woke {} times in 300 ms",
        after - before
    );
    drop(client);
    assert_eq!(server.shutdown().completed, 1);
}

#[test]
fn a_session_operation_parked_on_backpressure_retries_without_client_traffic() {
    let _serial = serial();
    // One queue slot, and a batching window long enough that the first
    // request holds it while the session's ABSORB arrives.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            service: ServiceConfig {
                queue_capacity: 1,
                max_wait: Duration::from_millis(500),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let filler = Client::connect(server.local_addr()).expect("connect filler");
    let held = filler
        .submit(WireAlgorithm::Sha3_256, b"fills the queue", 32, None)
        .expect("submit");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().queue_depth == 0 {
        assert!(Instant::now() < deadline, "the filler never queued");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The whole session in one write, and then not another byte: the
    // ABSORB is refused for queue room and must be retried by the
    // daemon on its own.
    let message = b"absorbed once the queue has room".to_vec();
    let session = 5;
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect session");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(&frames(&[
            Request::Open {
                id: 1,
                session,
                algorithm: WireAlgorithm::Shake256,
                params: AlgorithmParams::none(),
            },
            Request::Absorb {
                id: 2,
                session,
                chunk: message.clone(),
            },
            Request::Finalize {
                id: 3,
                session,
                output_len: 0,
            },
            Request::Squeeze {
                id: 4,
                session,
                len: 64,
            },
        ]))
        .expect("write session");

    assert_eq!(
        read_response(&mut stream),
        Response::Opened { id: 1, session }
    );
    assert_eq!(
        read_response(&mut stream),
        Response::Absorbed { id: 2, session }
    );
    assert_eq!(
        read_response(&mut stream),
        Response::Finalized { id: 3, session }
    );
    assert_eq!(
        read_response(&mut stream),
        Response::Squeezed {
            id: 4,
            session,
            bytes: Shake256::digest(&message, 64),
        }
    );
    assert_eq!(
        held.wait_digest().expect("the filler is served"),
        Sha3_256::digest(b"fills the queue")
    );
    assert!(
        server.metrics().rejected > 0,
        "the ABSORB was never refused, so nothing was parked"
    );
    drop((filler, stream));
    server.shutdown();
}

#[test]
fn a_parked_session_operation_retries_while_other_traffic_keeps_its_thread_awake() {
    let _serial = serial();
    // One I/O thread for all three connections, one queue slot, and a
    // batching window that holds the filler's request in that slot.
    let window = Duration::from_millis(200);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            service: ServiceConfig {
                queue_capacity: 1,
                max_wait: window,
                ..ServiceConfig::default()
            },
            io_threads: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let filler = Client::connect(addr).expect("connect filler");
    let owner = Client::connect(addr).expect("connect session");
    let held = filler
        .submit(WireAlgorithm::Sha3_256, b"fills the queue", 32, None)
        .expect("submit");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().queue_depth == 0 {
        assert!(Instant::now() < deadline, "the filler never queued");
        std::thread::sleep(Duration::from_millis(1));
    }

    let message = b"absorbed while another connection chatters";
    let session = owner
        .open_session(WireAlgorithm::Shake256, AlgorithmParams::none())
        .expect("open");
    let ack = session.submit_absorb(message).expect("submit absorb");
    let answered = AtomicBool::new(false);
    let waited = std::thread::scope(|scope| {
        // STATS requests, served inline on the I/O thread and never
        // queued, with one always waiting behind the one being answered:
        // the thread wakes every few microseconds, far sooner than the
        // 1 ms retry, for as long as the ABSORB is owed.
        scope.spawn(|| {
            let stop = Instant::now() + Duration::from_secs(5);
            let mut chatter = TcpStream::connect(addr).expect("connect chatter");
            let stats = frames(&[Request::Stats { id: 0 }]);
            chatter.write_all(&stats).expect("write stats");
            while !answered.load(Ordering::Relaxed) && Instant::now() < stop {
                chatter.write_all(&stats).expect("write stats");
                let reply = read_response(&mut chatter);
                assert!(matches!(reply, Response::Stats { .. }), "{reply:?}");
            }
        });
        assert_eq!(
            held.wait_digest().expect("the filler is served"),
            Sha3_256::digest(b"fills the queue")
        );
        let freed = Instant::now();
        let reply = ack.wait().expect("absorb answered");
        let waited = freed.elapsed();
        answered.store(true, Ordering::Relaxed);
        assert!(
            matches!(reply.response, Response::Absorbed { session: id, .. } if id == session.id()),
            "{:?}",
            reply.response
        );
        waited
    });
    // Each refusal is one retry: about one a millisecond while the
    // filler held the slot, however often the chatter woke the thread.
    let retries = server.metrics().rejected;
    assert!(
        retries >= 100,
        "the parked ABSORB was retried {retries} times while the slot was held for {window:?}"
    );
    // Once the slot frees, the retry comes within 1 ms and the ABSORB
    // then waits out one batching window of its own.
    assert!(
        waited < window + Duration::from_millis(300),
        "the ABSORB completed {waited:?} after the queue had room"
    );
    session.finalize(0).expect("finalize");
    assert_eq!(
        session.squeeze(64).expect("squeeze"),
        Shake256::digest(message, 64)
    );
    session.close().expect("close");
    drop((filler, owner));
    server.shutdown();
}

#[test]
fn a_half_closed_pipeline_reads_every_answer_then_eof() {
    let _serial = serial();
    // The default 30 s idle timeout: only the last completion's wake-up
    // can close this connection in time.
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let payloads: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 40 + i as usize]).collect();
    let requests: Vec<Request> = payloads
        .iter()
        .enumerate()
        .map(|(id, payload)| hash_request(id as u64, payload))
        .collect();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let start = Instant::now();
    stream.write_all(&frames(&requests)).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut answered = vec![false; payloads.len()];
    for _ in 0..payloads.len() {
        match read_response(&mut stream) {
            Response::Digest { id, bytes } => {
                assert_eq!(bytes, Sha3_256::digest(&payloads[id as usize]), "id {id}");
                assert!(!answered[id as usize], "id {id} answered twice");
                answered[id as usize] = true;
            }
            other => panic!("expected a digest, got {other:?}"),
        }
    }
    assert!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME)
            .expect("EOF, not a timeout")
            .is_none(),
        "the daemon sent more than 16 answers"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "{:?}",
        start.elapsed()
    );
    assert_eq!(server.shutdown().completed, 16);
}

#[test]
fn a_reset_peer_owed_a_response_does_not_spin_its_io_thread() {
    let _serial = serial();
    // Eight requests fill the default 8-slot batch and are answered at
    // once; the ninth waits out the 300 ms window.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            service: ServiceConfig {
                max_wait: Duration::from_millis(300),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let requests: Vec<Request> = (0..9u64)
        .map(|id| hash_request(id, &[id as u8; 24]))
        .collect();
    let eight_answers: usize = (0..8u64)
        .map(|id| {
            let bytes = Sha3_256::digest(&[id as u8; 24]).to_vec();
            4 + Response::Digest { id, bytes }.encode().len()
        })
        .sum();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&frames(&requests)).expect("write");
    // Wait until the eight answers sit unread in the receive buffer, so
    // that closing the socket sends RST after the FIN.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut peeked = vec![0u8; eight_answers];
    while stream.peek(&mut peeked).expect("peek") < eight_answers {
        assert!(Instant::now() < deadline, "the full batch was not answered");
        std::thread::sleep(Duration::from_millis(1));
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    drop(stream);

    if let Some((_, before)) = io_threads() {
        std::thread::sleep(Duration::from_millis(200));
        let (_, after) = io_threads().expect("still readable");
        let spent = Duration::from_nanos(after - before);
        assert!(
            spent < Duration::from_millis(30),
            "the I/O threads spent {spent:?} of CPU in 200 ms waiting on one owed response"
        );
    }

    // The daemon keeps serving, and the ninth request still completes.
    let client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(
        client
            .digest(WireAlgorithm::Sha3_256, b"after")
            .expect("served"),
        Sha3_256::digest(b"after")
    );
    drop(client);
    assert_eq!(server.shutdown().completed, 10);
}

#[test]
fn responses_a_full_socket_refused_reach_a_slow_reader() {
    let _serial = serial();
    // 64 maximal SHAKE128 outputs, 4 MiB in all, against a client that
    // reads nothing at first: the completions find the socket full and
    // leave the rest to the I/O thread, which must wait on POLLOUT.
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let requests: Vec<Request> = (0..64u64)
        .map(|id| Request::Hash {
            id,
            algorithm: WireAlgorithm::Shake128,
            output_len: MAX_OUTPUT_LEN,
            deadline: None,
            params: AlgorithmParams::none(),
            payload: vec![id as u8; 16],
        })
        .collect();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(&frames(&requests)).expect("write");
    std::thread::sleep(Duration::from_millis(200));
    let mut answered = 0;
    for _ in 0..requests.len() {
        match read_response(&mut stream) {
            Response::Digest { id, bytes } => {
                assert_eq!(
                    bytes,
                    Shake128::digest(&[id as u8; 16], MAX_OUTPUT_LEN),
                    "id {id}"
                );
                answered += 1;
            }
            other => panic!("expected a digest, got {other:?}"),
        }
    }
    assert_eq!(answered, 64);
    drop(stream);
    assert_eq!(server.shutdown().completed, 64);
}
