//! Tree sessions hold two sponge states, not the message.
//!
//! A counting global allocator tracks live and peak heap bytes for the
//! whole process: the client, the in-process daemon and its service.
//! The peak above the pre-session baseline must stay under [`BOUND`]
//! for a 1 MiB KRV tree-hash ABSORB and for 16 MiB of ParallelHash256
//! whose block size (`u32::MAX`) keeps the whole message in one open
//! leaf. What a session may hold is its root and open-leaf states plus
//! the chunks in flight; a server that buffered blocks would hold the
//! message. Everything runs in one test, so no other test allocates
//! meanwhile.

use krv_server::{AlgorithmParams, Client, Server, ServerConfig, WireAlgorithm};
use krv_service::{ServiceConfig, TierPolicy};
use krv_sha3::tree::{krv_tree_hash256, parallel_hash256};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const MIB: usize = 1 << 20;

/// Peak live heap a session may add over its baseline: the 1 MiB chunk
/// in its one transient copy, the decoded chunk the service absorbs
/// (the client writes from the caller's buffer, and the daemon decodes
/// in the read buffer the warm-up grew), with headroom — far below the
/// 16 MiB message of case (b).
const BOUND: usize = 8 * MIB;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`], counting live bytes and their high-water mark.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Restarts the high-water mark at the live bytes, returning them.
fn baseline() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The high-water mark's excess over `baseline`.
fn peak_above(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 7) as u8).collect()
}

/// Streams `chunks` through one session of `algorithm`, returning the
/// digest and the peak heap above the pre-session baseline.
fn session_peak(
    client: &Client,
    algorithm: WireAlgorithm,
    params: AlgorithmParams,
    chunks: &[&[u8]],
    output_len: usize,
) -> (Vec<u8>, usize) {
    let base = baseline();
    let session = client.open_session(algorithm, params).expect("open");
    for chunk in chunks {
        session.absorb(chunk).expect("absorb");
    }
    session.finalize(output_len).expect("finalize");
    let digest = session.squeeze(output_len).expect("squeeze");
    session.close().expect("close");
    (digest, peak_above(base))
}

#[test]
fn tree_sessions_hold_two_sponge_states_not_the_message() {
    let config = ServerConfig {
        service: ServiceConfig {
            max_wait: Duration::from_micros(200),
            tier: TierPolicy::native(),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let client = Client::connect(server.local_addr()).expect("connect");
    // Warm-up: the buffers a connection keeps across frames exist
    // before any baseline is taken.
    let warm = pattern(MIB);
    session_peak(
        &client,
        WireAlgorithm::TreeHash256,
        AlgorithmParams::none(),
        &[&warm],
        32,
    );

    // (a) One 1 MiB ABSORB into a KRV tree-hash session: 256 leaves.
    let message = pattern(MIB);
    let (digest, tree_peak) = session_peak(
        &client,
        WireAlgorithm::TreeHash256,
        AlgorithmParams::none(),
        &[&message],
        32,
    );
    assert_eq!(digest, krv_tree_hash256(&message, 32, b""));

    // (b) 16 blocking 1 MiB ABSORBs into one ParallelHash256 leaf.
    let block = u32::MAX as usize;
    let message = pattern(16 * MIB);
    let chunks: Vec<&[u8]> = message.chunks(MIB).collect();
    let (digest, parallel_peak) = session_peak(
        &client,
        WireAlgorithm::ParallelHash256,
        AlgorithmParams::parallel_hash(u32::MAX, &b""[..]),
        &chunks,
        64,
    );
    assert_eq!(digest, parallel_hash256(&message, block, 64, b""));

    println!(
        "peak heap above baseline: {:.2} MiB for a 1 MiB tree ABSORB, \
         {:.2} MiB for 16 MiB of ParallelHash256 at B = 2^32 - 1",
        tree_peak as f64 / MIB as f64,
        parallel_peak as f64 / MIB as f64
    );
    assert!(
        tree_peak < BOUND,
        "a 1 MiB tree ABSORB held {tree_peak} bytes (bound {BOUND})"
    );
    assert!(
        parallel_peak < BOUND,
        "16 MiB of ParallelHash256 held {parallel_peak} bytes (bound {BOUND})"
    );
    drop(client);
    server.shutdown();
}
