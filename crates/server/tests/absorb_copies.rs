//! An ABSORB's chunk gets one buffer of its own: the owned chunk the
//! daemon hands the service.
//!
//! The client writes a frame's head and the caller's chunk in one
//! vectored write, and the daemon decodes the frame where it lies in
//! the connection's read buffer. A counting global allocator counts the
//! bytes each thread allocates and the bytes the whole process
//! allocates. After warm-up ABSORBs (the daemon's read buffer has grown
//! to hold a frame), submitting a 512 KiB chunk must allocate almost
//! nothing on the calling thread, and a whole ABSORB round trip (client,
//! daemon and service) one chunk and small change. Everything runs in
//! one test, so no other test allocates meanwhile.

use krv_server::{AlgorithmParams, Client, PendingReply, Response, Server, ServerConfig};
use krv_server::{StreamingSession, WireAlgorithm};
use krv_sha3::Shake256;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

const KIB: usize = 1 << 10;

/// The chunk each ABSORB carries.
const CHUNK: usize = 512 * KIB;

thread_local! {
    /// Bytes allocated on this thread.
    static THREAD_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Bytes allocated by the whole process.
static PROCESS_BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    PROCESS_BYTES.fetch_add(bytes, Ordering::Relaxed);
    // A thread being torn down has no count left to keep.
    let _ = THREAD_BYTES.try_with(|count| count.set(count.get() + bytes));
}

fn thread_bytes() -> usize {
    THREAD_BYTES.with(Cell::get)
}

fn process_bytes() -> usize {
    PROCESS_BYTES.load(Ordering::Relaxed)
}

/// [`System`], counting the bytes each allocation asks for (a
/// reallocation counts its new size).
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn acknowledged(pending: PendingReply) {
    let reply = pending.wait().expect("ack");
    assert!(
        matches!(reply.response, Response::Absorbed { .. }),
        "{:?}",
        reply.response
    );
}

fn absorb(session: &StreamingSession<'_>, chunk: &[u8]) {
    acknowledged(session.submit_absorb(chunk).expect("submit"));
}

#[test]
fn an_absorbed_chunk_is_copied_once() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let client = Client::connect(server.local_addr()).expect("connect");
    let session = client
        .open_session(WireAlgorithm::Shake256, AlgorithmParams::none())
        .expect("open");
    let chunk: Vec<u8> = (0..CHUNK).map(|i| (i * 131 + 7) as u8).collect();
    for _ in 0..2 {
        absorb(&session, &chunk);
    }

    // The calling thread builds a 30-byte head and registers the reply
    // slot; the chunk goes to the socket from the caller's buffer.
    let before = thread_bytes();
    let pending = session.submit_absorb(&chunk).expect("submit");
    let submitted = thread_bytes() - before;
    acknowledged(pending);

    // The round trip: the daemon's decoded chunk, which the service
    // absorbs, plus the round's bookkeeping.
    let before = process_bytes();
    absorb(&session, &chunk);
    let round_trip = process_bytes() - before;

    println!(
        "submit_absorb allocated {submitted} B on the calling thread; \
         an ABSORB round trip allocated {:.1} KiB process-wide",
        round_trip as f64 / KIB as f64
    );
    assert!(
        submitted < 4 * KIB,
        "submit_absorb of a {CHUNK}-byte chunk allocated {submitted} bytes"
    );
    assert!(
        round_trip <= CHUNK + 64 * KIB,
        "an ABSORB round trip of a {CHUNK}-byte chunk allocated {round_trip} bytes"
    );

    session.finalize(0).expect("finalize");
    let output = session.squeeze(64).expect("squeeze");
    session.close().expect("close");
    assert_eq!(output, Shake256::digest(&chunk.repeat(4), 64));
    drop(client);
    server.shutdown();
}
