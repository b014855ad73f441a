//! A warmed E64 LMUL=8 engine makes no heap allocation per pass, and a
//! warmed pool none per dispatch.
//!
//! A pass on the compiled tier costs about a microsecond, so staging
//! the states into data memory and reading them back must not allocate,
//! and neither may the pool's schedule and ledger around its passes. A
//! counting global allocator counts the allocations each thread makes
//! over 100 calls, after a few warm-up calls have compiled and cached
//! the kernel's regions and built the pool's engines. The engine and
//! the pool run every pass on the calling thread, and a per-thread
//! count leaves out what the test harness and the other test allocate
//! meanwhile.

use krv_core::{EnginePool, KernelKind, VectorKeccakEngine};
use krv_keccak::{keccak_f1600, KeccakState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made on this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // A thread being torn down has no count left to keep.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// [`System`], counting allocation calls.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn distinct_states(n: usize) -> Vec<KeccakState> {
    (0..n)
        .map(|s| {
            let mut lanes = [0u64; 25];
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 17;
            }
            KeccakState::from_lanes(lanes)
        })
        .collect()
}

#[test]
fn e64_lmul8_passes_do_not_allocate() {
    const PASSES: usize = 100;
    for sn in 1..=8 {
        let mut engine = VectorKeccakEngine::with_compiled(KernelKind::E64Lmul8, sn, true);
        let mut states = distinct_states(sn);
        let mut expected = states.clone();
        for _ in 0..3 {
            engine.permute_slice(&mut states).expect("kernel runs");
        }
        let before = allocations();
        for _ in 0..PASSES {
            engine.permute_slice(&mut states).expect("kernel runs");
        }
        let made = allocations() - before;
        assert_eq!(made, 0, "SN = {sn}: allocations over {PASSES} passes");
        for state in &mut expected {
            for _ in 0..3 + PASSES {
                keccak_f1600(state);
            }
        }
        assert_eq!(states, expected, "SN = {sn}: the passes still permute");
    }
}

#[test]
fn warm_pool_dispatches_do_not_allocate() {
    const DISPATCHES: usize = 100;
    // The service's pool shape: two workers of SN = 4. One state, a
    // full pass, a full pass plus a one-state one, both workers full,
    // and a tree round's leaf step (64 leaves and the root).
    let mut pool = EnginePool::new(KernelKind::E64Lmul8, 4, 2);
    for n in [1, 4, 5, 8, 65] {
        let mut states = distinct_states(n);
        let mut expected = states.clone();
        for _ in 0..3 {
            pool.permute_slice(&mut states).expect("pool runs");
        }
        let before = allocations();
        for _ in 0..DISPATCHES {
            pool.permute_slice(&mut states).expect("pool runs");
        }
        let made = allocations() - before;
        assert_eq!(
            made, 0,
            "{n} states: allocations over {DISPATCHES} dispatches"
        );
        for state in &mut expected {
            for _ in 0..3 + DISPATCHES {
                keccak_f1600(state);
            }
        }
        assert_eq!(states, expected, "{n} states: the dispatches still permute");
        let metrics = pool.last_metrics().expect("a dispatch ran");
        assert_eq!(metrics.passes, n.div_ceil(4) as u64, "{n} states");
        assert_eq!(metrics.per_engine.len(), 2, "{n} states");
    }
}
