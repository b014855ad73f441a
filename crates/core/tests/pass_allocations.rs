//! A warmed E64 LMUL=8 engine makes no heap allocation per pass.
//!
//! A pass on the compiled tier costs about a microsecond, so staging
//! the states into data memory and reading them back must not allocate.
//! A counting global allocator counts every allocation in the process
//! over 100 `permute_slice` calls at SN = 1 and SN = 4, after a few
//! warm-up passes have compiled and cached the kernel's regions.
//! Everything runs in one test, so no other test allocates meanwhile.

use krv_core::{KernelKind, VectorKeccakEngine};
use krv_keccak::{keccak_f1600, KeccakState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// [`System`], counting allocation calls.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
    for sn in [1, 4] {
        let mut engine = VectorKeccakEngine::with_compiled(KernelKind::E64Lmul8, sn, true);
        let mut states = distinct_states(sn);
        let mut expected = states.clone();
        for _ in 0..3 {
            engine.permute_slice(&mut states).expect("kernel runs");
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..PASSES {
            engine.permute_slice(&mut states).expect("kernel runs");
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocations, 0,
            "SN = {sn}: allocations over {PASSES} passes"
        );
        for state in &mut expected {
            for _ in 0..3 + PASSES {
                keccak_f1600(state);
            }
        }
        assert_eq!(states, expected, "SN = {sn}: the passes still permute");
    }
}
