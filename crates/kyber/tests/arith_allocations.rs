//! The ML-KEM polynomial arithmetic makes no heap allocation.
//!
//! `KemJob::new` and `KemJob::advance` run this arithmetic on a service
//! shard's scheduler thread for every served KEM operation, so NTT,
//! NTT⁻¹, the base-multiplication accumulate, CBD and SampleNTT work on
//! stack arrays only. A counting global allocator counts the test
//! thread's own allocations across 100 rounds of each: a process-wide
//! count would also see the test harness's bookkeeping on its main
//! thread, which races with the start of the test.

use krv_kyber::ntt::{basemul, inner_product, inv_ntt, ntt};
use krv_kyber::sampling::{sample_cbd, sample_ntt};
use krv_kyber::{Poly, KYBER_N, KYBER_Q};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    // A `const`-initialized `Cell<usize>` needs neither lazy set-up nor
    // a destructor, so reading it inside the allocator cannot allocate.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// [`System`], counting allocation calls per thread.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn poly(seed: u32) -> Poly {
    let mut coeffs = [0u16; KYBER_N];
    let mut state = seed | 1;
    for c in coeffs.iter_mut() {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        *c = (state >> 16) as u16 % KYBER_Q;
    }
    Poly::from_coeffs(coeffs)
}

/// Allocations this thread makes while `body` runs 100 times.
fn allocations(mut body: impl FnMut(usize)) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    for round in 0..100 {
        body(round);
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn polynomial_arithmetic_does_not_allocate() {
    let polys: Vec<Poly> = (0..8).map(poly).collect();
    let stream: Vec<u8> = (0..3 * 168u32).map(|i| (i * 89 + 7) as u8).collect();
    let (a, b) = (&polys[..4], &polys[4..]);

    let counts = [
        ("NTT", allocations(|r| _ = black_box(ntt(&polys[r % 8])))),
        (
            "NTT⁻¹",
            allocations(|r| _ = black_box(inv_ntt(&polys[r % 8]))),
        ),
        (
            "basemul",
            allocations(|r| _ = black_box(basemul(&a[r % 4], &b[r % 4]))),
        ),
        (
            "the basemul accumulate",
            allocations(|_| _ = black_box(inner_product(a.iter().zip(b)))),
        ),
        (
            "CBD η = 2",
            allocations(|_| _ = black_box(sample_cbd(&stream[..128], 2))),
        ),
        (
            "CBD η = 3",
            allocations(|_| _ = black_box(sample_cbd(&stream[..192], 3))),
        ),
        (
            "SampleNTT",
            allocations(|_| _ = black_box(sample_ntt(&stream))),
        ),
    ];
    assert!(sample_ntt(&stream).is_some(), "three blocks suffice");
    for (routine, count) in counts {
        assert_eq!(count, 0, "{routine}: allocations over 100 calls");
    }
}
