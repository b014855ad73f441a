//! `EnginePool` models its `W` accelerators on the calling thread: no
//! dispatch, whatever its size, and no kill drill starts a thread.
//!
//! The test reads the process's thread count from `/proc/self/status`
//! before and after dispatches of 1 to 64 states on a 4-worker pool.
//! Everything runs in one test, so no other test's thread shares the
//! count.

use krv_core::{EnginePool, KernelKind, PoolError};
use krv_keccak::{keccak_f1600, KeccakState};

/// Threads of this process, from the `Threads:` line of
/// `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

fn distinct_states(n: usize) -> Vec<KeccakState> {
    (0..n)
        .map(|s| {
            let mut lanes = [0u64; 25];
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = (s as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407) ^ (i as u64) << 11;
            }
            KeccakState::from_lanes(lanes)
        })
        .collect()
}

fn permute_and_check(pool: &mut EnginePool, n: usize) {
    let mut states = distinct_states(n);
    let mut expected = states.clone();
    pool.permute_slice(&mut states).expect("pool runs");
    for state in &mut expected {
        keccak_f1600(state);
    }
    assert_eq!(states, expected, "{n} states");
}

#[test]
fn the_pool_starts_no_thread() {
    let before = threads();
    let mut pool = EnginePool::new(KernelKind::E64Lmul8, 4, 4);
    for n in 1..=64 {
        permute_and_check(&mut pool, n);
    }
    assert_eq!(pool.last_metrics().expect("metrics").effective_workers, 4);
    pool.kill_worker(2);
    assert_eq!(
        pool.permute_slice(&mut distinct_states(64)),
        Err(PoolError::WorkerLost { worker: 2 })
    );
    for n in 1..=64 {
        permute_and_check(&mut pool, n);
    }
    assert_eq!(pool.alive_workers(), 3);
    assert_eq!(threads(), before, "dispatches changed the thread count");
    drop(pool);
    assert_eq!(threads(), before);
}
