//! The host's speed, read from a fixed reference kernel.
//!
//! The benchmark shares a few cores of a virtual machine with other
//! guests, whose load slows every core it shares a physical core or a
//! cache with. A run therefore times the reference kernel — the scalar
//! Keccak-f[1600] permutation, kept in this file so that no change to the
//! program can move it — on every core before each set-up, and before,
//! during and after its open phase, and states CPU times at the nominal
//! speed below.

use crate::host::thread_cpu_seconds;
use std::time::{Duration, Instant};

/// Reference permutations per CPU second that CPU times are stated at:
/// about what a core of the 2-vCPU reference host (`Intel(R) Xeon(R)
/// Processor`) reads with both cores busy.
pub const NOMINAL_PERM_PER_CPU_S: f64 = 8.0e5;

/// Permutations between two clock reads.
const CHUNK: u64 = 64;

const RC: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808A,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808B,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008A,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000A,
    0x0000_0000_8000_808B,
    0x8000_0000_0000_008B,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800A,
    0x8000_0000_8000_000A,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];
const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];
const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// Keccak-f[1600] on a 25-lane state (lane `x + 5y`).
fn keccak_f1600(a: &mut [u64; 25]) {
    for rc in RC {
        let mut c = [0u64; 5];
        for (x, c) in c.iter_mut().enumerate() {
            *c = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                a[5 * y + x] ^= d;
            }
        }
        let mut last = a[1];
        for (&j, &r) in PI.iter().zip(&RHO) {
            let next = a[j];
            a[j] = last.rotate_left(r);
            last = next;
        }
        for y in 0..5 {
            let row: [u64; 5] = a[5 * y..5 * y + 5].try_into().expect("five lanes");
            for x in 0..5 {
                a[5 * y + x] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        a[0] ^= rc;
    }
}

/// One core's reading: permutations done, and the CPU seconds they took.
fn spin(slot: Duration) -> (u64, f64) {
    let mut state = [0u64; 25];
    let cpu_before = thread_cpu_seconds();
    let end = Instant::now() + slot;
    let mut done = 0u64;
    while Instant::now() < end {
        for _ in 0..CHUNK {
            keccak_f1600(std::hint::black_box(&mut state));
        }
        done += CHUNK;
    }
    (done, thread_cpu_seconds() - cpu_before)
}

/// Short readings taken at each point of a run: a burst of interference
/// spoils a few of them, not their median.
const READINGS: usize = 10;
/// How long each reading runs the reference kernel.
const READING: Duration = Duration::from_millis(25);

/// [`READINGS`] readings of the host's speed, one after another, each on
/// every one of `cores` cores.
pub fn readings(cores: usize) -> Vec<f64> {
    (0..READINGS).map(|_| reading(cores).0).collect()
}

/// One reading of the host's speed on every one of `cores` cores: the
/// reference permutations per CPU second, and the CPU seconds the
/// reading's threads spent.
pub fn reading(cores: usize) -> (f64, f64) {
    measure(cores, READING)
}

/// Runs the reference kernel on `cores` threads (the calling one among
/// them) for `slot` and returns the reference permutations per CPU
/// second — how fast a core ran while the process had it — and the CPU
/// seconds spent.
fn measure(cores: usize, slot: Duration) -> (f64, f64) {
    let readings: Vec<(u64, f64)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..cores.max(1))
            .map(|_| scope.spawn(move || spin(slot)))
            .collect();
        let mut readings = vec![spin(slot)];
        readings.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("reference thread")),
        );
        readings
    });
    let perms: u64 = readings.iter().map(|r| r.0).sum();
    let cpu: f64 = readings.iter().map(|r| r.1).sum();
    (perms as f64 / cpu.max(f64::MIN_POSITIVE), cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_kernel_is_keccak_f1600() {
        // Keccak-f[1600] of the all-zero state (the Keccak team's
        // KeccakF-1600 intermediate values).
        let mut state = [0u64; 25];
        keccak_f1600(&mut state);
        assert_eq!(state[0], 0xF125_8F79_40E1_DDE7);
        assert_eq!(state[24], 0xEAF1_FF7B_5CEC_A249);
    }

    #[test]
    fn a_reading_is_positive() {
        let (speed, cpu) = measure(2, Duration::from_millis(20));
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
        assert!(cpu > 0.0 && cpu <= 0.04 + 2e-3, "{cpu}");
    }
}
