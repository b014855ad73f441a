//! The word-parallel Keccak-f\[1600\] kernel.
//!
//! The state of `N` sponges is held structure-of-arrays: `lanes[i]` is a
//! `[u64; N]` *lane group* — lane `i` (FIPS 202 order, `x + 5y`) of every
//! member state side by side. One call to [`permute`] advances all `N`
//! states through the full 24 rounds; every θ parity, ρ rotation, π move
//! and χ gate is an elementwise operation over the group, which the
//! compiler lowers to SIMD where the target has it and to independent
//! scalar chains (instruction-level parallelism) where it does not.
//!
//! The round structure follows `krv_keccak::steps` exactly — same
//! tables, same (x, y) mappings — so equality with the scalar reference
//! is a matter of arithmetic, not reimplementation drift; the property
//! tests and the conformance KAT matrix pin it anyway.

use krv_keccak::constants::{PLANE_LANES as P, RC, RHO_OFFSETS, ROUNDS, STATE_LANES};
use krv_keccak::KeccakState;

use crate::dispatch::LaneWidth;

/// `N` Keccak states in structure-of-arrays form.
pub type LaneGroup<const N: usize> = [[u64; N]; STATE_LANES];

#[inline(always)]
fn xor_into<const N: usize>(dst: &mut [u64; N], src: &[u64; N]) {
    for i in 0..N {
        dst[i] ^= src[i];
    }
}

#[inline(always)]
fn rotl<const N: usize>(v: &[u64; N], r: u32) -> [u64; N] {
    let mut out = [0u64; N];
    for i in 0..N {
        out[i] = v[i].rotate_left(r);
    }
    out
}

/// Applies the full 24-round Keccak-f\[1600\] permutation to all `N`
/// states of the group, in place.
pub fn permute<const N: usize>(a: &mut LaneGroup<N>) {
    for &rc in RC.iter().take(ROUNDS) {
        // θ: column parities, neighbour combination, diffusion.
        let mut c = [[0u64; N]; P];
        for x in 0..P {
            c[x] = a[x];
            for y in 1..P {
                xor_into(&mut c[x], &a[x + P * y]);
            }
        }
        let mut d = [[0u64; N]; P];
        for x in 0..P {
            d[x] = rotl(&c[(x + 1) % P], 1);
            xor_into(&mut d[x], &c[(x + 4) % P]);
        }
        for y in 0..P {
            for x in 0..P {
                xor_into(&mut a[x + P * y], &d[x]);
            }
        }
        // ρ + π fused: F[x, y] = ROTL(E[(x+3y)%5, x]), offsets from the
        // paper's Table 2 indexed by the *source* lane.
        let mut b = [[0u64; N]; STATE_LANES];
        for y in 0..P {
            for x in 0..P {
                let (sx, sy) = ((x + 3 * y) % P, x);
                b[x + P * y] = rotl(&a[sx + P * sy], RHO_OFFSETS[sy][sx]);
            }
        }
        // χ + ι.
        for y in 0..P {
            for x in 0..P {
                let f1 = b[(x + 1) % P + P * y];
                let f2 = b[(x + 2) % P + P * y];
                let out = &mut a[x + P * y];
                for i in 0..N {
                    out[i] = b[x + P * y][i] ^ (!f1[i] & f2[i]);
                }
            }
        }
        for i in 0..N {
            a[0][i] ^= rc;
        }
    }
}

/// Transposes up to `N` states into structure-of-arrays form; unused
/// group slots are zero.
pub fn gather<const N: usize>(states: &[KeccakState]) -> LaneGroup<N> {
    assert!(states.len() <= N, "group overflow");
    let mut group = [[0u64; N]; STATE_LANES];
    for (slot, state) in states.iter().enumerate() {
        for (lane, value) in state.lanes().iter().enumerate() {
            group[lane][slot] = *value;
        }
    }
    group
}

/// Transposes the first `states.len()` group slots back out.
pub fn scatter<const N: usize>(group: &LaneGroup<N>, states: &mut [KeccakState]) {
    assert!(states.len() <= N, "group overflow");
    for (slot, state) in states.iter_mut().enumerate() {
        let mut lanes = [0u64; STATE_LANES];
        for (lane, value) in lanes.iter_mut().enumerate() {
            *value = group[lane][slot];
        }
        *state = KeccakState::from_lanes(lanes);
    }
}

/// Permutes up to one group of states at the given width: gather,
/// word-parallel permute, scatter.
///
/// # Panics
///
/// Panics if `states.len()` exceeds the width's lane count.
pub fn permute_states(width: LaneWidth, states: &mut [KeccakState]) {
    match width {
        LaneWidth::X1 => round_trip::<1>(states),
        LaneWidth::X2 => round_trip::<2>(states),
        LaneWidth::X4 => round_trip::<4>(states),
        LaneWidth::X8 => round_trip::<8>(states),
    }
}

fn round_trip<const N: usize>(states: &mut [KeccakState]) {
    let mut group = gather::<N>(states);
    permute(&mut group);
    scatter(&group, states);
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_keccak::keccak_f1600;

    #[test]
    fn gather_scatter_round_trips() {
        let mut states: Vec<KeccakState> = (0..3)
            .map(|i| {
                let mut lanes = [0u64; STATE_LANES];
                for (j, lane) in lanes.iter_mut().enumerate() {
                    *lane = (i * 100 + j) as u64;
                }
                KeccakState::from_lanes(lanes)
            })
            .collect();
        let group = gather::<4>(&states);
        assert_eq!(group[7][1], 107);
        assert_eq!(group[7][3], 0, "unused slot stays zero");
        let original = states.clone();
        scatter(&group, &mut states);
        assert_eq!(states, original);
    }

    #[test]
    fn group_permutation_matches_reference_per_slot() {
        let mut states: Vec<KeccakState> = (0..4u64)
            .map(|i| {
                let mut lanes = [0u64; STATE_LANES];
                for (j, lane) in lanes.iter_mut().enumerate() {
                    *lane = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (j as u64) << 3;
                }
                KeccakState::from_lanes(lanes)
            })
            .collect();
        let mut expected = states.clone();
        let mut group = gather::<4>(&states);
        permute(&mut group);
        scatter(&group, &mut states);
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(states, expected);
    }

    #[test]
    fn padded_calls_permute_every_live_state() {
        // A tail plan may run fewer states than a width's lanes; the
        // spare lanes carry zero states and nothing of them comes back.
        for width in LaneWidth::ALL {
            for live in 1..=width.lanes() {
                let mut states: Vec<KeccakState> = (0..live as u64)
                    .map(|i| {
                        let mut lanes = [0u64; STATE_LANES];
                        lanes[(i as usize * 7) % STATE_LANES] = i + 1;
                        KeccakState::from_lanes(lanes)
                    })
                    .collect();
                let mut expected = states.clone();
                permute_states(width, &mut states);
                for state in &mut expected {
                    keccak_f1600(state);
                }
                assert_eq!(states, expected, "{width}, {live} live");
            }
        }
    }

    #[test]
    fn zero_state_known_answer_all_widths() {
        // Keccak team reference value for f[1600] of the zero state.
        const LANE_00_AFTER_ONE: u64 = 0xF1258F7940E1DDE7;
        for width in LaneWidth::ALL {
            let mut states = vec![KeccakState::new(); width.lanes()];
            permute_states(width, &mut states);
            for state in &states {
                assert_eq!(state.lane(0, 0), LANE_00_AFTER_ONE, "{width:?}");
            }
        }
    }
}
