//! The word-parallel Keccak-f\[1600\] kernel.
//!
//! The state of `N` sponges is held structure-of-arrays: `lanes[i]` is a
//! `[u64; N]` *lane group* — lane `i` (FIPS 202 order, `x + 5y`) of every
//! member state side by side. One call to [`permute`] advances all `N`
//! states through the full 24 rounds. The round itself lives in
//! [`krv_keccak::lanes`], which the simulator's compiled tier runs too;
//! this module adds the transposes between `&[KeccakState]` and the
//! group form and the per-width entry point.

use krv_keccak::constants::STATE_LANES;
use krv_keccak::KeccakState;

use crate::dispatch::LaneWidth;

pub use krv_keccak::lanes::{permute, LaneGroup};

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
