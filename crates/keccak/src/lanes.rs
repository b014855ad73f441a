//! The word-parallel Keccak-f\[1600\] round over `N` states side by side.
//!
//! The state of `N` sponges is held structure-of-arrays: `lanes[i]` is a
//! `[u64; N]` *lane group* — lane `i` (FIPS 202 order, `x + 5y`) of every
//! member state side by side. One call to [`round`] advances all `N`
//! states through one round; every θ parity, ρ rotation, π move and χ
//! gate is an elementwise operation over the group, which the compiler
//! lowers to SIMD where the target has it and to independent scalar
//! chains (instruction-level parallelism) where it does not. This is the
//! paper's execution model — one plane per vector register, the SN
//! states' lanes worked side by side (Figures 5 and 6) — on the host.
//!
//! Two tiers run it: the host-native backend (`krv-native`) permutes
//! its groups with [`permute`], and the simulator's compiled tier runs
//! the resident round loop of a multi-state pass through [`round`] with
//! the kernel's χ operand as the complement word.
//!
//! The round structure follows [`crate::steps`] exactly — same tables,
//! same (x, y) mappings — so equality with the scalar reference is a
//! matter of arithmetic, not reimplementation drift; the property tests
//! and the conformance KAT matrix pin it anyway.

use crate::constants::{PLANE_LANES as P, RC, RHO_OFFSETS, STATE_LANES};

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

/// Applies one Keccak round to all `N` states of the group, in place,
/// XORing `rc` into lane (0, 0).
///
/// χ computes `B[x] ^ ((B[x+1] ^ not) & B[x+2])`: with `not = !0` that
/// is the Keccak χ, and any other word is the generalized gate a vector
/// kernel's `vxor.vx` scalar selects.
#[inline(always)]
pub fn round<const N: usize>(a: &mut LaneGroup<N>, not: u64, rc: u64) {
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
                out[i] = b[x + P * y][i] ^ ((f1[i] ^ not) & f2[i]);
            }
        }
    }
    for i in 0..N {
        a[0][i] ^= rc;
    }
}

/// Applies the full 24-round Keccak-f\[1600\] permutation to all `N`
/// states of the group, in place.
pub fn permute<const N: usize>(a: &mut LaneGroup<N>) {
    for &rc in &RC {
        round(a, !0, rc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{keccak_f1600, KeccakState};

    fn group_of<const N: usize>(states: &[KeccakState; N]) -> LaneGroup<N> {
        std::array::from_fn(|lane| std::array::from_fn(|slot| states[slot].lanes()[lane]))
    }

    fn distinct<const N: usize>() -> [KeccakState; N] {
        std::array::from_fn(|s| {
            KeccakState::from_lanes(std::array::from_fn(|j| {
                (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (j as u64) << 3
            }))
        })
    }

    fn check_width<const N: usize>() {
        let states = distinct::<N>();
        let mut group = group_of(&states);
        permute(&mut group);
        for (slot, state) in states.iter().enumerate() {
            let mut expected = *state;
            keccak_f1600(&mut expected);
            let lanes: [u64; STATE_LANES] = std::array::from_fn(|lane| group[lane][slot]);
            assert_eq!(lanes, expected.into_lanes(), "x{N}, slot {slot}");
        }
    }

    #[test]
    fn permutation_matches_reference_per_slot_at_every_width() {
        check_width::<1>();
        check_width::<2>();
        check_width::<3>();
        check_width::<4>();
        check_width::<8>();
    }

    #[test]
    fn one_round_with_a_full_complement_is_the_keccak_round() {
        // `not = !0` is the reference round; `not = 0` keeps θ, ρ, π and
        // ι but drops χ's complement, so it lands elsewhere.
        let states = distinct::<2>();
        let mut keccak = group_of(&states);
        let mut plain = keccak;
        round(&mut keccak, !0, RC[5]);
        round(&mut plain, 0, RC[5]);
        for (slot, state) in states.iter().enumerate() {
            let expected = crate::steps::round(state, 5);
            let lanes: [u64; STATE_LANES] = std::array::from_fn(|lane| keccak[lane][slot]);
            assert_eq!(lanes, expected.into_lanes(), "slot {slot}");
        }
        assert_ne!(keccak, plain);
    }
}
