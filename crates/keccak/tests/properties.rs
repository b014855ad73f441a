//! Property-based tests of the Keccak step mappings and permutation.

use krv_keccak::constants::{RC, RHO_OFFSETS};
use krv_keccak::{keccak_f1600, steps, KeccakState};
use krv_testkit::{cases, Rng};

fn state(rng: &mut Rng) -> KeccakState {
    let mut lanes = [0u64; 25];
    for lane in lanes.iter_mut() {
        *lane = rng.next_u64();
    }
    KeccakState::from_lanes(lanes)
}

/// Inverse of χ on one 5-lane row, bit column by bit column: χ on a
/// 5-bit row `a` is `b[i] = a[i] ^ (!a[i+1] & a[i+2])`, which is
/// invertible for odd row length (Keccak reference, §"inverse of chi").
fn inv_chi_row(row: [u64; 5]) -> [u64; 5] {
    // Solve bit-sliced: for each of the 64 bit positions independently,
    // invert the 5-bit map by brute force (32 candidates).
    let mut out = [0u64; 5];
    for bit in 0..64 {
        let target: u32 = (0..5).map(|i| (((row[i] >> bit) & 1) as u32) << i).sum();
        let mut found = None;
        for candidate in 0u32..32 {
            let mut image = 0u32;
            for i in 0..5 {
                let a0 = (candidate >> i) & 1;
                let a1 = (candidate >> ((i + 1) % 5)) & 1;
                let a2 = (candidate >> ((i + 2) % 5)) & 1;
                image |= (a0 ^ ((a1 ^ 1) & a2)) << i;
            }
            if image == target {
                assert!(found.is_none(), "χ not injective on bit column");
                found = Some(candidate);
            }
        }
        let preimage = found.expect("χ is a bijection on 5-bit rows");
        for i in 0..5 {
            out[i] |= (((preimage >> i) & 1) as u64) << bit;
        }
    }
    out
}

#[test]
fn theta_is_linear() {
    cases(64, |rng| {
        let a = state(rng);
        let b = state(rng);
        let mut xored = [0u64; 25];
        for (i, lane) in xored.iter_mut().enumerate() {
            *lane = a.lanes()[i] ^ b.lanes()[i];
        }
        let sum = KeccakState::from_lanes(xored);
        let lhs = steps::theta(&sum);
        let (ta, tb) = (steps::theta(&a), steps::theta(&b));
        for i in 0..25 {
            assert_eq!(lhs.lanes()[i], ta.lanes()[i] ^ tb.lanes()[i]);
        }
    });
}

#[test]
fn rho_preserves_bit_count() {
    cases(64, |rng| {
        let s = state(rng);
        let before: u32 = s.lanes().iter().map(|l| l.count_ones()).sum();
        let after: u32 = steps::rho(&s).lanes().iter().map(|l| l.count_ones()).sum();
        assert_eq!(before, after);
    });
}

#[test]
fn rho_is_lanewise_rotation() {
    cases(64, |rng| {
        let s = state(rng);
        let out = steps::rho(&s);
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(out.lane(x, y), s.lane(x, y).rotate_left(RHO_OFFSETS[y][x]));
            }
        }
    });
}

#[test]
fn pi_preserves_multiset_of_lanes() {
    cases(64, |rng| {
        let s = state(rng);
        let mut before: Vec<u64> = s.lanes().to_vec();
        let mut after: Vec<u64> = steps::pi(&s).lanes().to_vec();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    });
}

#[test]
fn chi_is_invertible_row_by_row() {
    cases(16, |rng| {
        let s = state(rng);
        let out = steps::chi(&s);
        for y in 0..5 {
            let row = [
                out.lane(0, y),
                out.lane(1, y),
                out.lane(2, y),
                out.lane(3, y),
                out.lane(4, y),
            ];
            let back = inv_chi_row(row);
            for x in 0..5 {
                assert_eq!(back[x], s.lane(x, y), "lane ({x}, {y})");
            }
        }
    });
}

#[test]
fn iota_is_an_involution() {
    cases(64, |rng| {
        let s = state(rng);
        let round = rng.below(24);
        let twice = steps::iota(&steps::iota(&s, round), round);
        assert_eq!(twice, s);
    });
}

#[test]
fn iota_only_touches_lane_zero() {
    cases(64, |rng| {
        let s = state(rng);
        let round = rng.below(24);
        let out = steps::iota(&s, round);
        assert_eq!(out.lane(0, 0), s.lane(0, 0) ^ RC[round]);
        for y in 0..5 {
            for x in 0..5 {
                if (x, y) != (0, 0) {
                    assert_eq!(out.lane(x, y), s.lane(x, y));
                }
            }
        }
    });
}

#[test]
fn permutation_differs_from_input() {
    cases(64, |rng| {
        // Keccak-f has no fixed points that random sampling would find;
        // equality would indicate the permutation degenerated.
        let s = state(rng);
        let mut out = s;
        keccak_f1600(&mut out);
        assert_ne!(out, s);
    });
}

#[test]
fn permutation_is_injective_on_pairs() {
    cases(64, |rng| {
        let a = state(rng);
        let b = state(rng);
        if a == b {
            return;
        }
        let (mut pa, mut pb) = (a, b);
        keccak_f1600(&mut pa);
        keccak_f1600(&mut pb);
        assert_ne!(pa, pb);
    });
}

#[test]
fn bytes_round_trip() {
    cases(64, |rng| {
        let s = state(rng);
        assert_eq!(KeccakState::from_bytes(&s.to_bytes()), s);
    });
}

#[test]
fn single_bit_flip_diffuses_widely() {
    cases(64, |rng| {
        // Avalanche: after the full permutation, flipping one input bit
        // changes a large fraction of the output (expected ~800 of 1600).
        let lane = rng.below(25);
        let bit = rng.below(64) as u32;
        let zero = KeccakState::new();
        let mut flipped_lanes = [0u64; 25];
        flipped_lanes[lane] = 1u64 << bit;
        let flipped = KeccakState::from_lanes(flipped_lanes);
        let mut p0 = zero;
        let mut p1 = flipped;
        keccak_f1600(&mut p0);
        keccak_f1600(&mut p1);
        let distance: u32 = p0
            .lanes()
            .iter()
            .zip(p1.lanes())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(
            (600..1000).contains(&distance),
            "hamming distance {distance}"
        );
    });
}

#[test]
fn round_equals_composition_of_steps() {
    let mut lanes = [0u64; 25];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = (i as u64 + 1).wrapping_mul(0x0101_0101_0101_0101);
    }
    let s = KeccakState::from_lanes(lanes);
    let composed = steps::iota(&steps::chi(&steps::pi(&steps::rho(&steps::theta(&s)))), 5);
    assert_eq!(steps::round(&s, 5), composed);
}

/// The byte-wise definition of XORing `bytes` into the state's
/// serialization at byte `offset`.
fn xor_bytewise(state: &KeccakState, offset: usize, bytes: &[u8]) -> KeccakState {
    let mut lanes = state.into_lanes();
    for (i, &byte) in bytes.iter().enumerate() {
        let at = offset + i;
        lanes[at / 8] ^= (byte as u64) << (8 * (at % 8));
    }
    KeccakState::from_lanes(lanes)
}

#[test]
fn word_wise_xor_bytes_matches_the_byte_wise_definition() {
    // Every offset and every length that fits, so every alignment of
    // the head, the whole words and the tail is covered.
    let mut rng = krv_testkit::Rng::new(0x5eed_0b17e5);
    let start = state(&mut rng);
    let bytes = rng.bytes(200);
    for offset in 0..=200 {
        for len in 0..=200 - offset {
            let block = &bytes[..len];
            let expected = xor_bytewise(&start, offset, block);
            let mut at = start;
            at.xor_bytes_at(offset, block);
            assert_eq!(at, expected, "offset {offset}, length {len}");
            if offset == 0 {
                let mut front = start;
                front.xor_bytes(block);
                assert_eq!(front, expected, "length {len}");
            }
        }
    }
}

#[test]
fn read_bytes_at_matches_the_serialization() {
    let mut rng = krv_testkit::Rng::new(0x5eed_4ead);
    let start = state(&mut rng);
    let serialized = start.to_bytes();
    for offset in 0..=200 {
        for len in 0..=200 - offset {
            let mut out = vec![0u8; len];
            start.read_bytes_at(offset, &mut out);
            assert_eq!(
                out,
                &serialized[offset..offset + len],
                "offset {offset}, length {len}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "bytes run past the state")]
fn xor_bytes_at_refuses_to_run_past_the_state() {
    KeccakState::new().xor_bytes_at(199, &[1, 2]);
}
