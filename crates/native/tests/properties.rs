//! Property tests: the host-native lane-parallel kernel must be
//! bit-identical to the scalar reference path at every compiled width,
//! for every ragged batch shape and across every absorb/squeeze
//! boundary — not just on the happy path where the batch size divides
//! the lane count.

use krv_keccak::{keccak_f1600, KeccakState};
use krv_native::{LaneWidth, NativeBackend};
use krv_sha3::{hash_batch, BatchRequest, PermutationBackend, ReferenceBackend, SpongeParams};
use krv_testkit::{cases, Rng};

fn random_state(rng: &mut Rng) -> KeccakState {
    let mut lanes = [0u64; 25];
    for lane in &mut lanes {
        *lane = rng.next_u64();
    }
    KeccakState::from_lanes(lanes)
}

/// `permute_all` over every ragged state count up to a bit past two
/// full groups, at every width: each count exercises a different tail
/// (full groups at the pinned width, then the tail's planned calls,
/// padded or split as this host's per-call times decide).
#[test]
fn ragged_state_counts_match_the_scalar_permutation() {
    cases(20, |rng| {
        for width in LaneWidth::ALL {
            let mut backend = NativeBackend::with_width(width);
            for count in 1..=2 * width.lanes() + 1 {
                let mut states: Vec<KeccakState> = (0..count).map(|_| random_state(rng)).collect();
                let mut expected = states.clone();
                backend.permute_all(&mut states);
                for state in &mut expected {
                    keccak_f1600(state);
                }
                assert_eq!(states, expected, "{width}, {count} states");
            }
        }
    });
}

/// Batched hashing over every batch width from 1 to 2·SN for the
/// widest kernel (SN = 8 lanes), including every non-dividing width,
/// must match the reference backend byte for byte. Message lengths are
/// random, so the in-flight pack shrinks raggedly as jobs finish.
#[test]
fn ragged_hash_batches_match_the_reference_backend() {
    let params = [SpongeParams::sha3(256), SpongeParams::shake(128)];
    cases(6, |rng| {
        for &param in &params {
            for batch in 1..=2 * LaneWidth::X8.lanes() {
                let messages: Vec<Vec<u8>> = (0..batch)
                    .map(|_| {
                        let len = rng.below(3 * param.rate_bytes());
                        rng.bytes(len)
                    })
                    .collect();
                let requests: Vec<BatchRequest<'_>> =
                    messages.iter().map(|m| BatchRequest::new(m, 32)).collect();
                let expected = hash_batch(param, ReferenceBackend::new(), &requests);
                for width in LaneWidth::ALL {
                    let got = hash_batch(param, NativeBackend::with_width(width), &requests);
                    assert_eq!(got, expected, "{width}, batch of {batch}");
                }
            }
        }
    });
}

/// Message and output lengths pinned to the absorb/squeeze block
/// boundaries (one byte either side of every rate multiple), where an
/// off-by-one in padding or squeeze refill would hide.
#[test]
fn absorb_and_squeeze_boundaries_match_the_reference_backend() {
    for param in [
        SpongeParams::sha3(224),
        SpongeParams::sha3(512),
        SpongeParams::shake(128),
        SpongeParams::shake(256),
    ] {
        let rate = param.rate_bytes();
        let message_lens = [0, 1, rate - 1, rate, rate + 1, 2 * rate, 2 * rate + 1];
        let output_lens = [1, 32, rate - 1, rate, rate + 1, 2 * rate + 5];
        let mut rng = Rng::new(0xB07D_0001 ^ rate as u64);
        let messages: Vec<Vec<u8>> = message_lens.iter().map(|&n| rng.bytes(n)).collect();
        for &out_len in &output_lens {
            let requests: Vec<BatchRequest<'_>> = messages
                .iter()
                .map(|m| BatchRequest::new(m, out_len))
                .collect();
            let expected = hash_batch(param, ReferenceBackend::new(), &requests);
            for width in LaneWidth::ALL {
                let got = hash_batch(param, NativeBackend::with_width(width), &requests);
                assert_eq!(got, expected, "{width}, rate {rate}, output {out_len}");
            }
        }
    }
}

/// The auto-detected backend (whatever width calibration picks on this
/// host) is just as correct as the pinned ones.
#[test]
fn detected_width_matches_the_reference_backend() {
    let mut rng = Rng::new(0xDE7E_C7ED);
    let messages: Vec<Vec<u8>> = (0..13).map(|i| rng.bytes(7 * i + 1)).collect();
    let requests: Vec<BatchRequest<'_>> =
        messages.iter().map(|m| BatchRequest::new(m, 48)).collect();
    let params = SpongeParams::shake(256);
    let expected = hash_batch(params, ReferenceBackend::new(), &requests);
    assert_eq!(
        hash_batch(params, NativeBackend::new(), &requests),
        expected
    );
}
