//! Host-native lane-parallel Keccak-f\[1600\].
//!
//! The simulated vector engines model the paper's hardware faithfully,
//! but the machine actually serving traffic is the *host* — and the host
//! hashes fastest when several sponge states run through the permutation
//! word-parallel, the way BLAKE3 processes multiple chunks per SIMD
//! call. This crate is that backend: the 24-round permutation rewritten
//! over `[u64; N]` lane groups (`N` states advancing together, one `u64`
//! per state in every word of the round function) so the compiler can
//! keep the θ/ρ/π/χ dataflow in wide registers and the N states share
//! every loop, table load and round constant.
//!
//! Three layers:
//!
//! * [`lanes`] — the word-parallel permutation, generic over the lane
//!   count `N` (1, 2, 4 and 8 are instantiated; the round is
//!   [`krv_keccak::lanes`]'s, which the simulator's compiled tier shares),
//!   plus the gather/scatter transposes between `&[KeccakState]` and the
//!   structure-of-arrays `[[u64; N]; 25]` form.
//! * [`dispatch`] — run-time lane-width selection, BLAKE3-style: the
//!   widest profitable variant is picked once per process (by a short
//!   calibration pass that times one call at every compiled width) and
//!   can be pinned with the `KRV_NATIVE_LANES` environment variable.
//! * [`NativeBackend`] — the [`krv_sha3::PermutationBackend`] over those
//!   kernels: full groups run at the selected width `W`, and a ragged
//!   tail of `r < W` states runs as the cheapest sequence of calls at
//!   widths up to `W`, planned from the calibration pass's per-call
//!   times. A call costs about the same however many of its lanes are
//!   live, so on a host where ×4 is cheaper per call than ×1 and ×2,
//!   every tail is one zero-padded ×4 call.
//!
//! Correctness is anchored the same way as every other backend in the
//! workspace: property tests pin bit-identical output against
//! [`krv_keccak::keccak_f1600`] and the conformance matrix runs the full
//! NIST FIPS 202 KAT set over every lane width.
//!
//! # Example
//!
//! ```
//! use krv_native::NativeBackend;
//! use krv_sha3::{PermutationBackend, ReferenceBackend};
//! use krv_keccak::KeccakState;
//!
//! let mut native = vec![KeccakState::new(); 5];
//! let mut reference = native.clone();
//! NativeBackend::widest().permute_all(&mut native);
//! ReferenceBackend::new().permute_all(&mut reference);
//! assert_eq!(native, reference);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatch;
pub mod lanes;

pub use dispatch::LaneWidth;

use dispatch::TailPlan;
use krv_keccak::KeccakState;
use krv_sha3::PermutationBackend;

/// The host-native lane-parallel permutation backend.
///
/// A fixed group width `W` is chosen at construction ([`Self::new`]
/// picks it at run time via [`LaneWidth::detect`]);
/// [`PermutationBackend::permute_all`] then runs every full group of `W`
/// states in one word-parallel call, and a ragged tail as the cheapest
/// calls at widths up to `W` by this process's measured per-call times:
/// zero-padded into one wider call, or split into narrower ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeBackend {
    width: LaneWidth,
}

impl NativeBackend {
    /// A backend at the run-time selected width (see [`LaneWidth::detect`]).
    pub fn new() -> Self {
        Self {
            width: LaneWidth::detect(),
        }
    }

    /// A backend pinned to an explicit lane width.
    pub const fn with_width(width: LaneWidth) -> Self {
        Self { width }
    }

    /// A backend at the widest compiled width (×8), regardless of what
    /// calibration would pick. Useful for tests and docs.
    pub const fn widest() -> Self {
        Self {
            width: LaneWidth::X8,
        }
    }

    /// The lane width this backend runs at.
    pub const fn width(&self) -> LaneWidth {
        self.width
    }
}

impl Default for NativeBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl PermutationBackend for NativeBackend {
    fn permute_all(&mut self, states: &mut [KeccakState]) {
        let mut groups = states.chunks_exact_mut(self.width.lanes());
        for group in &mut groups {
            lanes::permute_states(self.width, group);
        }
        let mut tail = groups.into_remainder();
        while !tail.is_empty() {
            let call = TailPlan::measured().next(self.width, tail.len());
            let (live, rest) = tail.split_at_mut(call.lanes().min(tail.len()));
            lanes::permute_states(call, live);
            tail = rest;
        }
    }

    fn parallel_states(&self) -> usize {
        self.width.lanes()
    }

    fn label(&self) -> String {
        format!("native/{}", self.width.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_keccak::keccak_f1600;
    use krv_testkit::Rng;

    fn random_states(rng: &mut Rng, n: usize) -> Vec<KeccakState> {
        (0..n)
            .map(|_| {
                let mut lanes = [0u64; 25];
                for lane in &mut lanes {
                    *lane = rng.next_u64();
                }
                KeccakState::from_lanes(lanes)
            })
            .collect()
    }

    #[test]
    fn every_width_matches_the_reference_permutation() {
        let mut rng = Rng::new(0x4A7E_57A7);
        for width in LaneWidth::ALL {
            for count in 0..=(2 * width.lanes() + 1) {
                let mut states = random_states(&mut rng, count);
                let mut expected = states.clone();
                NativeBackend::with_width(width).permute_all(&mut states);
                for state in &mut expected {
                    keccak_f1600(state);
                }
                assert_eq!(states, expected, "{width:?} × {count} states");
            }
        }
    }

    #[test]
    fn ragged_tails_follow_the_measured_plan() {
        // 13 states at ×8: one full group, then a 5-state tail through
        // whatever calls this host's plan picks (padded or split).
        let mut rng = Rng::new(0x7A11);
        let mut states = random_states(&mut rng, 13);
        let mut expected = states.clone();
        NativeBackend::widest().permute_all(&mut states);
        for state in &mut expected {
            keccak_f1600(state);
        }
        assert_eq!(states, expected);
    }

    #[test]
    fn labels_name_the_width() {
        assert_eq!(
            NativeBackend::with_width(LaneWidth::X1).label(),
            "native/x1"
        );
        assert_eq!(NativeBackend::widest().label(), "native/x8");
        assert_eq!(NativeBackend::widest().parallel_states(), 8);
    }
}
