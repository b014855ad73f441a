//! Reference implementation of the Keccak-f\[1600\] permutation.
//!
//! This crate is the correctness oracle for the `keccak-rvv` workspace: a
//! straightforward, well-tested software implementation of the permutation
//! that underlies every SHA-3 hash function, written to mirror the
//! *plane-per-plane* formulation of Li, Mentens and Picek (DATE 2023,
//! Algorithm 1). The vectorized kernels executed on the simulated SIMD
//! processor (`krv-core` / `krv-vproc`) are validated lane-for-lane against
//! this crate, including after every individual step mapping.
//!
//! # Layout
//!
//! * [`KeccakState`] — the 5 × 5 × 64-bit state array with the paper's
//!   `(x, y)` lane indexing and FIPS-202 byte serialization.
//! * [`permutation`] — the full 24-round permutation and per-round entry
//!   points.
//! * [`steps`] — the five step mappings θ, ρ, π, χ, ι as separate functions
//!   with the paper's intermediate values exposed for cross-validation.
//! * [`constants`] — round constants (paper Table 6) and ρ rotation offsets
//!   (paper Table 2).
//! * [`interleave`] — 64-bit ↔ 2 × 32-bit lane splitting utilities used by
//!   the 32-bit architecture (high/low split) plus classic bit interleaving.
//! * [`lanes`] — the round and permutation over `N` states side by side
//!   (structure-of-arrays lane groups), shared by the host-native backend
//!   and the simulator's compiled tier.
//!
//! # Example
//!
//! ```
//! use krv_keccak::{KeccakState, permutation::keccak_f1600};
//!
//! let mut state = KeccakState::new();
//! keccak_f1600(&mut state);
//! assert_eq!(state.lane(0, 0), 0xF1258F7940E1DDE7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constants;
pub mod interleave;
pub mod lanes;
pub mod permutation;
pub mod state;
pub mod steps;

pub use constants::{RC, RHO_OFFSETS};
pub use permutation::{keccak_f1600, keccak_f1600_rounds};
pub use state::{KeccakState, Plane};
