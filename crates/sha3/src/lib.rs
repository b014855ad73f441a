//! SHA-3 hash functions and SHAKE extendable-output functions over
//! pluggable Keccak-f\[1600\] permutation backends.
//!
//! This crate implements the sponge construction (padding, absorbing,
//! squeezing — paper Figure 1) and the six FIPS-202 functions on top of it:
//! SHA3-224, SHA3-256, SHA3-384, SHA3-512, SHAKE128 and SHAKE256.
//!
//! The permutation itself is abstracted behind [`PermutationBackend`] so
//! that the same sponge code can run on:
//!
//! * the software reference permutation ([`ReferenceBackend`], from
//!   [`krv_keccak`]), and
//! * the cycle-accurate simulated SIMD processor with custom vector
//!   extensions (`krv_core::EngineBackend`), which processes several
//!   sponge states in one permutation call.
//!
//! One driver packs many sponge states into each multi-state permutation
//! call: [`drive_stream`] advances a set of [`StreamItem`]s — each a
//! [`SpongeState`] and one absorb/pad/squeeze operation — and permutes
//! every state that stalls on a block boundary in one backend call. A
//! streaming session's operation and a one-shot hash are the same thing
//! to it, and so are different rates, so a backend that permutes `SN`
//! states at once (the paper's CRYSTALS-Kyber motivation) stays full.
//! [`hash_batch`] is the one-shot wrapper over it.
//!
//! # Example
//!
//! ```
//! use krv_sha3::Sha3_256;
//!
//! let digest = Sha3_256::digest(b"abc");
//! assert_eq!(
//!     krv_sha3::hex(&digest),
//!     "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod functions;
pub mod legacy;
pub mod sp800_185;
pub mod sponge;
pub mod stream;
pub mod tree;

pub use backend::{PermutationBackend, ReferenceBackend};
pub use batch::{hash_batch, BatchRequest};
pub use functions::{Sha3_224, Sha3_256, Sha3_384, Sha3_512, Shake128, Shake256, Xof};
pub use sponge::{DomainSeparator, Sponge, SpongeParams, SpongeState};
pub use stream::{drive_stream, StreamItem, StreamOp};
pub use tree::{TreeJob, TreeMode, TreeState};

/// Formats bytes as a lowercase hexadecimal string.
///
/// # Example
///
/// ```
/// assert_eq!(krv_sha3::hex(&[0xDE, 0xAD]), "dead");
/// ```
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn hex_formats_lowercase() {
        assert_eq!(super::hex(&[0x00, 0xAB, 0xFF]), "00abff");
    }
}
