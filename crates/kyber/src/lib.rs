//! CRYSTALS-Kyber / FIPS 203 ML-KEM over the `keccak-rvv` SHA-3 stack.
//!
//! The paper's conclusion (§5) names the integration of its vectorized
//! Keccak into CRYSTALS-Kyber as future work: Kyber is dominated by
//! SHAKE — the public matrix **A**, the secret vector **s** and the
//! error vector **e** are all expanded from seeds (paper §1), and the
//! FO transform adds the `H`/`G`/`J` hash calls on top. This crate
//! implements the complete FIPS 203 ML-KEM scheme — key generation,
//! encapsulation and decapsulation with the implicit-rejection
//! Fujisaki–Okamoto transform — generically over
//! [`krv_sha3::PermutationBackend`], so every Keccak call can run in
//! lockstep batches on the simulated SIMD processor or the host-native
//! lane-parallel kernel.
//!
//! One pipeline: [`KemJob`] is the only code that decides which Keccak
//! calls an ML-KEM operation makes, and in which round. It exposes each
//! operation's pending Keccak work as explicit [`HashJob`]s — the
//! interface the `krv-service` scheduler uses to pack SHAKE expansions
//! from *many* concurrent KEM requests into shared SN-wide hardware
//! passes — and [`ml_kem_keygen`], [`ml_kem_encaps`] and
//! [`ml_kem_decaps`] drive one job on a local backend ([`run_kem_job`]).
//! Between rounds it calls the hash-free layers: the samplers
//! ([`sampling`]), the number-theoretic transform ([`ntt`]), K-PKE's
//! module arithmetic `t̂ = Â∘ŝ + ê`, and the FIPS 203
//! ByteEncode/ByteDecode and Compress/Decompress serialization
//! ([`encode`], [`compress`]).
//!
//! # Example
//!
//! ```
//! use krv_kyber::{ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, KyberParams};
//! use krv_sha3::ReferenceBackend;
//!
//! let params = KyberParams::KYBER768;
//! let (ek, dk) = ml_kem_keygen(params, &[7u8; 32], &[8u8; 32], ReferenceBackend::new());
//! let (ct, shared) =
//!     ml_kem_encaps(params, &ek, &[9u8; 32], ReferenceBackend::new()).unwrap();
//! let recovered = ml_kem_decaps(params, &dk, &ct, ReferenceBackend::new()).unwrap();
//! assert_eq!(shared, recovered);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod encode;
pub mod mlkem;
pub mod ntt;
mod pke;
pub mod poly;
#[cfg(test)]
mod reference;
pub mod sampling;

pub use mlkem::{
    ml_kem_decaps, ml_kem_encaps, ml_kem_keygen, run_kem_job, DecapsKey, EncapsKey, HashJob,
    KemError, KemJob, KemOp, KemResult, KemStaging,
};
pub use poly::{Poly, KYBER_N, KYBER_Q};

/// An ML-KEM parameter set (FIPS 203 Table 2): the module rank `k`, the
/// CBD widths η₁/η₂ and the ciphertext compression depths (d_u, d_v).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KyberParams {
    /// Module rank (matrix A is k × k).
    pub k: usize,
    /// CBD parameter for the secret/error vectors of key generation and
    /// the `r` vector of encryption.
    pub eta1: usize,
    /// CBD parameter for the encryption noise e₁/e₂ (2 for every set).
    pub eta2: usize,
    /// Compression depth of the ciphertext vector `u`.
    pub du: u32,
    /// Compression depth of the ciphertext scalar `v`.
    pub dv: u32,
}

impl KyberParams {
    /// ML-KEM-512 / Kyber512: k = 2, η₁ = 3, η₂ = 2, (d_u, d_v) = (10, 4).
    pub const KYBER512: KyberParams = KyberParams {
        k: 2,
        eta1: 3,
        eta2: 2,
        du: 10,
        dv: 4,
    };
    /// ML-KEM-768 / Kyber768: k = 3, η₁ = 2, η₂ = 2, (d_u, d_v) = (10, 4).
    pub const KYBER768: KyberParams = KyberParams {
        k: 3,
        eta1: 2,
        eta2: 2,
        du: 10,
        dv: 4,
    };
    /// ML-KEM-1024 / Kyber1024 (the paper's §1 example): k = 4, η₁ = 2,
    /// η₂ = 2, (d_u, d_v) = (11, 5).
    pub const KYBER1024: KyberParams = KyberParams {
        k: 4,
        eta1: 2,
        eta2: 2,
        du: 11,
        dv: 5,
    };

    /// The three FIPS 203 parameter sets, smallest first.
    pub const ALL: [KyberParams; 3] = [Self::KYBER512, Self::KYBER768, Self::KYBER1024];

    /// The FIPS 203 name of this set (`ML-KEM-512` …), or `ML-KEM-?` for
    /// a non-standard parameter combination.
    pub const fn label(&self) -> &'static str {
        match self.k {
            2 => "ML-KEM-512",
            3 => "ML-KEM-768",
            4 => "ML-KEM-1024",
            _ => "ML-KEM-?",
        }
    }

    /// Encapsulation-key length in bytes: `384k + 32`.
    pub const fn ek_len(&self) -> usize {
        384 * self.k + 32
    }

    /// Decapsulation-key length in bytes: `768k + 96`.
    pub const fn dk_len(&self) -> usize {
        768 * self.k + 96
    }

    /// Ciphertext length in bytes: `32(d_u·k + d_v)`.
    pub const fn ct_len(&self) -> usize {
        32 * (self.du as usize * self.k + self.dv as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_203_table_3_sizes() {
        assert_eq!(KyberParams::KYBER512.ek_len(), 800);
        assert_eq!(KyberParams::KYBER512.dk_len(), 1632);
        assert_eq!(KyberParams::KYBER512.ct_len(), 768);
        assert_eq!(KyberParams::KYBER768.ek_len(), 1184);
        assert_eq!(KyberParams::KYBER768.dk_len(), 2400);
        assert_eq!(KyberParams::KYBER768.ct_len(), 1088);
        assert_eq!(KyberParams::KYBER1024.ek_len(), 1568);
        assert_eq!(KyberParams::KYBER1024.dk_len(), 3168);
        assert_eq!(KyberParams::KYBER1024.ct_len(), 1568);
    }

    #[test]
    fn labels_name_the_standard_sets() {
        assert_eq!(KyberParams::KYBER512.label(), "ML-KEM-512");
        assert_eq!(KyberParams::KYBER768.label(), "ML-KEM-768");
        assert_eq!(KyberParams::KYBER1024.label(), "ML-KEM-1024");
    }
}
