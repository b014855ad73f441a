//! K-PKE key generation (FIPS 203 Algorithm 13, Keccak-relevant core).

use crate::pke::keygen_polys;
use crate::poly::Poly;
use crate::sampling::{expand_matrix, expand_secrets};
use crate::KyberParams;
use krv_sha3::{PermutationBackend, Sha3_512};

/// A K-PKE key pair in the NTT domain.
///
/// `t̂ = Â ∘ ŝ + ê` — the public value; `s_hat` is the secret vector.
/// (The byte-encoded FIPS 203 key formats live in [`crate::mlkem`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    /// The public matrix seed ρ (re-expanded by the verifier).
    pub rho: [u8; 32],
    /// Public vector t̂ (NTT domain), length k.
    pub t_hat: Vec<Poly>,
    /// Secret vector ŝ (NTT domain), length k.
    pub s_hat: Vec<Poly>,
    /// Error vector e (coefficient domain), kept for validation.
    pub e: Vec<Poly>,
}

/// Runs K-PKE key generation from a 32-byte seed on the given
/// permutation backend.
///
/// The seed is split with SHA3-512 into the matrix seed ρ and the noise
/// seed σ (FIPS 203's `G`); **Â** comes from lockstep SHAKE128, **s**
/// and **e** from lockstep SHAKE256 — all through `backend`, which may
/// be the simulated SIMD processor.
pub fn keygen<B: PermutationBackend>(
    params: KyberParams,
    seed: &[u8; 32],
    mut backend: B,
) -> KeyPair {
    // G(seed): rho ‖ sigma.
    let mut g = Sha3_512::with_backend(&mut backend);
    g.update(seed);
    g.update(&[params.k as u8]); // FIPS 203 domain-separates by k.
    let digest = g.finalize();
    let mut rho = [0u8; 32];
    let mut sigma = [0u8; 32];
    rho.copy_from_slice(&digest[..32]);
    sigma.copy_from_slice(&digest[32..]);

    let a_hat = expand_matrix(&rho, params.k, &mut backend);
    let (s, e) = expand_secrets(&sigma, params.k, params.eta1, &mut backend);
    let (t_hat, s_hat) = keygen_polys(&a_hat, &s, &e);

    KeyPair {
        rho,
        t_hat,
        s_hat,
        e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::{basemul, inv_ntt};
    use crate::sampling::expand_matrix;
    use krv_sha3::ReferenceBackend;

    #[test]
    fn keygen_is_deterministic() {
        let seed = [0x42u8; 32];
        let a = keygen(KyberParams::KYBER768, &seed, ReferenceBackend::new());
        let b = keygen(KyberParams::KYBER768, &seed, ReferenceBackend::new());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = keygen(KyberParams::KYBER512, &[1u8; 32], ReferenceBackend::new());
        let b = keygen(KyberParams::KYBER512, &[2u8; 32], ReferenceBackend::new());
        assert_ne!(a.t_hat, b.t_hat);
    }

    #[test]
    fn lattice_equation_holds() {
        // The defining relation: t − A·s = e in the coefficient domain.
        for params in [
            KyberParams::KYBER512,
            KyberParams::KYBER768,
            KyberParams::KYBER1024,
        ] {
            let seed = [0x5Au8; 32];
            let keypair = keygen(params, &seed, ReferenceBackend::new());
            let a_hat = expand_matrix(&keypair.rho, params.k, ReferenceBackend::new());
            for i in 0..params.k {
                let mut as_i = Poly::zero();
                for j in 0..params.k {
                    as_i = as_i.add(&basemul(&a_hat[i][j], &keypair.s_hat[j]));
                }
                let residual = inv_ntt(&keypair.t_hat[i].sub(&as_i));
                assert_eq!(residual, keypair.e[i], "k={} row {i}", params.k);
            }
        }
    }

    #[test]
    fn secret_coefficients_are_small() {
        let keypair = keygen(KyberParams::KYBER768, &[7u8; 32], ReferenceBackend::new());
        for poly in &keypair.e {
            for &c in poly.coeffs() {
                let centered = if c > crate::KYBER_Q / 2 {
                    c as i32 - crate::KYBER_Q as i32
                } else {
                    c as i32
                };
                assert!(centered.abs() <= 2, "η=2 error bound");
            }
        }
    }
}
