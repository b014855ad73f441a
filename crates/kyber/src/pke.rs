//! K-PKE encryption and decryption (FIPS 203 Algorithms 14–15).
//!
//! Together with [`keygen`](crate::keygen::keygen) this closes the loop on the paper's
//! future-work workload: `decrypt(encrypt(m)) == m` exercises every
//! SHAKE path (matrix re-expansion, the r/e₁/e₂ PRF samples) plus the
//! NTT algebra and the compression pipeline end to end.
//!
//! The hash-free arithmetic of all three K-PKE algorithms lives here
//! once: `t̂ = Â∘ŝ + ê`, the `u`/`v` of encryption and the message of
//! decryption. Both the library path ([`keygen`](crate::keygen::keygen),
//! [`encrypt`], [`decrypt`]) and the staged [`KemJob`](crate::KemJob)
//! call it.

use crate::compress::{compress_poly, decompress_poly, message_to_poly, poly_to_message};
use crate::keygen::KeyPair;
use crate::ntt::{inner_product, inv_ntt, ntt};
use crate::poly::Poly;
use crate::sampling::{expand_matrix, sample_cbd};
use crate::KyberParams;
use krv_sha3::{hash_batch, BatchRequest, PermutationBackend, SpongeParams};

/// A K-PKE ciphertext: compressed vector `u` and scalar `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    /// Compressed `u` (d_u bits per coefficient), length k.
    pub u: Vec<Poly>,
    /// Compressed `v` (d_v bits per coefficient).
    pub v: Poly,
    /// The (d_u, d_v) pair used, recorded for decryption.
    pub du_dv: (u32, u32),
}

/// The encryption noise of one K-PKE.Encrypt: `r` (η₁), `e₁` (η₂) and
/// `e₂` (η₂), in the coefficient domain.
#[derive(Debug, Clone)]
pub(crate) struct Noise {
    r: Vec<Poly>,
    e1: Vec<Poly>,
    e2: Poly,
}

impl Noise {
    /// Samples the noise from its 2k+1 `PRF` streams, nonces `0..=2k` in
    /// order: `r` from nonces `0..k`, `e₁` from `k..2k`, `e₂` from `2k`.
    pub(crate) fn from_streams(params: KyberParams, streams: &[Vec<u8>]) -> Self {
        let k = params.k;
        let cbd = |stream: &Vec<u8>, eta: usize| sample_cbd(&stream[..64 * eta], eta);
        Self {
            r: streams[..k].iter().map(|s| cbd(s, params.eta1)).collect(),
            e1: streams[k..2 * k]
                .iter()
                .map(|s| cbd(s, params.eta2))
                .collect(),
            e2: cbd(&streams[2 * k], params.eta2),
        }
    }
}

/// K-PKE.KeyGen's arithmetic (FIPS 203 Algorithm 13, steps 16–18): from
/// the matrix Â and the noise vectors `s` and `e`, returns `(t̂, ŝ)` with
/// `ŝ = NTT(s)` and `t̂ = Â∘ŝ + NTT(e)`.
pub(crate) fn keygen_polys(a_hat: &[Vec<Poly>], s: &[Poly], e: &[Poly]) -> (Vec<Poly>, Vec<Poly>) {
    let s_hat: Vec<Poly> = s.iter().map(ntt).collect();
    let t_hat = a_hat
        .iter()
        .zip(e)
        .map(|(row, e)| inner_product(row.iter().zip(&s_hat)).add(&ntt(e)))
        .collect();
    (t_hat, s_hat)
}

/// K-PKE.Encrypt's arithmetic (FIPS 203 Algorithm 14, steps 18–21),
/// before compression: `u = NTT⁻¹(Âᵀ∘r̂) + e₁` and
/// `v = NTT⁻¹(t̂ᵀ∘r̂) + e₂ + Decompress₁(m)`.
pub(crate) fn encrypt_polys(
    a_hat: &[Vec<Poly>],
    t_hat: &[Poly],
    message: &[u8; 32],
    noise: &Noise,
) -> (Vec<Poly>, Poly) {
    let r_hat: Vec<Poly> = noise.r.iter().map(ntt).collect();
    let u = noise
        .e1
        .iter()
        .enumerate()
        .map(|(i, e1)| {
            let column = a_hat.iter().map(|row| &row[i]); // Âᵀ
            inv_ntt(&inner_product(column.zip(&r_hat))).add(e1)
        })
        .collect();
    let v = inv_ntt(&inner_product(t_hat.iter().zip(&r_hat)))
        .add(&noise.e2)
        .add(&message_to_poly(message));
    (u, v)
}

/// K-PKE.Decrypt's arithmetic (FIPS 203 Algorithm 15, steps 6–7), after
/// decompression: the message `Compress₁(v − NTT⁻¹(ŝᵀ∘NTT(u)))`.
pub(crate) fn decrypt_polys(s_hat: &[Poly], u: &[Poly], v: &Poly) -> [u8; 32] {
    let u_hat: Vec<Poly> = u.iter().map(ntt).collect();
    poly_to_message(&v.sub(&inv_ntt(&inner_product(s_hat.iter().zip(&u_hat)))))
}

/// Encrypts a 32-byte message under `(rho, t̂)` with encryption
/// randomness derived from `coins` (FIPS 203 Algorithm 14).
pub fn encrypt<B: PermutationBackend>(
    params: KyberParams,
    keypair: &KeyPair,
    message: &[u8; 32],
    coins: &[u8; 32],
    mut backend: B,
) -> Ciphertext {
    let a_hat = expand_matrix(&keypair.rho, params.k, &mut backend);
    // r (η₁), e₁ (η₂) and e₂ (η₂) from one work-scheduled PRF batch.
    let noise = expand_noise(params, coins, &mut backend);
    let (u, v) = encrypt_polys(&a_hat, &keypair.t_hat, message, &noise);
    let (du, dv) = (params.du, params.dv);
    Ciphertext {
        u: u.iter().map(|p| compress_poly(p, du)).collect(),
        v: compress_poly(&v, dv),
        du_dv: (du, dv),
    }
}

/// Decrypts a ciphertext with the secret vector ŝ (FIPS 203
/// Algorithm 15).
pub fn decrypt(params: KyberParams, keypair: &KeyPair, ciphertext: &Ciphertext) -> [u8; 32] {
    let (du, dv) = ciphertext.du_dv;
    let u: Vec<Poly> = ciphertext
        .u
        .iter()
        .map(|p| decompress_poly(p, du))
        .collect();
    let v = decompress_poly(&ciphertext.v, dv);
    decrypt_polys(&keypair.s_hat[..params.k], &u, &v)
}

/// Derives the encryption noise from `coins` with one work-scheduled
/// SHAKE256 batch of the 2k+1 `PRF(coins, nonce)` streams.
///
/// The drain-and-refill scheduler accepts per-request output lengths,
/// so the η₁ ≠ η₂ case (Kyber512) needs no squeeze-the-longer-stream-
/// and-truncate workaround, and `e₂` rides in the same batch instead of
/// a separate hardware dispatch.
fn expand_noise<B: PermutationBackend>(params: KyberParams, coins: &[u8; 32], backend: B) -> Noise {
    let k = params.k;
    let inputs: Vec<Vec<u8>> = (0..=2 * k)
        .map(|nonce| {
            let mut input = coins.to_vec();
            input.push(nonce as u8);
            input
        })
        .collect();
    let requests: Vec<BatchRequest<'_>> = inputs
        .iter()
        .enumerate()
        .map(|(index, input)| {
            let eta = if index < k { params.eta1 } else { params.eta2 };
            BatchRequest::new(input, 64 * eta)
        })
        .collect();
    let streams = hash_batch(SpongeParams::shake(256), backend, &requests);
    Noise::from_streams(params, &streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keygen::keygen;
    use krv_sha3::ReferenceBackend;

    fn round_trip(params: KyberParams, seed_byte: u8) {
        let seed = [seed_byte; 32];
        let keypair = keygen(params, &seed, ReferenceBackend::new());
        let mut message = [0u8; 32];
        for (i, byte) in message.iter_mut().enumerate() {
            *byte = (i as u8).wrapping_mul(29) ^ seed_byte;
        }
        let coins = [seed_byte.wrapping_add(1); 32];
        let ciphertext = encrypt(params, &keypair, &message, &coins, ReferenceBackend::new());
        let decrypted = decrypt(params, &keypair, &ciphertext);
        assert_eq!(decrypted, message, "k={}", params.k);
    }

    #[test]
    fn encrypt_decrypt_round_trip_512() {
        round_trip(KyberParams::KYBER512, 0x11);
        round_trip(KyberParams::KYBER512, 0x99);
    }

    #[test]
    fn encrypt_decrypt_round_trip_768() {
        round_trip(KyberParams::KYBER768, 0x22);
        round_trip(KyberParams::KYBER768, 0xEE);
    }

    #[test]
    fn encrypt_decrypt_round_trip_1024() {
        round_trip(KyberParams::KYBER1024, 0x33);
    }

    #[test]
    fn wrong_key_garbles_the_message() {
        let params = KyberParams::KYBER768;
        let alice = keygen(params, &[1u8; 32], ReferenceBackend::new());
        let mallory = keygen(params, &[2u8; 32], ReferenceBackend::new());
        let message = [0x77u8; 32];
        let ciphertext = encrypt(
            params,
            &alice,
            &message,
            &[5u8; 32],
            ReferenceBackend::new(),
        );
        assert_ne!(decrypt(params, &mallory, &ciphertext), message);
    }

    #[test]
    fn ciphertexts_are_randomized_by_coins() {
        let params = KyberParams::KYBER768;
        let keypair = keygen(params, &[9u8; 32], ReferenceBackend::new());
        let message = [0u8; 32];
        let c1 = encrypt(
            params,
            &keypair,
            &message,
            &[1u8; 32],
            ReferenceBackend::new(),
        );
        let c2 = encrypt(
            params,
            &keypair,
            &message,
            &[2u8; 32],
            ReferenceBackend::new(),
        );
        assert_ne!(c1, c2);
        assert_eq!(decrypt(params, &keypair, &c1), message);
        assert_eq!(decrypt(params, &keypair, &c2), message);
    }
}
