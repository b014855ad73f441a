//! The hash-free arithmetic of K-PKE (FIPS 203 Algorithms 13–15):
//! `t̂ = Â∘ŝ + ê` of key generation, the `u`/`v` of encryption and the
//! message of decryption.
//!
//! K-PKE is not a stand-alone scheme (FIPS 203 §5): [`KemJob`](crate::KemJob)
//! derives every seed, matrix and noise vector these routines take, and
//! calls them between its hash rounds.

use crate::compress::{message_to_poly, poly_to_message};
use crate::ntt::{inner_product, inv_ntt, ntt};
use crate::poly::Poly;
use crate::sampling::sample_cbd;
use crate::KyberParams;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::basemul;
    use crate::KYBER_Q;
    use krv_testkit::Rng;

    #[test]
    fn keygen_polys_satisfy_the_lattice_relation() {
        // The defining relation of a K-PKE key: t − A·s = e in the
        // coefficient domain, for a uniform Â and CBD_η₁ vectors s, e.
        let mut rng = Rng::new(0x4C41_5454);
        for params in KyberParams::ALL {
            let (k, eta) = (params.k, params.eta1);
            let mut uniform = || {
                let coeffs = std::array::from_fn(|_| rng.below(usize::from(KYBER_Q)) as u16);
                Poly::from_coeffs(coeffs)
            };
            let a_hat: Vec<Vec<Poly>> = (0..k)
                .map(|_| (0..k).map(|_| uniform()).collect())
                .collect();
            let mut small = || sample_cbd(&rng.bytes(64 * eta), eta);
            let s: Vec<Poly> = (0..k).map(|_| small()).collect();
            let e: Vec<Poly> = (0..k).map(|_| small()).collect();
            let (t_hat, s_hat) = keygen_polys(&a_hat, &s, &e);
            assert_eq!(s_hat, s.iter().map(ntt).collect::<Vec<_>>());
            for i in 0..k {
                let mut as_i = Poly::zero();
                for j in 0..k {
                    as_i = as_i.add(&basemul(&a_hat[i][j], &s_hat[j]));
                }
                let residual = inv_ntt(&t_hat[i].sub(&as_i));
                assert_eq!(residual, e[i], "{} row {i}", params.label());
            }
        }
    }
}
