//! Seed expansion: the Keccak-heavy half of Kyber (FIPS 203 §4.2).

use crate::poly::{reduce_once, Poly, KYBER_N, KYBER_Q};
use krv_sha3::{hash_batch, BatchRequest, PermutationBackend, SpongeParams};

/// Rejection-samples one NTT-domain polynomial from an XOF stream
/// (FIPS 203 Algorithm 7, `SampleNTT`). Returns `None` if the stream is
/// too short — the caller squeezes more and retries.
pub fn sample_ntt(stream: &[u8]) -> Option<Poly> {
    let mut coeffs = [0u16; KYBER_N];
    let mut count = 0;
    for chunk in stream.chunks_exact(3) {
        let d1 = u16::from(chunk[0]) | (u16::from(chunk[1] & 0x0F) << 8);
        let d2 = u16::from(chunk[1] >> 4) | (u16::from(chunk[2]) << 4);
        // `count < 256` here: the loop returns as soon as it reaches 256.
        if d1 < KYBER_Q {
            coeffs[count] = d1;
            count += 1;
        }
        if d2 < KYBER_Q && count < KYBER_N {
            coeffs[count] = d2;
            count += 1;
        }
        if count == KYBER_N {
            return Some(Poly::from_canonical(coeffs));
        }
    }
    None
}

/// Centered binomial distribution sampler (FIPS 203 Algorithm 8,
/// `SamplePolyCBD_η`): each coefficient is the difference of two η-bit
/// popcounts, mapped into `[0, q)`.
///
/// # Panics
///
/// Panics if `stream.len() != 64 * eta` or `eta` is not 2 or 3.
pub fn sample_cbd(stream: &[u8], eta: usize) -> Poly {
    assert!(eta == 2 || eta == 3, "Kyber uses η ∈ {{2, 3}}");
    assert_eq!(stream.len(), 64 * eta, "CBD needs 64·η bytes");
    if eta == 2 {
        cbd::<2>(stream)
    } else {
        cbd::<3>(stream)
    }
}

/// `SamplePolyCBD_η` with bit-sliced popcounts, as the pq-crystals
/// reference implementation computes it
/// (<https://github.com/pq-crystals/kyber>, `ref/cbd.c`): eight
/// coefficients take `16η` bits, one word, and summing the word's η
/// shifted copies under a mask with one bit per η-bit field leaves every
/// field holding its own popcount.
fn cbd<const ETA: usize>(stream: &[u8]) -> Poly {
    let mut mask = 0u64;
    for field in 0..16 {
        mask |= 1 << (ETA * field);
    }
    let field_mask = (1 << ETA) - 1;
    let mut coeffs = [0u16; KYBER_N];
    for (group, bytes) in coeffs.chunks_exact_mut(8).zip(stream.chunks_exact(2 * ETA)) {
        let mut word = [0u8; 8];
        word[..2 * ETA].copy_from_slice(bytes);
        let word = u64::from_le_bytes(word);
        let mut popcounts = 0;
        for shift in 0..ETA {
            popcounts += (word >> shift) & mask;
        }
        for (i, c) in group.iter_mut().enumerate() {
            let x = (popcounts >> (2 * ETA * i)) & field_mask;
            let y = (popcounts >> (2 * ETA * i + ETA)) & field_mask;
            *c = reduce_once(x as u16 + KYBER_Q - y as u16);
        }
    }
    Poly::from_canonical(coeffs)
}

/// A SHAKE128 output block (168 bytes, the rate).
pub const SHAKE128_BLOCK: usize = 168;

/// Expands the k × k public matrix **Â** from `rho` with work-scheduled
/// SHAKE128 batches — the paper's §1 motivating workload. Entry (i, j)
/// is sampled from `SHAKE128(rho ‖ j ‖ i)` directly in the NTT domain.
///
/// All k² streams are hashed in one drain-and-refill batch
/// ([`hash_batch`]). The rare entries whose three-block stream rejects
/// too much are retried **individually** with a longer output — a SHAKE
/// stream is prefix-stable, so re-hashing with a longer length extends
/// the short stream bit-for-bit and the result is identical to an
/// incremental top-up. Entries that succeeded never touch the hardware
/// again.
pub fn expand_matrix<B: PermutationBackend>(
    rho: &[u8; 32],
    k: usize,
    mut backend: B,
) -> Vec<Vec<Poly>> {
    let inputs: Vec<Vec<u8>> = (0..k * k)
        .map(|entry| {
            let (i, j) = (entry / k, entry % k);
            let mut input = rho.to_vec();
            input.push(j as u8);
            input.push(i as u8);
            input
        })
        .collect();
    // Three SHAKE blocks ≈ 99.9 % success per entry.
    let requests: Vec<BatchRequest<'_>> = inputs
        .iter()
        .map(|input| BatchRequest::new(input, 3 * SHAKE128_BLOCK))
        .collect();
    let streams = hash_batch(SpongeParams::shake(128), &mut backend, &requests);
    let mut polys: Vec<Option<Poly>> = streams.iter().map(|s| sample_ntt(s)).collect();
    let mut blocks = 4;
    while polys.iter().any(Option::is_none) {
        // Per-entry retry: only the failed entries go back to the
        // hardware, with one more output block each round.
        let failed: Vec<usize> = polys
            .iter()
            .enumerate()
            .filter(|(_, poly)| poly.is_none())
            .map(|(index, _)| index)
            .collect();
        let retries: Vec<BatchRequest<'_>> = failed
            .iter()
            .map(|&index| BatchRequest::new(&inputs[index], blocks * SHAKE128_BLOCK))
            .collect();
        let longer = hash_batch(SpongeParams::shake(128), &mut backend, &retries);
        for (&index, stream) in failed.iter().zip(&longer) {
            polys[index] = sample_ntt(stream);
        }
        blocks += 1;
    }
    let polys: Vec<Poly> = polys.into_iter().map(Option::unwrap).collect();
    polys.chunks(k).map(|row| row.to_vec()).collect()
}

/// Expands the secret and error vectors from `sigma` with one
/// work-scheduled SHAKE256 batch (`s_i = CBD(PRF(sigma, i))`,
/// `e_i = CBD(PRF(sigma, k + i))`).
pub fn expand_secrets<B: PermutationBackend>(
    sigma: &[u8; 32],
    k: usize,
    eta: usize,
    backend: B,
) -> (Vec<Poly>, Vec<Poly>) {
    let inputs: Vec<Vec<u8>> = (0..2 * k)
        .map(|nonce| {
            let mut input = sigma.to_vec();
            input.push(nonce as u8);
            input
        })
        .collect();
    let requests: Vec<BatchRequest<'_>> = inputs
        .iter()
        .map(|input| BatchRequest::new(input, 64 * eta))
        .collect();
    let streams = hash_batch(SpongeParams::shake(256), backend, &requests);
    let mut polys: Vec<Poly> = streams.iter().map(|s| sample_cbd(s, eta)).collect();
    let errors = polys.split_off(k);
    (polys, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_sha3::ReferenceBackend;

    #[test]
    fn sample_ntt_rejects_large_values() {
        // A stream of 0xFF yields d-values ≥ q: nothing accepted.
        assert!(sample_ntt(&[0xFF; 768]).is_none());
        // A stream of zeros accepts immediately.
        let poly = sample_ntt(&[0x00; 384]).expect("zeros accepted");
        assert!(poly.coeffs().iter().all(|&c| c == 0));
    }

    #[test]
    fn sample_ntt_coefficients_below_q() {
        let stream: Vec<u8> = (0..1024u32).map(|i| (i * 89) as u8).collect();
        if let Some(poly) = sample_ntt(&stream) {
            assert!(poly.coeffs().iter().all(|&c| c < KYBER_Q));
        }
    }

    #[test]
    fn cbd_coefficients_are_centered_small() {
        let stream: Vec<u8> = (0..128u32).map(|i| (i * 37 + 5) as u8).collect();
        let poly = sample_cbd(&stream, 2);
        for &c in poly.coeffs() {
            let centered = if c > KYBER_Q / 2 {
                c as i32 - KYBER_Q as i32
            } else {
                c as i32
            };
            assert!((-2..=2).contains(&centered), "η=2 bounds, got {centered}");
        }
        let stream3: Vec<u8> = (0..192u32).map(|i| (i * 53 + 1) as u8).collect();
        let poly3 = sample_cbd(&stream3, 3);
        for &c in poly3.coeffs() {
            let centered = if c > KYBER_Q / 2 {
                c as i32 - KYBER_Q as i32
            } else {
                c as i32
            };
            assert!((-3..=3).contains(&centered), "η=3 bounds, got {centered}");
        }
    }

    #[test]
    fn cbd_is_roughly_centered() {
        // Pseudo-random stream: mean of centered coefficients near 0.
        let stream: Vec<u8> = (0..128u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let poly = sample_cbd(&stream, 2);
        let sum: i32 = poly
            .coeffs()
            .iter()
            .map(|&c| {
                if c > KYBER_Q / 2 {
                    c as i32 - KYBER_Q as i32
                } else {
                    c as i32
                }
            })
            .sum();
        assert!(sum.abs() < 128, "mean far from zero: {sum}");
    }

    #[test]
    fn matrix_matches_standalone_per_entry_sampling() {
        // Oracle: each entry sampled from its own unbatched SHAKE128
        // stream must equal the scheduled batch's result.
        use krv_sha3::{Shake128, Xof};
        for (seed, k) in [(0x42u8, 2usize), (0xA7, 3), (0x00, 4)] {
            let rho = [seed; 32];
            let matrix = expand_matrix(&rho, k, ReferenceBackend::new());
            for i in 0..k {
                for j in 0..k {
                    let mut xof = Shake128::new();
                    xof.update(&rho);
                    xof.update(&[j as u8, i as u8]);
                    let mut stream = xof.squeeze(3 * SHAKE128_BLOCK);
                    let expected = loop {
                        if let Some(poly) = sample_ntt(&stream) {
                            break poly;
                        }
                        stream.extend(xof.squeeze(SHAKE128_BLOCK));
                    };
                    assert_eq!(matrix[i][j], expected, "entry ({i}, {j}), seed {seed}");
                }
            }
        }
    }

    #[test]
    fn secrets_match_standalone_prf() {
        use krv_sha3::{Shake256, Xof};
        let sigma = [0x5Cu8; 32];
        let (k, eta) = (3usize, 2usize);
        let (s, e) = expand_secrets(&sigma, k, eta, ReferenceBackend::new());
        for (nonce, poly) in s.iter().chain(&e).enumerate() {
            let mut xof = Shake256::new();
            xof.update(&sigma);
            xof.update(&[nonce as u8]);
            assert_eq!(
                *poly,
                sample_cbd(&xof.squeeze(64 * eta), eta),
                "nonce {nonce}"
            );
        }
    }

    #[test]
    fn matrix_is_deterministic_and_asymmetric() {
        let rho = [9u8; 32];
        let a1 = expand_matrix(&rho, 2, ReferenceBackend::new());
        let a2 = expand_matrix(&rho, 2, ReferenceBackend::new());
        assert_eq!(a1, a2, "deterministic");
        assert_ne!(a1[0][1], a1[1][0], "A is not symmetric (i, j ordering)");
    }

    #[test]
    fn secrets_differ_between_s_and_e() {
        let sigma = [3u8; 32];
        let (s, e) = expand_secrets(&sigma, 3, 2, ReferenceBackend::new());
        assert_eq!(s.len(), 3);
        assert_eq!(e.len(), 3);
        assert_ne!(s[0], e[0], "distinct PRF nonces");
    }
}
