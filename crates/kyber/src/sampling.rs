//! The samplers of FIPS 203 §4.2.2: `SampleNTT` turns a SHAKE128 stream
//! into an entry of the matrix Â, `SamplePolyCBD` a PRF stream into a
//! small noise polynomial. [`KemJob`](crate::KemJob) stages the streams.

use crate::poly::{reduce_once, Poly, KYBER_N, KYBER_Q};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
