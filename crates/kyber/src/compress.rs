//! Coefficient compression (FIPS 203 §4.2.1), without division.
//!
//! [`encode`](crate::encode) folds these into ByteEncode/ByteDecode, so a
//! ciphertext is compressed and packed, or unpacked and decompressed, in
//! one pass.

use crate::encode::{pack, unpack};
use crate::poly::{Poly, KYBER_Q};

/// `⌈2³⁵/q⌉`. For every `n < 2²³`, `(n·DIV_Q) >> 35 = ⌊n/q⌋`:
/// `n·DIV_Q/2³⁵` exceeds `n/q` by `n·(DIV_Q·q − 2³⁵)/(q·2³⁵) < n/2³⁵ <
/// 2⁻¹²`, less than the gap of at least `1/q` between `n/q` and the next
/// integer above it. Compress's numerators are below `q·2¹¹ + q < 2²³`.
const DIV_Q: u64 = (1 << 35) / KYBER_Q as u64 + 1;

/// `Compress_d(x) = ⌈(2^d / q) · x⌋ mod 2^d` for `x ∈ Z_q` and
/// `1 ≤ d ≤ 11`, as a multiply and a shift.
pub fn compress_coeff(x: u16, d: u32) -> u16 {
    debug_assert!(x < KYBER_Q && (1..12).contains(&d));
    let numerator = (u64::from(x) << d) + u64::from(KYBER_Q / 2);
    (((numerator * DIV_Q) >> 35) & ((1 << d) - 1)) as u16
}

/// `Decompress_d(y) = ⌈(q / 2^d) · y⌋` for a `d`-bit `y`, `1 ≤ d ≤ 11`.
pub fn decompress_coeff(y: u16, d: u32) -> u16 {
    debug_assert!((1..12).contains(&d) && y >> d == 0);
    ((u32::from(y) * u32::from(KYBER_Q) + (1 << (d - 1))) >> d) as u16
}

/// Encodes a 32-byte message as a polynomial: bit i becomes
/// `Decompress_1(bit)` = 0 or ⌈q/2⌋ (FIPS 203 Algorithm 14 step 20).
pub fn message_to_poly(message: &[u8; 32]) -> Poly {
    Poly::from_canonical(unpack(message, 1, |bit| decompress_coeff(bit, 1)))
}

/// Decodes a polynomial back into a 32-byte message via `Compress_1`.
pub fn poly_to_message(poly: &Poly) -> [u8; 32] {
    let mut message = [0u8; 32];
    pack(&mut message, 1, poly.coeffs(), |x| compress_coeff(x, 1));
    message
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::KYBER_N;

    #[test]
    fn division_constant_is_exact_over_the_whole_range() {
        let top = (u64::from(KYBER_Q - 1) << 11) + u64::from(KYBER_Q / 2);
        assert!(top < 1 << 23, "Compress's largest numerator");
        for n in 0..1u64 << 23 {
            assert_eq!((n * DIV_Q) >> 35, n / u64::from(KYBER_Q), "n={n}");
        }
    }

    #[test]
    fn compress_bounds() {
        for d in [1u32, 4, 5, 10, 11] {
            for x in [0u16, 1, 832, 1664, 1665, 3328] {
                assert!(compress_coeff(x, d) < (1 << d), "d={d} x={x}");
            }
        }
    }

    #[test]
    fn decompress_compress_small_error() {
        // |Decompress_d(Compress_d(x)) − x| ≤ ⌈q / 2^(d+1)⌋ (FIPS 203
        // Lemma in §4.2.1).
        for d in [4u32, 5, 10, 11] {
            let bound = (KYBER_Q as i32 + (1 << (d + 1)) - 1) / (1 << (d + 1));
            for x in 0..KYBER_Q {
                let back = decompress_coeff(compress_coeff(x, d), d) as i32;
                let mut error = (back - x as i32).abs();
                error = error.min(KYBER_Q as i32 - error);
                assert!(error <= bound, "d={d} x={x}: error {error} > {bound}");
            }
        }
    }

    #[test]
    fn one_bit_round_trip() {
        assert_eq!(compress_coeff(decompress_coeff(0, 1), 1), 0);
        assert_eq!(compress_coeff(decompress_coeff(1, 1), 1), 1);
        assert_eq!(decompress_coeff(1, 1), 1665, "⌈q/2⌋");
    }

    #[test]
    fn message_round_trip() {
        let mut message = [0u8; 32];
        for (i, byte) in message.iter_mut().enumerate() {
            *byte = (i as u8).wrapping_mul(37) ^ 0x5A;
        }
        assert_eq!(poly_to_message(&message_to_poly(&message)), message);
    }

    #[test]
    fn message_survives_small_noise() {
        // Decoding tolerates additive noise below q/4 per coefficient.
        let message = [0xA5u8; 32];
        let mut noisy = message_to_poly(&message);
        for i in 0..KYBER_N {
            let bump = (i % 500) as u16; // < q/4 ≈ 832
            noisy.set_coeff(i, (noisy.coeff(i) + bump) % KYBER_Q);
        }
        assert_eq!(poly_to_message(&noisy), message);
    }
}
