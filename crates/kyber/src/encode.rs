//! FIPS 203 ByteEncode/ByteDecode (Algorithms 5–6): packing polynomial
//! coefficients into little-endian `d`-bit fields, and the key /
//! ciphertext serialization built from them.
//!
//! Coefficient `i` occupies bits `d·i .. d·(i+1)` of the byte stream,
//! least-significant bit first — so 256 coefficients always pack into
//! exactly `32·d` bytes, a whole number of 32-bit words. The packers move
//! whole words rather than bits, as the pq-crystals reference
//! implementation does (<https://github.com/pq-crystals/kyber>,
//! `ref/poly.c`), and [`encode_vector`]/[`decode_vector`] fold
//! Compress/Decompress into the same pass.

use crate::compress::{compress_coeff, decompress_coeff};
use crate::poly::{reduce_once, Poly, KYBER_N, KYBER_Q};

/// Packs `field(c)` for each of the 256 coefficients `c`, `d` bits
/// each, into `out` (`32·d` bytes): fields collect in a 64-bit buffer
/// that is written out 32 bits at a time, little-endian.
pub(crate) fn pack(out: &mut [u8], d: u32, coeffs: &[u16; KYBER_N], field: impl Fn(u16) -> u16) {
    debug_assert_eq!(out.len(), 32 * d as usize);
    let mut words = out.chunks_exact_mut(4);
    let (mut buffer, mut bits) = (0u64, 0);
    for &c in coeffs {
        buffer |= u64::from(field(c)) << bits;
        bits += d;
        if bits >= 32 {
            let word = words.next().expect("32·d bytes hold 256 d-bit fields");
            word.copy_from_slice(&(buffer as u32).to_le_bytes());
            buffer >>= 32;
            bits -= 32;
        }
    }
}

/// Unpacks `32·d` bytes into 256 `d`-bit fields, `coeff(field)` each,
/// refilling a 64-bit buffer 32 bits at a time.
pub(crate) fn unpack(bytes: &[u8], d: u32, coeff: impl Fn(u16) -> u16) -> [u16; KYBER_N] {
    debug_assert_eq!(bytes.len(), 32 * d as usize);
    let mask = (1 << d) - 1;
    let mut words = bytes.chunks_exact(4);
    let (mut buffer, mut bits) = (0u64, 0);
    let mut coeffs = [0u16; KYBER_N];
    for c in coeffs.iter_mut() {
        if bits < d {
            let word = words.next().expect("32·d bytes hold 256 d-bit fields");
            buffer |= u64::from(u32::from_le_bytes([word[0], word[1], word[2], word[3]])) << bits;
            bits += 32;
        }
        *c = coeff((buffer & mask) as u16);
        buffer >>= d;
        bits -= d;
    }
    coeffs
}

fn check_width(d: u32) {
    assert!(
        (1..=12).contains(&d),
        "ByteEncode/ByteDecode are defined for 1 ≤ d ≤ 12"
    );
}

/// Packs a polynomial's 256 coefficients into `32·d` little-endian
/// `d`-bit fields (FIPS 203 Algorithm 5).
///
/// # Panics
///
/// Panics if `d` is 0 or greater than 12, or (debug builds) if a
/// coefficient does not fit in `d` bits.
pub fn byte_encode(poly: &Poly, d: u32) -> Vec<u8> {
    check_width(d);
    let mut out = vec![0u8; 32 * d as usize];
    pack(&mut out, d, poly.coeffs(), |c| {
        debug_assert!(d == 12 || c >> d == 0, "coefficient over {d} bits");
        c
    });
    out
}

/// Unpacks `32·d` bytes back into a polynomial (FIPS 203 Algorithm 6).
/// For `d = 12` the raw 12-bit values are reduced mod q, as the
/// standard's `ByteDecode₁₂` specifies; use [`byte_decode_canonical`]
/// where FIPS 203's input validation requires rejecting non-canonical
/// encodings instead.
///
/// # Panics
///
/// Panics if `d` is out of range or `bytes.len() != 32·d`.
pub fn byte_decode(bytes: &[u8], d: u32) -> Poly {
    check_width(d);
    assert_eq!(bytes.len(), 32 * d as usize, "ByteDecode needs 32·d bytes");
    // Fields below 2¹² < 2q: one conditional subtraction reduces them.
    Poly::from_canonical(unpack(bytes, d, reduce_once))
}

/// `ByteDecode₁₂` with FIPS 203 §7.2's modulus check: every 12-bit field
/// must already be `< q`. Returns the index of the first out-of-range
/// coefficient on failure — the "type check" a malformed encapsulation
/// key fails.
///
/// # Panics
///
/// Panics if `bytes.len() != 384`.
pub fn byte_decode_canonical(bytes: &[u8]) -> Result<Poly, usize> {
    assert_eq!(bytes.len(), 384, "ByteDecode₁₂ needs 384 bytes");
    let coeffs = unpack(bytes, 12, |c| c);
    match coeffs.iter().position(|&c| c >= KYBER_Q) {
        Some(index) => Err(index),
        None => Ok(Poly::from_canonical(coeffs)),
    }
}

/// Serializes a vector of polynomials as consecutive `ByteEncode_d`
/// blocks, compressing each coefficient to `d` bits as it is packed
/// when `d < 12`.
///
/// # Panics
///
/// Panics if `d` is 0 or greater than 12.
pub fn encode_vector(polys: &[Poly], d: u32) -> Vec<u8> {
    check_width(d);
    let width = 32 * d as usize;
    let mut out = vec![0u8; polys.len() * width];
    for (bytes, poly) in out.chunks_exact_mut(width).zip(polys) {
        if d < 12 {
            pack(bytes, d, poly.coeffs(), |x| compress_coeff(x, d));
        } else {
            pack(bytes, d, poly.coeffs(), |x| x);
        }
    }
    out
}

/// Deserializes consecutive `ByteDecode_d` blocks, decompressing each
/// coefficient back into `[0, q)` as it is unpacked when `d < 12`.
///
/// # Panics
///
/// Panics if `d` is out of range or `bytes.len()` is not a multiple of
/// `32·d`.
pub fn decode_vector(bytes: &[u8], d: u32) -> Vec<Poly> {
    check_width(d);
    assert_eq!(bytes.len() % (32 * d as usize), 0, "ragged vector encoding");
    bytes
        .chunks_exact(32 * d as usize)
        .map(|chunk| {
            Poly::from_canonical(if d < 12 {
                unpack(chunk, d, |y| decompress_coeff(y, d))
            } else {
                unpack(chunk, d, reduce_once)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_coeff, decompress_coeff};

    fn sample(seed: u16, bound: u16) -> Poly {
        let mut coeffs = [0u16; KYBER_N];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = ((i as u32 * 131 + seed as u32 * 17 + 3) % bound as u32) as u16;
        }
        Poly::from_coeffs(coeffs)
    }

    #[test]
    fn encode_decode_round_trip_every_width() {
        for d in 1..=12u32 {
            let bound = if d == 12 { KYBER_Q } else { 1 << d };
            let poly = sample(d as u16, bound);
            let bytes = byte_encode(&poly, d);
            assert_eq!(bytes.len(), 32 * d as usize, "d={d}");
            assert_eq!(byte_decode(&bytes, d), poly, "d={d}");
        }
    }

    #[test]
    fn twelve_bit_decode_reduces_mod_q() {
        // 0xFFF in every field: ByteDecode₁₂ reduces 4095 → 4095 − q.
        let bytes = vec![0xFF; 384];
        let poly = byte_decode(&bytes, 12);
        assert!(poly.coeffs().iter().all(|&c| c == 4095 - KYBER_Q));
    }

    #[test]
    fn canonical_decode_rejects_out_of_range_fields() {
        let poly = sample(7, KYBER_Q);
        let mut bytes = byte_encode(&poly, 12);
        assert_eq!(byte_decode_canonical(&bytes), Ok(poly));
        // Force coefficient 1 (bits 12..24) to 4095 ≥ q.
        bytes[1] |= 0xF0;
        bytes[2] = 0xFF;
        assert_eq!(byte_decode_canonical(&bytes), Err(1));
    }

    #[test]
    fn vector_round_trip_is_compress_then_encode() {
        let polys = vec![sample(1, KYBER_Q), sample(2, KYBER_Q)];
        for d in [4u32, 5, 10, 11] {
            let bytes = encode_vector(&polys, d);
            assert_eq!(bytes.len(), 2 * 32 * d as usize);
            let back = decode_vector(&bytes, d);
            let round_trip = |x| decompress_coeff(compress_coeff(x, d), d);
            let expected: Vec<Poly> = polys
                .iter()
                .map(|p| Poly::from_coeffs(p.coeffs().map(round_trip)))
                .collect();
            assert_eq!(back, expected, "d={d}");
        }
        // d = 12 is exact: encode/decode is the identity.
        let bytes = encode_vector(&polys, 12);
        assert_eq!(decode_vector(&bytes, 12), polys);
    }
}
