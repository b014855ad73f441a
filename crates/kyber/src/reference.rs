//! The spec-literal arithmetic the crate shipped before it computed like
//! the pq-crystals reference implementation, kept as the test oracle for
//! the fast routines: `%`-based NTT, NTT⁻¹ and base multiplication over
//! runtime-derived twiddles, bit-serial ByteEncode/ByteDecode and CBD,
//! and division-based Compress/Decompress — each a line-by-line reading
//! of its FIPS 203 algorithm.
//!
//! The KEM fuzzer's tiers and the benchmark's expected outputs all run
//! the fast arithmetic, so only an independent implementation can catch
//! a shared fault in it. Every test below feeds the same seeded inputs —
//! 10 000 random ones plus the edge cases 0, 1, q − 1 and all-`0xFF`
//! encodings — to the fast routine and its oracle and demands identical
//! output. Tier-1 runs tests in debug, so the fast routines' `i16`
//! arithmetic also runs under overflow checks here.

use crate::poly::{Poly, KYBER_N, KYBER_Q};

fn pow_mod(base: u32, mut exp: u32) -> u32 {
    let mut acc = 1u32;
    let mut base = base % KYBER_Q as u32;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % KYBER_Q as u32;
        }
        base = base * base % KYBER_Q as u32;
        exp >>= 1;
    }
    acc
}

fn bitrev7(value: usize) -> usize {
    let mut out = 0;
    for bit in 0..7 {
        out |= ((value >> bit) & 1) << (6 - bit);
    }
    out
}

/// Forward NTT (FIPS 203 Algorithm 9), reducing with `%` at every step.
pub fn ntt(poly: &Poly) -> Poly {
    let mut f: Vec<u32> = poly.coeffs().iter().map(|&c| c as u32).collect();
    let q = KYBER_Q as u32;
    let mut k = 1;
    let mut len = KYBER_N / 2;
    while len >= 2 {
        let mut start = 0;
        while start < KYBER_N {
            let zeta = pow_mod(17, bitrev7(k) as u32);
            k += 1;
            for j in start..start + len {
                let t = zeta * f[j + len] % q;
                f[j + len] = (f[j] + q - t) % q;
                f[j] = (f[j] + t) % q;
            }
            start += 2 * len;
        }
        len /= 2;
    }
    collect(&f)
}

/// Inverse NTT (FIPS 203 Algorithm 10), reducing with `%` at every step.
pub fn inv_ntt(poly: &Poly) -> Poly {
    let mut f: Vec<u32> = poly.coeffs().iter().map(|&c| c as u32).collect();
    let q = KYBER_Q as u32;
    let mut k = 127;
    let mut len = 2;
    while len <= KYBER_N / 2 {
        let mut start = 0;
        while start < KYBER_N {
            let zeta = pow_mod(17, bitrev7(k) as u32);
            k -= 1;
            for j in start..start + len {
                let t = f[j];
                f[j] = (t + f[j + len]) % q;
                f[j + len] = zeta * ((f[j + len] + q - t) % q) % q;
            }
            start += 2 * len;
        }
        len *= 2;
    }
    for value in f.iter_mut() {
        *value = *value * 3303 % q; // 128⁻¹ mod q
    }
    collect(&f)
}

/// NTT-domain multiplication (FIPS 203 Algorithms 11–12).
pub fn basemul(a: &Poly, b: &Poly) -> Poly {
    let q = KYBER_Q as u64;
    let mut out = Poly::zero();
    for i in 0..KYBER_N / 2 {
        let (a0, a1) = (a.coeff(2 * i) as u64, a.coeff(2 * i + 1) as u64);
        let (b0, b1) = (b.coeff(2 * i) as u64, b.coeff(2 * i + 1) as u64);
        let zeta = pow_mod(17, 2 * bitrev7(i) as u32 + 1) as u64;
        let c0 = (a0 * b0 + a1 * b1 % q * zeta) % q;
        let c1 = (a0 * b1 + a1 * b0) % q;
        out.set_coeff(2 * i, c0 as u16);
        out.set_coeff(2 * i + 1, c1 as u16);
    }
    out
}

fn collect(values: &[u32]) -> Poly {
    let mut coeffs = [0u16; KYBER_N];
    for (slot, &value) in coeffs.iter_mut().zip(values) {
        *slot = value as u16;
    }
    Poly::from_coeffs(coeffs)
}

/// `Compress_d(x) = ⌈(2^d / q) · x⌋ mod 2^d`, by division.
pub fn compress_coeff(x: u16, d: u32) -> u16 {
    let numerator = ((x as u64) << d) + (KYBER_Q as u64) / 2;
    ((numerator / KYBER_Q as u64) & ((1 << d) - 1)) as u16
}

/// `Decompress_d(y) = ⌈(q / 2^d) · y⌋`.
pub fn decompress_coeff(y: u16, d: u32) -> u16 {
    (((y as u64 * KYBER_Q as u64) + (1 << (d - 1))) >> d) as u16
}

/// ByteEncode_d (FIPS 203 Algorithm 5), one bit at a time.
pub fn byte_encode(coeffs: &[u16; KYBER_N], d: u32) -> Vec<u8> {
    let mut out = vec![0u8; 32 * d as usize];
    for (i, &value) in coeffs.iter().enumerate() {
        for bit in 0..d as usize {
            if (value >> bit) & 1 == 1 {
                let position = d as usize * i + bit;
                out[position / 8] |= 1 << (position % 8);
            }
        }
    }
    out
}

/// ByteDecode_d (FIPS 203 Algorithm 6), one bit at a time, without the
/// final reduction mod q.
pub fn byte_decode(bytes: &[u8], d: u32) -> [u16; KYBER_N] {
    let mut coeffs = [0u16; KYBER_N];
    for (i, c) in coeffs.iter_mut().enumerate() {
        let mut value = 0u16;
        for bit in 0..d as usize {
            let position = d as usize * i + bit;
            value |= u16::from((bytes[position / 8] >> (position % 8)) & 1) << bit;
        }
        *c = value;
    }
    coeffs
}

/// SamplePolyCBD_η (FIPS 203 Algorithm 8), one bit at a time.
pub fn sample_cbd(stream: &[u8], eta: usize) -> Poly {
    let bit = |index: usize| -> u16 { (stream[index / 8] >> (index % 8)) as u16 & 1 };
    let mut coeffs = [0u16; KYBER_N];
    for (i, c) in coeffs.iter_mut().enumerate() {
        let mut x = 0u16;
        let mut y = 0u16;
        for j in 0..eta {
            x += bit(2 * i * eta + j);
            y += bit(2 * i * eta + eta + j);
        }
        *c = (x + KYBER_Q - y) % KYBER_Q;
    }
    Poly::from_coeffs(coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, encode, ntt, sampling};
    use krv_testkit::Rng;

    /// Random inputs per differential test, besides the edge cases.
    const CASES: usize = 10_000;
    /// Every compression depth FIPS 203 uses, and ByteEncode₁₂.
    const DEPTHS: [u32; 6] = [1, 4, 5, 10, 11, 12];
    /// Random inputs per depth, `CASES` over all of them.
    const PER_DEPTH: usize = CASES.div_ceil(DEPTHS.len());

    fn constant(value: u16) -> Poly {
        Poly::from_coeffs([value; KYBER_N])
    }

    /// A polynomial with coefficients uniform below `bound`.
    fn random_poly(rng: &mut Rng, bound: u16) -> Poly {
        Poly::from_coeffs(std::array::from_fn(|_| rng.below(bound as usize) as u16))
    }

    /// The polynomials 0, 1 and `bound − 1`, then `count` random ones
    /// below `bound`.
    fn polys(seed: u64, bound: u16, count: usize) -> impl Iterator<Item = Poly> {
        let mut rng = Rng::new(seed);
        [0, 1, bound - 1]
            .map(constant)
            .into_iter()
            .chain((0..count).map(move |_| random_poly(&mut rng, bound)))
    }

    /// All-`0x00` and all-`0xFF` strings of `len` bytes, then `count`
    /// random ones.
    fn encodings(seed: u64, len: usize, count: usize) -> impl Iterator<Item = Vec<u8>> {
        let mut rng = Rng::new(seed);
        [vec![0x00; len], vec![0xFF; len]]
            .into_iter()
            .chain((0..count).map(move |_| rng.bytes(len)))
    }

    #[test]
    fn ntt_matches_the_oracle() {
        for (case, poly) in polys(0x4E54_5431, KYBER_Q, CASES).enumerate() {
            assert_eq!(ntt::ntt(&poly), ntt(&poly), "case {case}");
        }
    }

    #[test]
    fn inv_ntt_matches_the_oracle() {
        for (case, poly) in polys(0x494E_5654, KYBER_Q, CASES).enumerate() {
            assert_eq!(ntt::inv_ntt(&poly), inv_ntt(&poly), "case {case}");
        }
    }

    #[test]
    fn basemul_accumulate_matches_the_oracle() {
        // One to five terms, one past the four a module row needs, so the
        // accumulator's intermediate reduction runs too.
        let mut rng = Rng::new(0x4241_5345);
        let a: Vec<Poly> = polys(0xA, KYBER_Q, CASES).collect();
        let b: Vec<Poly> = polys(0xB, KYBER_Q, CASES).collect();
        for case in 0..a.len() {
            let terms = 1 + case % 5;
            let pairs: Vec<(&Poly, &Poly)> = (0..terms)
                .map(|t| {
                    let index = if t == 0 { case } else { rng.below(a.len()) };
                    (&a[index], &b[(index + t) % b.len()])
                })
                .collect();
            let expected = pairs
                .iter()
                .fold(Poly::zero(), |acc, (x, y)| acc.add(&basemul(x, y)));
            assert_eq!(
                ntt::inner_product(pairs.iter().copied()),
                expected,
                "case {case}, {terms} terms"
            );
            if terms == 1 {
                assert_eq!(ntt::basemul(pairs[0].0, pairs[0].1), expected);
            }
        }
    }

    #[test]
    fn compress_and_decompress_match_the_oracle() {
        for d in [1u32, 4, 5, 10, 11] {
            // Every x in Z_q, so 0, 1 and q − 1 among them.
            for x in 0..KYBER_Q {
                assert_eq!(
                    compress::compress_coeff(x, d),
                    compress_coeff(x, d),
                    "Compress_{d}({x})"
                );
            }
            for y in 0..1u16 << d {
                assert_eq!(
                    compress::decompress_coeff(y, d),
                    decompress_coeff(y, d),
                    "Decompress_{d}({y})"
                );
            }
        }
        for (case, poly) in polys(0x434F_4D50, KYBER_Q, CASES).enumerate() {
            let d = [1u32, 4, 5, 10, 11][case % 5];
            let compressed = poly.coeffs().map(|x| compress::compress_coeff(x, d));
            let expected = poly.coeffs().map(|x| compress_coeff(x, d));
            assert_eq!(compressed, expected, "d={d} case {case}");
            assert_eq!(
                compressed.map(|y| compress::decompress_coeff(y, d)),
                compressed.map(|y| decompress_coeff(y, d)),
                "d={d} case {case}"
            );
        }
    }

    #[test]
    fn byte_encode_with_compression_matches_the_oracle() {
        for d in DEPTHS {
            let seed = 0x454E_4344 ^ u64::from(d);
            // ByteEncode_d of values that already fit in d bits.
            let bound = if d == 12 { KYBER_Q } else { 1 << d };
            for (case, poly) in polys(seed, bound, PER_DEPTH).enumerate() {
                assert_eq!(
                    encode::byte_encode(&poly, d),
                    byte_encode(poly.coeffs(), d),
                    "d={d} case {case}"
                );
            }
            // encode_vector folds Compress_d into the packing.
            for (case, poly) in polys(!seed, KYBER_Q, PER_DEPTH).enumerate() {
                let compressed = if d == 12 {
                    *poly.coeffs()
                } else {
                    poly.coeffs().map(|x| compress_coeff(x, d))
                };
                assert_eq!(
                    encode::encode_vector(&[poly], d),
                    byte_encode(&compressed, d),
                    "d={d} case {case}"
                );
            }
        }
    }

    #[test]
    fn byte_decode_with_decompression_matches_the_oracle() {
        for d in DEPTHS {
            let seed = 0x4445_4344 ^ u64::from(d);
            for (case, bytes) in encodings(seed, 32 * d as usize, PER_DEPTH).enumerate() {
                let raw = byte_decode(&bytes, d);
                // ByteDecode₁₂ reduces mod q: all-0xFF reads 4095 − q.
                let expected = Poly::from_coeffs(raw);
                assert_eq!(
                    encode::byte_decode(&bytes, d),
                    expected,
                    "d={d} case {case}"
                );
                // decode_vector folds Decompress_d into the unpacking.
                let decompressed = if d == 12 {
                    expected
                } else {
                    Poly::from_coeffs(raw.map(|y| decompress_coeff(y, d)))
                };
                assert_eq!(
                    encode::decode_vector(&bytes, d),
                    vec![decompressed],
                    "d={d} case {case}"
                );
                if d == 12 {
                    let first_bad = raw.iter().position(|&c| c >= KYBER_Q);
                    assert_eq!(
                        encode::byte_decode_canonical(&bytes),
                        first_bad.map_or(Ok(expected), Err),
                        "case {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn messages_match_the_oracle() {
        for (case, bytes) in encodings(0x4D53_4731, 32, CASES).enumerate() {
            let message: [u8; 32] = bytes.try_into().expect("32 bytes");
            let expected =
                Poly::from_coeffs(byte_decode(&message, 1).map(|y| decompress_coeff(y, 1)));
            assert_eq!(compress::message_to_poly(&message), expected, "case {case}");
        }
        for (case, poly) in polys(0x4D53_4732, KYBER_Q, CASES).enumerate() {
            let bits = byte_encode(&poly.coeffs().map(|x| compress_coeff(x, 1)), 1);
            assert_eq!(
                compress::poly_to_message(&poly).to_vec(),
                bits,
                "case {case}"
            );
        }
    }

    #[test]
    fn cbd_matches_the_oracle() {
        for eta in [2usize, 3] {
            let seed = 0x4342_4430 ^ eta as u64;
            for (case, stream) in encodings(seed, 64 * eta, CASES / 2).enumerate() {
                assert_eq!(
                    sampling::sample_cbd(&stream, eta),
                    sample_cbd(&stream, eta),
                    "η={eta} case {case}"
                );
            }
        }
    }
}
