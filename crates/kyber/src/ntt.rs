//! The Kyber number-theoretic transform (FIPS 203 §4.3), computed the way
//! the pq-crystals reference implementation computes it
//! (<https://github.com/pq-crystals/kyber>, `ref/ntt.c` and
//! `ref/reduce.c`).
//!
//! `x^256 + 1` does not split into linear factors mod q = 3329 (only
//! 256th roots of unity exist), so Kyber uses the seven-layer incomplete
//! NTT: the transform maps a polynomial to 128 degree-one residues, and
//! NTT-domain multiplication is a per-pair "base multiplication" by
//! `x² − ζ^(2·bitrev₇(i)+1)`.
//!
//! The butterflies run in place on signed 16-bit coefficients. Products
//! are reduced with Montgomery's method, which yields `a·b·2⁻¹⁶ mod q`,
//! so every twiddle is stored premultiplied by 2¹⁶; sums stay unreduced
//! while their bound allows, and Barrett's method brings a coefficient
//! back into range. Both twiddle tables are computed at compile time by
//! `const fn`s from the primitive root ζ = 17 — nothing is transcribed
//! from reference tables, so the convolution-theorem test against
//! [`Poly::schoolbook_mul`] is a real cross-check. [`Poly`] stays
//! canonical at the boundary: every public function here takes and
//! returns coefficients in `[0, q)`, and none allocates.

use crate::poly::{Poly, KYBER_N, KYBER_Q};

/// The primitive 256th root of unity mod q used by Kyber.
pub const ZETA: u16 = 17;

const Q: i32 = KYBER_Q as i32;
/// q⁻¹ mod 2¹⁶, as a signed 16-bit value.
const QINV: i16 = -3327;
/// 2³² mod q: a Montgomery product with it multiplies by 2¹⁶, undoing
/// one Montgomery reduction.
const R2: i16 = ((1u64 << 32) % KYBER_Q as u64) as i16;
/// 128⁻¹·2¹⁶ mod q = 2⁹: the inverse transform's final scale, as a
/// Montgomery product.
const INV_SCALE: i16 = 512;

const fn pow_mod(base: u32, mut exp: u32) -> u32 {
    let mut acc = 1;
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

const fn bitrev7(value: usize) -> u32 {
    (value as u8).reverse_bits() as u32 >> 1
}

/// `ζ^exp · 2¹⁶ mod q`, centered in `[−(q−1)/2, (q−1)/2]`.
const fn mont_power(exp: u32) -> i16 {
    let value = (pow_mod(ZETA as u32, exp) << 16) % KYBER_Q as u32;
    if value > KYBER_Q as u32 / 2 {
        value as i16 - KYBER_Q as i16
    } else {
        value as i16
    }
}

/// `ζ^bitrev₇(i)` in Montgomery form: the butterfly twiddles of FIPS 203
/// Algorithms 9 and 10.
const ZETAS: [i16; 128] = {
    let mut table = [0; 128];
    let mut i = 0;
    while i < 128 {
        table[i] = mont_power(bitrev7(i));
        i += 1;
    }
    table
};

/// `γᵢ = ζ^(2·bitrev₇(i)+1)` in Montgomery form: the moduli `x² − γᵢ`
/// of FIPS 203 Algorithm 11.
const GAMMAS: [i16; 128] = {
    let mut table = [0; 128];
    let mut i = 0;
    while i < 128 {
        table[i] = mont_power(2 * bitrev7(i) + 1);
        i += 1;
    }
    table
};

/// `a·2⁻¹⁶ mod q` in `(−q, q)`, for `|a| < q·2¹⁵` (Montgomery reduction).
#[inline]
fn montgomery_reduce(a: i32) -> i16 {
    let t = (a as i16).wrapping_mul(QINV);
    ((a - i32::from(t) * Q) >> 16) as i16
}

/// `a·b·2⁻¹⁶ mod q` in `(−q, q)`.
#[inline]
fn fqmul(a: i16, b: i16) -> i16 {
    montgomery_reduce(i32::from(a) * i32::from(b))
}

/// The representative of `a` mod q in `[−(q−1)/2, (q−1)/2]` (Barrett
/// reduction).
#[inline]
fn barrett_reduce(a: i16) -> i16 {
    const V: i32 = ((1 << 26) + Q / 2) / Q;
    let t = (V * i32::from(a) + (1 << 25)) >> 26;
    (i32::from(a) - t * Q) as i16
}

/// `a mod q` in `[0, q)`.
#[inline]
fn canonical(a: i16) -> u16 {
    let r = barrett_reduce(a);
    (r + ((r >> 15) & Q as i16)) as u16
}

fn signed(poly: &Poly) -> [i16; KYBER_N] {
    poly.coeffs().map(|c| c as i16)
}

fn to_poly(f: &[i16; KYBER_N]) -> Poly {
    Poly::from_canonical(f.map(canonical))
}

/// Forward NTT in place (FIPS 203 Algorithm 9). Coefficients with
/// `|a| < q` in normal order come out in bit-reversed order; each layer
/// adds less than q to the bound, so `|â| < 8q`.
fn ntt_in_place(f: &mut [i16; KYBER_N]) {
    let mut k = 1;
    let mut len = KYBER_N / 2;
    while len >= 2 {
        for block in f.chunks_exact_mut(2 * len) {
            let zeta = ZETAS[k];
            k += 1;
            let (lo, hi) = block.split_at_mut(len);
            for (a, b) in lo.iter_mut().zip(hi) {
                let t = fqmul(zeta, *b);
                *b = *a - t;
                *a += t;
            }
        }
        len /= 2;
    }
}

/// Inverse NTT in place (FIPS 203 Algorithm 10), with its final scale
/// by 128⁻¹. Sums are Barrett-reduced and differences multiplied down,
/// so every coefficient keeps `|a| < q` throughout.
fn inv_ntt_in_place(f: &mut [i16; KYBER_N]) {
    let mut k = 127;
    let mut len = 2;
    while len <= KYBER_N / 2 {
        for block in f.chunks_exact_mut(2 * len) {
            let zeta = ZETAS[k];
            k -= 1;
            let (lo, hi) = block.split_at_mut(len);
            for (a, b) in lo.iter_mut().zip(hi) {
                let t = *a;
                *a = barrett_reduce(t + *b);
                *b = fqmul(zeta, *b - t);
            }
        }
        len *= 2;
    }
    for c in f.iter_mut() {
        *c = fqmul(*c, INV_SCALE);
    }
}

/// `acc += a∘b·2⁻¹⁶`: the 128 base multiplications of FIPS 203
/// Algorithm 11 as Montgomery products, each adding less than 2q to a
/// coefficient of `acc`.
fn basemul_acc(acc: &mut [i16; KYBER_N], a: &Poly, b: &Poly) {
    let pairs = a.coeffs().chunks_exact(2).zip(b.coeffs().chunks_exact(2));
    for ((c, (a, b)), &gamma) in acc.chunks_exact_mut(2).zip(pairs).zip(&GAMMAS) {
        let (a0, a1) = (a[0] as i16, a[1] as i16);
        let (b0, b1) = (b[0] as i16, b[1] as i16);
        c[0] += fqmul(fqmul(a1, b1), gamma) + fqmul(a0, b0);
        c[1] += fqmul(a0, b1) + fqmul(a1, b0);
    }
}

/// Forward NTT (FIPS 203 Algorithm 9).
pub fn ntt(poly: &Poly) -> Poly {
    let mut f = signed(poly);
    ntt_in_place(&mut f);
    to_poly(&f)
}

/// Inverse NTT (FIPS 203 Algorithm 10).
pub fn inv_ntt(poly: &Poly) -> Poly {
    let mut f = signed(poly);
    inv_ntt_in_place(&mut f);
    to_poly(&f)
}

/// NTT-domain multiplication (FIPS 203 Algorithms 11–12): 128 base
/// multiplications modulo `x² − ζ^(2·bitrev₇(i)+1)`.
pub fn basemul(a: &Poly, b: &Poly) -> Poly {
    inner_product([(a, b)])
}

/// `Σⱼ âⱼ∘b̂ⱼ` in the NTT domain: the module inner product behind
/// `Â∘ŝ`, `Âᵀ∘r̂`, `t̂ᵀ∘r̂` and `ŝᵀ∘û`. The base multiplications accumulate
/// in place without reduction — a module row has at most four terms,
/// and four stay below 2¹⁵ — and the sum is reduced once at the end.
pub fn inner_product<'a>(pairs: impl IntoIterator<Item = (&'a Poly, &'a Poly)>) -> Poly {
    let mut acc = [0; KYBER_N];
    for (term, (a, b)) in pairs.into_iter().enumerate() {
        if term > 0 && term % 4 == 0 {
            // Past a module row's four terms: make room for four more.
            for c in acc.iter_mut() {
                *c = barrett_reduce(*c);
            }
        }
        basemul_acc(&mut acc, a, b);
    }
    // Every product carried a factor 2⁻¹⁶; multiply it back out.
    to_poly(&acc.map(|c| fqmul(c, R2)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u32) -> Poly {
        let mut coeffs = [0u16; KYBER_N];
        let mut state = seed | 1;
        for c in coeffs.iter_mut() {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *c = (state >> 16) as u16 % KYBER_Q;
        }
        Poly::from_coeffs(coeffs)
    }

    #[test]
    fn zeta_is_a_primitive_256th_root() {
        assert_eq!(pow_mod(ZETA as u32, 128), KYBER_Q as u32 - 1, "ζ^128 = −1");
        assert_eq!(pow_mod(ZETA as u32, 256), 1, "ζ^256 = 1");
    }

    #[test]
    fn montgomery_constants_are_inverses() {
        assert_eq!(QINV.wrapping_mul(KYBER_Q as i16), 1, "q·q⁻¹ ≡ 1 mod 2¹⁶");
        let r = (1i64 << 16) % i64::from(Q);
        assert_eq!(i64::from(R2), r * r % i64::from(Q), "R² mod q");
        assert_eq!(i64::from(INV_SCALE) * 128 % i64::from(Q), r, "2⁹ = R/128");
    }

    #[test]
    fn twiddles_match_the_pq_crystals_table() {
        // The first entries of `zetas` in pq-crystals ref/ntt.c.
        assert_eq!(ZETAS[..8], [-1044, -758, -359, -1517, 1493, 1422, 287, 202]);
        for (i, &gamma) in GAMMAS.iter().enumerate() {
            // γ₂ᵢ₊₁ = −γ₂ᵢ, and γ₂ᵢ = ζ^bitrev₇(64 + i).
            if i % 2 == 1 {
                assert_eq!(gamma, -GAMMAS[i - 1], "γ{i}");
            } else {
                assert_eq!(gamma, ZETAS[64 + i / 2], "γ{i}");
            }
        }
    }

    #[test]
    fn barrett_reduce_is_centered_for_every_i16() {
        for a in i16::MIN..=i16::MAX {
            let r = barrett_reduce(a);
            assert!(r.abs() <= (KYBER_Q as i16 - 1) / 2, "a={a}: {r}");
            assert_eq!((i32::from(a) - i32::from(r)).rem_euclid(Q), 0, "a={a}");
            assert_eq!(i32::from(canonical(a)), i32::from(a).rem_euclid(Q), "a={a}");
        }
    }

    #[test]
    fn montgomery_reduce_stays_below_q() {
        // The extremes and a stride through the valid input range.
        let limit = Q << 15;
        let inputs = [-limit, -limit + 1, -1, 0, 1, limit - 1]
            .into_iter()
            .chain((-limit..limit).step_by(99_991));
        for a in inputs {
            let r = montgomery_reduce(a);
            assert!(i32::from(r).abs() < Q, "a={a}: {r}");
            assert_eq!(
                (i64::from(r) << 16).rem_euclid(i64::from(Q)),
                i64::from(a).rem_euclid(i64::from(Q)),
                "a={a}"
            );
        }
    }

    #[test]
    fn ntt_round_trip() {
        for seed in [1u32, 42, 0xFFFF_0001] {
            let p = sample(seed);
            assert_eq!(inv_ntt(&ntt(&p)), p, "seed {seed}");
        }
    }

    #[test]
    fn ntt_is_linear() {
        let (a, b) = (sample(5), sample(6));
        assert_eq!(ntt(&a.add(&b)), ntt(&a).add(&ntt(&b)));
    }

    #[test]
    fn convolution_theorem_matches_schoolbook() {
        // The decisive cross-check: NTT → basemul → inverse NTT equals
        // direct negacyclic multiplication.
        for seed in [3u32, 777] {
            let (a, b) = (sample(seed), sample(seed + 1));
            let via_ntt = inv_ntt(&basemul(&ntt(&a), &ntt(&b)));
            assert_eq!(via_ntt, a.schoolbook_mul(&b), "seed {seed}");
        }
    }

    #[test]
    fn inner_product_sums_the_products() {
        let a: Vec<Poly> = (0..9).map(|s| ntt(&sample(s))).collect();
        let b: Vec<Poly> = (0..9).map(|s| ntt(&sample(100 + s))).collect();
        for terms in 1..=9 {
            let expected = (0..terms).fold(Poly::zero(), |acc, j| acc.add(&basemul(&a[j], &b[j])));
            let pairs = a[..terms].iter().zip(&b[..terms]);
            assert_eq!(inner_product(pairs), expected, "{terms} terms");
        }
        assert_eq!(inner_product([]), Poly::zero());
    }

    #[test]
    fn basemul_with_one_in_ntt_domain() {
        let one_hat = ntt(&{
            let mut one = Poly::zero();
            one.set_coeff(0, 1);
            one
        });
        let a = sample(11);
        let a_hat = ntt(&a);
        assert_eq!(inv_ntt(&basemul(&a_hat, &one_hat)), a);
    }
}
