//! Polynomials over `Z_q[x] / (x^256 + 1)` with q = 3329.

use core::fmt;

/// Polynomial degree bound.
pub const KYBER_N: usize = 256;
/// The Kyber modulus.
pub const KYBER_Q: u16 = 3329;

/// A polynomial with 256 coefficients in `[0, q)`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Poly {
    coeffs: [u16; KYBER_N],
}

impl Poly {
    /// The zero polynomial.
    pub const fn zero() -> Self {
        Self {
            coeffs: [0; KYBER_N],
        }
    }

    /// Creates a polynomial from coefficients, reducing each mod q.
    pub fn from_coeffs(raw: [u16; KYBER_N]) -> Self {
        let mut coeffs = raw;
        for c in coeffs.iter_mut() {
            *c %= KYBER_Q;
        }
        Self { coeffs }
    }

    /// Wraps coefficients the caller has already reduced into `[0, q)`.
    pub(crate) fn from_canonical(coeffs: [u16; KYBER_N]) -> Self {
        debug_assert!(coeffs.iter().all(|&c| c < KYBER_Q), "coefficient ≥ q");
        Self { coeffs }
    }

    /// The coefficient array.
    pub fn coeffs(&self) -> &[u16; KYBER_N] {
        &self.coeffs
    }

    /// Coefficient `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ 256`.
    pub fn coeff(&self, i: usize) -> u16 {
        self.coeffs[i]
    }

    /// Sets coefficient `i` (reduced mod q).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ 256`.
    pub fn set_coeff(&mut self, i: usize, value: u16) {
        self.coeffs[i] = value % KYBER_Q;
    }

    /// Pointwise (coefficient-wise) addition mod q.
    pub fn add(&self, other: &Poly) -> Poly {
        let mut out = *self;
        for (c, &o) in out.coeffs.iter_mut().zip(&other.coeffs) {
            *c = reduce_once(*c + o);
        }
        out
    }

    /// Pointwise subtraction mod q.
    pub fn sub(&self, other: &Poly) -> Poly {
        let mut out = *self;
        for (c, &o) in out.coeffs.iter_mut().zip(&other.coeffs) {
            *c = reduce_once(*c + KYBER_Q - o);
        }
        out
    }

    /// Schoolbook negacyclic multiplication: the reference semantics of
    /// `Z_q[x]/(x^256 + 1)` multiplication, used to validate the NTT.
    pub fn schoolbook_mul(&self, other: &Poly) -> Poly {
        let mut acc = [0i64; KYBER_N];
        for i in 0..KYBER_N {
            for j in 0..KYBER_N {
                let product = self.coeffs[i] as i64 * other.coeffs[j] as i64;
                let degree = i + j;
                if degree < KYBER_N {
                    acc[degree] += product;
                } else {
                    acc[degree - KYBER_N] -= product; // x^256 ≡ −1
                }
            }
        }
        let mut out = Poly::zero();
        for i in 0..KYBER_N {
            out.coeffs[i] = acc[i].rem_euclid(KYBER_Q as i64) as u16;
        }
        out
    }
}

/// `x mod q` for `x < 2q`: one conditional subtraction, branch-free (if
/// `x < q`, `x − q` wraps above `x` and the minimum keeps `x`).
pub(crate) fn reduce_once(x: u16) -> u16 {
    x.min(x.wrapping_sub(KYBER_Q))
}

impl Default for Poly {
    fn default() -> Self {
        Self::zero()
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Poly[{} {} {} {} …]",
            self.coeffs[0], self.coeffs[1], self.coeffs[2], self.coeffs[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u16) -> Poly {
        let mut coeffs = [0u16; KYBER_N];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = ((i as u32 * 31 + seed as u32 * 7 + 11) % KYBER_Q as u32) as u16;
        }
        Poly::from_coeffs(coeffs)
    }

    #[test]
    fn add_sub_round_trip() {
        let (a, b) = (sample(1), sample(2));
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn from_coeffs_reduces() {
        let mut raw = [0u16; KYBER_N];
        raw[0] = KYBER_Q;
        raw[1] = KYBER_Q + 5;
        let p = Poly::from_coeffs(raw);
        assert_eq!(p.coeff(0), 0);
        assert_eq!(p.coeff(1), 5);
    }

    #[test]
    fn reduce_once_maps_below_two_q_into_range() {
        for x in 0..2 * KYBER_Q {
            assert_eq!(reduce_once(x), x % KYBER_Q, "x={x}");
        }
    }

    #[test]
    fn add_sub_wrap_at_the_modulus() {
        let mut a = Poly::zero();
        let mut b = Poly::zero();
        a.set_coeff(0, KYBER_Q - 1);
        b.set_coeff(0, 1);
        assert_eq!(a.add(&b).coeff(0), 0);
        assert_eq!(b.sub(&a).coeff(0), 2);
        assert_eq!(Poly::zero().sub(&b).coeff(0), KYBER_Q - 1);
    }

    #[test]
    fn schoolbook_mul_is_negacyclic() {
        // x^255 · x = x^256 = −1.
        let mut a = Poly::zero();
        a.set_coeff(255, 1);
        let mut b = Poly::zero();
        b.set_coeff(1, 1);
        let product = a.schoolbook_mul(&b);
        assert_eq!(product.coeff(0), KYBER_Q - 1);
        for i in 1..KYBER_N {
            assert_eq!(product.coeff(i), 0);
        }
    }

    #[test]
    fn multiplication_by_one_is_identity() {
        let a = sample(9);
        let mut one = Poly::zero();
        one.set_coeff(0, 1);
        assert_eq!(a.schoolbook_mul(&one), a);
    }
}
