//! GF(2⁸) arithmetic for the Reed–Solomon comparator.
//!
//! The field is GF(2)\[x\] / (x⁸ + x⁴ + x³ + x² + 1) (the 0x11D polynomial
//! used by most storage RS implementations). Multiplication and inversion
//! go through log/antilog tables built once at startup.

/// The AES-adjacent primitive polynomial 0x11D (x⁸+x⁴+x³+x²+1).
const POLY: u16 = 0x11D;

/// Log/antilog tables for GF(256) under generator 2.
pub struct Gf256 {
    log: [u8; 256],
    exp: [u8; 512],
}

impl Gf256 {
    /// Builds the tables (255 multiplications; do it once and share).
    pub fn new() -> Self {
        let mut log = [0u8; 256];
        let mut exp = [0u8; 512];
        let mut x: u16 = 1;
        for (i, slot) in exp.iter_mut().enumerate().take(255) {
            *slot = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Self { log, exp }
    }

    /// Field addition (= subtraction = XOR).
    #[inline]
    pub(crate) fn add(a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    #[inline]
    pub(crate) fn inv(&self, a: u8) -> u8 {
        assert!(a != 0, "zero has no inverse");
        self.exp[255 - self.log[a as usize] as usize]
    }

    /// `base^power` by log-space multiplication.
    #[inline]
    pub(crate) fn pow(&self, base: u8, power: usize) -> u8 {
        if base == 0 {
            return if power == 0 { 1 } else { 0 };
        }
        let l = self.log[base as usize] as usize * (power % 255);
        self.exp[l % 255]
    }

    /// Multiplies `src` by scalar `c` and XORs into `dst` (the RS encode
    /// inner loop).
    ///
    /// Trivial coefficients are peeled off before table dispatch: `c == 0`
    /// skips entirely, `c == 1` is a plain word-wide XOR, and everything
    /// else runs the nibble-table kernel ([`crate::kernels::mul_acc`]).
    #[inline]
    pub(crate) fn mul_acc(&self, dst: &mut [u8], src: &[u8], c: u8) {
        crate::kernels::mul_acc(self, dst, src, c);
    }
}

impl Default for Gf256 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplication_agrees_with_schoolbook() {
        // Carry-less schoolbook multiply mod POLY.
        fn slow_mul(mut a: u16, mut b: u16) -> u8 {
            let mut acc: u16 = 0;
            while b != 0 {
                if b & 1 != 0 {
                    acc ^= a;
                }
                a <<= 1;
                if a & 0x100 != 0 {
                    a ^= POLY;
                }
                b >>= 1;
            }
            acc as u8
        }
        let f = Gf256::new();
        for a in 0..=255u16 {
            for b in (0..=255u16).step_by(7) {
                assert_eq!(f.mul(a as u8, b as u8), slow_mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn field_axioms_spot_checks() {
        let f = Gf256::new();
        for a in 1..=255u8 {
            assert_eq!(f.mul(a, f.inv(a)), 1, "a = {a}");
            assert_eq!(f.mul(a, 1), a);
            assert_eq!(f.mul(a, 0), 0);
        }
        // Distributivity samples.
        for &(a, b, c) in &[(3u8, 7u8, 200u8), (91, 4, 17), (255, 254, 253)] {
            assert_eq!(
                f.mul(a, Gf256::add(b, c)),
                Gf256::add(f.mul(a, b), f.mul(a, c))
            );
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let f = Gf256::new();
        for base in [1u8, 2, 3, 29, 255] {
            let mut acc = 1u8;
            for p in 0..40 {
                assert_eq!(f.pow(base, p), acc, "base {base} pow {p}");
                acc = f.mul(acc, base);
            }
        }
        assert_eq!(f.pow(0, 0), 1);
        assert_eq!(f.pow(0, 5), 0);
    }

    #[test]
    fn mul_acc_accumulates() {
        let f = Gf256::new();
        let src = [1u8, 2, 3, 255];
        let mut dst = [9u8, 9, 9, 9];
        f.mul_acc(&mut dst, &src, 0);
        assert_eq!(dst, [9, 9, 9, 9], "c = 0 is a no-op");
        f.mul_acc(&mut dst, &src, 1);
        assert_eq!(dst, [8, 11, 10, 246], "c = 1 is XOR");
        let mut dst2 = [0u8; 4];
        f.mul_acc(&mut dst2, &src, 7);
        for i in 0..4 {
            assert_eq!(dst2[i], f.mul(src[i], 7));
        }
    }
}
