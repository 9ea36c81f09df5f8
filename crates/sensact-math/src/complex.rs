//! A minimal complex-number type used by the spectral Koopman machinery.
//!
//! Koopman eigenvalues come in complex-conjugate pairs `μ ± jω`; the
//! [`Complex64`] type carries them around and provides the handful of
//! operations the encoder and eigen-solver need.

/// A double-precision complex number.
///
/// ```
/// use sensact_math::Complex64;
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!(z.abs_sq(), 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Construct from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Construct from polar coordinates `(r, θ)`.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Modulus `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|²` (cheaper than [`Complex64::abs`]).
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1 / z`.
    ///
    /// # Panics
    ///
    /// Panics if `z` is zero.
    pub(crate) fn recip(self) -> Self {
        let d = self.abs_sq();
        assert!(d > 0.0, "reciprocal of zero complex number");
        Complex64::new(self.re / d, -self.im / d)
    }
}

impl std::ops::Add for Complex64 {
    type Output = Complex64;
    fn add(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64::new(self.re - o.re, self.im - o.im)
    }
}

impl std::ops::Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl std::ops::Mul<f64> for Complex64 {
    type Output = Complex64;
    fn mul(self, s: f64) -> Complex64 {
        Complex64::new(self.re * s, self.im * s)
    }
}

impl std::ops::Div for Complex64 {
    type Output = Complex64;
    // Division by multiplication with the reciprocal — the `*` is the point.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, o: Complex64) -> Complex64 {
        self * o.recip()
    }
}

impl std::ops::Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::new(re, 0.0)
    }
}

impl std::fmt::Display for Complex64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(2.0, -3.0);
        assert_eq!(z + Complex64::new(0.0, 0.0), z);
        assert_eq!(z * Complex64::new(1.0, 0.0), z);
        assert_eq!(z - z, Complex64::new(0.0, 0.0));
        assert_eq!(-z, Complex64::new(-2.0, 3.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }

    #[test]
    fn recip_and_div() {
        let z = Complex64::new(3.0, 4.0);
        let w = z * z.recip();
        assert!((w.re - 1.0).abs() < 1e-12 && w.im.abs() < 1e-12);
        let q = Complex64::new(1.0, 1.0) / Complex64::new(1.0, -1.0);
        assert!((q.re).abs() < 1e-12 && (q.im - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_of_zero_panics() {
        let _ = Complex64::new(0.0, 0.0).recip();
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn prop_modulus_multiplicative() {
        let mut rng = StdRng::seed_from_u64(0xC0301);
        for _ in 0..256 {
            let a = Complex64::new(rng.random_range(-10.0..10.0), rng.random_range(-10.0..10.0));
            let b = Complex64::new(rng.random_range(-10.0..10.0), rng.random_range(-10.0..10.0));
            assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
        }
    }
}
