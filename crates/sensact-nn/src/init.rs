//! Deterministic weight initialization and Gaussian sampling helpers.
//!
//! All stochastic components in the workspace draw from an explicit
//! [`Initializer`] so that every experiment is reproducible from its seed.

use sensact_math::rng::StdRng;

/// Seeded random source for weight init and reparameterization noise.
///
/// ```
/// use sensact_nn::Initializer;
/// let mut a = Initializer::new(1);
/// let mut b = Initializer::new(1);
/// assert_eq!(a.uniform(-1.0, 1.0), b.uniform(-1.0, 1.0));
/// ```
#[derive(Debug)]
pub struct Initializer {
    rng: StdRng,
    spare_gaussian: Option<f64>,
}

impl Initializer {
    /// Create from a seed.
    pub fn new(seed: u64) -> Self {
        Initializer {
            rng: StdRng::seed_from_u64(seed),
            spare_gaussian: None,
        }
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform: empty range");
        lo + (hi - lo) * self.rng.random::<f64>()
    }

    /// Standard normal sample (Box–Muller with spare caching).
    pub(crate) fn gaussian(&mut self) -> f64 {
        if let Some(g) = self.spare_gaussian.take() {
            return g;
        }
        loop {
            let u1: f64 = self.rng.random();
            let u2: f64 = self.rng.random();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.spare_gaussian = Some(r * theta.sin());
            return r * theta.cos();
        }
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Xavier/Glorot-uniform weight buffer for a `fan_in → fan_out` layer.
    pub(crate) fn xavier(&mut self, fan_in: usize, fan_out: usize) -> Vec<f64> {
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        (0..fan_in * fan_out)
            .map(|_| self.uniform(-limit, limit))
            .collect()
    }

    /// He-normal weight buffer (preferred before ReLU).
    pub(crate) fn he(&mut self, fan_in: usize, count: usize) -> Vec<f64> {
        let std = (2.0 / fan_in as f64).sqrt();
        (0..count).map(|_| self.normal(0.0, std)).collect()
    }

    /// Fork a child initializer with an independent stream.
    pub fn fork(&mut self) -> Initializer {
        Initializer::new(self.rng.random::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Initializer::new(99);
        let mut b = Initializer::new(99);
        for _ in 0..32 {
            assert_eq!(a.gaussian(), b.gaussian());
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Initializer::new(1);
        let mut b = Initializer::new(2);
        let va: Vec<f64> = (0..8).map(|_| a.uniform(0.0, 1.0)).collect();
        let vb: Vec<f64> = (0..8).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gaussian_moments_roughly_standard() {
        let mut init = Initializer::new(5);
        let xs: Vec<f64> = (0..20_000).map(|_| init.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut init = Initializer::new(3);
        for _ in 0..1000 {
            let x = init.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn xavier_bounds_and_size() {
        let mut init = Initializer::new(3);
        let w = init.xavier(10, 20);
        assert_eq!(w.len(), 200);
        let limit = (6.0f64 / 30.0).sqrt();
        assert!(w.iter().all(|x| x.abs() <= limit));
    }

    #[test]
    fn he_size() {
        let mut init = Initializer::new(3);
        assert_eq!(init.he(8, 24).len(), 24);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Initializer::new(7);
        let mut c1 = root.fork();
        let mut c2 = root.fork();
        assert_ne!(c1.uniform(0.0, 1.0), c2.uniform(0.0, 1.0));
    }
}
