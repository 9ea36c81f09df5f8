//! Self-contained pseudo-random number generation.
//!
//! The workspace must build and test **offline**, so it cannot depend on the
//! `rand` crate. This module provides the small RNG surface the rest of the
//! workspace needs: a seedable [`StdRng`] built on xoshiro256++ (seeded
//! through SplitMix64, following the reference recommendation), uniform
//! floats, integer ranges and Gaussian sampling.
//!
//! The API deliberately mirrors the subset of `rand` the workspace used
//! (`seed_from_u64`, `random`, `random_range`) so call sites read the same,
//! plus the short aliases `gen_f64` / `gen_range` / `normal`.
//!
//! ```
//! use sensact_math::rng::StdRng;
//! let mut a = StdRng::seed_from_u64(7);
//! let mut b = StdRng::seed_from_u64(7);
//! assert_eq!(a.gen_f64(), b.gen_f64());
//! assert!(a.gen_range(0..10usize) < 10);
//! ```

/// The SplitMix64 output finalizer: a bijective 64-bit avalanche mix. Every
/// seeded hash of the workspace (EDF tie-break keys, causal span ids, the
/// network simulator's draws) ends in this one function, so their bits are
/// pinned together.
#[inline]
pub fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 step: used to expand a 64-bit seed into xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    splitmix64_finalize(*state)
}

/// Seedable xoshiro256++ generator — the workspace-wide standard RNG.
///
/// Deterministic for a given seed on every platform; `Clone` gives an exact
/// replica of the stream state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Construct from a 64-bit seed (SplitMix64 state expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }

    /// The raw xoshiro256++ state words — the generator's exact stream
    /// position. Round-trips through [`StdRng::from_state`] so a checkpoint
    /// can resume the stream mid-sequence instead of reseeding.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator at an exact stream position captured with
    /// [`StdRng::state`]. The next draw equals what the captured generator
    /// would have produced next.
    pub fn from_state(s: [u64; 4]) -> Self {
        StdRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++ scrambler).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample of a primitive type; see [`SampleUniform`] for the
    /// supported types (`f64` in `[0, 1)`, full-range integers, fair `bool`).
    #[inline]
    pub fn random<T: SampleUniform>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform sample from an integer range (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    #[inline]
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Alias for [`StdRng::random_range`].
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Uniform u64 below `bound` via Lemire-style widening multiply with
    /// rejection (unbiased).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Rejection zone keeps the multiply-shift map exactly uniform.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Types [`StdRng::random`] can produce.
pub trait SampleUniform: Sized {
    /// Draw one uniform sample.
    fn sample(rng: &mut StdRng) -> Self;
}

impl SampleUniform for f64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> f64 {
        rng.gen_f64()
    }
}

impl SampleUniform for u64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl SampleUniform for u32 {
    #[inline]
    fn sample(rng: &mut StdRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl SampleUniform for bool {
    #[inline]
    fn sample(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`StdRng::random_range`] can sample from.
pub trait SampleRange {
    /// Element type of the range.
    type Output;
    /// Draw one uniform sample from the range.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "random_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "random_range: empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, u16, u8, i64, i32);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "random_range: empty range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answer: the reference SplitMix64 stream from state 0.
    #[test]
    fn splitmix64_matches_the_reference_stream() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut state), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_f64_mean_near_half() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let a = rng.random_range(0..7usize);
            assert!(a < 7);
            let b = rng.random_range(3..=5u16);
            assert!((3..=5).contains(&b));
            let c = rng.random_range(-4..4i32);
            assert!((-4..4).contains(&c));
            let d = rng.random_range(-1.5..2.5);
            assert!((-1.5..2.5).contains(&d));
        }
    }

    #[test]
    fn every_range_value_reachable() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.random_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.random_range(5..5usize);
    }

    #[test]
    fn bool_and_ints_vary() {
        let mut rng = StdRng::seed_from_u64(7);
        let trues = (0..1000).filter(|_| rng.random::<bool>()).count();
        assert!((400..600).contains(&trues), "{trues} trues");
        let a: u32 = rng.random();
        let b: u32 = rng.random();
        assert_ne!((a, b), (0, 0));
    }
}
