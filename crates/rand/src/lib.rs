//! Vendored, dependency-free shim for the subset of the `rand` 0.8 API used
//! by this workspace.
//!
//! The build environment has no access to a crates registry, so the workspace
//! vendors its two external dependencies (`rand`, `proptest`) as minimal
//! in-tree implementations with the same package names. This crate provides:
//!
//! - [`rngs::StdRng`] — a seedable xoshiro256++ generator (same construction
//!   as the upstream `seed_from_u64`: a SplitMix64 stream expands the seed);
//! - [`Rng`] with `gen`, `gen_range` (half-open and inclusive integer and
//!   float ranges) and `gen_bool`;
//! - [`SeedableRng`] with `from_seed` / `seed_from_u64`.
//!
//! The generator is deterministic given a seed, which is all the workspace
//! relies on; the exact streams differ from upstream `rand`, so seeds produce
//! different (but still fixed) datasets than a registry build would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The core of a random number generator: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits (upper half of a `u64`).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be instantiated from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed material.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from raw seed bytes.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with a SplitMix64 stream (the same
    /// scheme `rand_core` uses) and builds the generator from it.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distributions usable with [`Rng::gen`].
pub mod distributions {
    use super::RngCore;

    /// The "natural" distribution for a type: unit-interval floats, uniform
    /// integers, fair bools.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Standard;

    /// A distribution that can produce values of type `T`.
    pub trait Distribution<T> {
        /// Samples one value using `rng`.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 random mantissa bits -> uniform in [0, 1).
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Distribution<u32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<u64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<usize> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
            rng.next_u64() as usize
        }
    }
}

/// Draws a uniform value in `[0, span)` by rejection so every residue is
/// equally likely. `span` must be non-zero.
fn uniform_below(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    debug_assert!(span > 0);
    // Largest multiple of `span` that fits in 2^64, minus one.
    let rem = (u64::MAX % span + 1) % span;
    let limit = u64::MAX - rem;
    loop {
        let v = rng.next_u64();
        if v <= limit {
            return v % span;
        }
    }
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Samples a single uniform value from the range. Panics if empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range called with empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range called with empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    // Full 64-bit domain: every u64 is in range.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(uniform_below(rng, span + 1) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range called with empty range");
                let unit = (rng.next_u64() >> 11) as $t * (1.0 / (1u64 << 53) as $t);
                self.start + (self.end - self.start) * unit
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range called with empty range");
                // 2^53 equally likely mantissas over the closed interval.
                let unit = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                lo + (hi - lo) * unit
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value from its [`distributions::Standard`] distribution
    /// (e.g. `gen::<f64>()` is uniform in `[0, 1)`).
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
        Self: Sized,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p` (which must be in `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability out of range");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (fast, tiny state,
    /// passes standard statistical batteries). Seeded via SplitMix64 like the
    /// upstream `StdRng::seed_from_u64`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks(8).enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(chunk);
                s[i] = u64::from_le_bytes(b);
            }
            // xoshiro must not start from the all-zero state.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }
    }
}

/// Re-exports mirroring `rand::prelude`.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u32..1000), b.gen_range(0u32..1000));
        }
        let mut c = StdRng::seed_from_u64(43);
        let mut d = StdRng::seed_from_u64(42);
        let differs = (0..100).any(|_| c.gen::<f64>() != d.gen::<f64>());
        assert!(differs, "different seeds produced identical streams");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let v = rng.gen_range(3u32..9);
            assert!((3..9).contains(&v));
            let w = rng.gen_range(3u32..=9);
            assert!((3..=9).contains(&w));
            let f = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
            let g = rng.gen_range(0.0f64..=1.0);
            assert!((0.0..=1.0).contains(&g));
            let u = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn roughly_uniform_over_small_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut hist = [0u32; 8];
        for _ in 0..80_000 {
            hist[rng.gen_range(0usize..8)] += 1;
        }
        for &h in &hist {
            // Expected 10_000 per bucket; allow generous slack.
            assert!((9_000..11_000).contains(&h), "skewed histogram: {hist:?}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..50_000).filter(|_| rng.gen_bool(0.8)).count();
        assert!((38_000..42_000).contains(&hits), "gen_bool(0.8) hit {hits}/50000");
    }

    #[test]
    fn single_value_ranges_work() {
        let mut rng = StdRng::seed_from_u64(17);
        assert_eq!(rng.gen_range(5u32..6), 5);
        assert_eq!(rng.gen_range(5u32..=5), 5);
    }
}
