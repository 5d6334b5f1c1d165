//! Vendored, dependency-free shim for the subset of the `proptest` API used
//! by `tests/property.rs`.
//!
//! The build environment has no crates-registry access, so the workspace
//! vendors its external dev-dependencies as in-tree crates with matching
//! package names. This shim implements a functional property-test runner:
//!
//! - [`Strategy`] with `prop_map` / `prop_flat_map`;
//! - range strategies for integers and floats, tuple strategies,
//!   [`Just`], [`collection::vec`], [`bool::ANY`] and [`prop_oneof!`];
//! - the [`proptest!`] macro with `#![proptest_config(...)]`,
//!   [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`] and
//!   [`TestCaseError`].
//!
//! Cases are generated from a seed derived from the test-function name, so
//! failures reproduce across runs. Unlike upstream proptest there is **no
//! shrinking**: a failing case reports its case number and message as-is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator used to drive strategies (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator whose stream is a pure function of `name` — the
    /// runner passes the test-function name so failures are reproducible.
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, span)`; `span` must be non-zero.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let rem = (u64::MAX % span + 1) % span;
        let limit = u64::MAX - rem;
        loop {
            let v = self.next_u64();
            if v <= limit {
                return v % span;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let unit = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                lo + (hi - lo) * unit
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// A uniform choice between same-typed strategies (built by [`prop_oneof!`]).
pub struct Union<S> {
    options: Vec<S>,
}

impl<S: Strategy> Union<S> {
    /// Builds a union over `options`; must be non-empty.
    pub fn new(options: Vec<S>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<S: Strategy> Strategy for Union<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length range for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// A strategy producing `Vec`s of values from `elem`, with a length drawn
    /// uniformly from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// A fair coin flip.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The strategy producing uniformly random `bool`s.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Runner configuration accepted by `#![proptest_config(...)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases generated per property.
    pub cases: u32,
    /// Accepted for source compatibility with upstream configs; the shim
    /// does no shrinking, so the bound is never consulted.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream default is 256; keep a lighter default suited to running
        // the whole suite under `--features property-tests`.
        ProptestConfig { cases: 64, max_shrink_iters: 1024 }
    }
}

/// A property failure: carries the message produced by `prop_assert!` and
/// friends, or anything convertible into a string via `?`.
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure from any message.
    pub fn fail<T: Into<String>>(message: T) -> Self {
        TestCaseError { message: message.into() }
    }

    /// Alias for [`TestCaseError::fail`] mirroring upstream naming.
    pub fn reject<T: Into<String>>(message: T) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

impl From<String> for TestCaseError {
    fn from(message: String) -> Self {
        TestCaseError { message }
    }
}

impl From<&str> for TestCaseError {
    fn from(message: &str) -> Self {
        TestCaseError { message: message.to_string() }
    }
}

/// Everything a property-test file normally imports.
pub mod prelude {
    pub use crate::bool as prop_bool;
    pub use crate::collection as prop_collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts two expressions are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "{}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)*),
                    l,
                    r
                );
            }
        }
    };
}

/// Asserts two expressions are not equal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l != *r,
                    "assertion failed: `{} != {}`\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l
                );
            }
        }
    };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            // No shrinking/rejection bookkeeping in the shim: an assumed-away
            // case simply passes.
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniform choice between strategies of the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($strategy),+])
    };
}

/// Declares property tests. Supports the upstream surface this workspace
/// uses: an optional `#![proptest_config(expr)]` header followed by
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($arg:pat_param in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("property '{}' failed at case {case}/{}: {e}", stringify!($name), config.cases);
                }
            }
        }
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_generate_in_bounds() {
        let mut rng = crate::TestRng::deterministic("shim-test");
        let s = crate::collection::vec(0u32..5, 2..=6);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..=6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn flat_map_and_map_compose() {
        let mut rng = crate::TestRng::deterministic("compose");
        let s = (1usize..=4)
            .prop_flat_map(|n| crate::collection::vec(0u32..10, n..=n))
            .prop_map(|v| (v.len(), v));
        for _ in 0..100 {
            let (n, v) = s.generate(&mut rng);
            assert_eq!(n, v.len());
            assert!((1..=4).contains(&n));
        }
    }

    #[test]
    fn oneof_only_yields_options() {
        let mut rng = crate::TestRng::deterministic("oneof");
        let s = prop_oneof![Just(16usize), Just(64), Just(256)];
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!(v == 16 || v == 64 || v == 256);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The macro itself: patterns, multiple args, assume and asserts.
        #[test]
        fn macro_smoke((a, b) in (0u32..50, 0u32..50), flip in crate::bool::ANY) {
            prop_assume!(a != 49);
            prop_assert!(a < 50, "a out of range: {a}");
            prop_assert_eq!(a + b, b + a);
            if flip {
                prop_assert_ne!(a, a + b + 1);
            }
        }
    }
}
