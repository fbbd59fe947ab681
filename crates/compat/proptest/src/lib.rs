//! Offline shim covering the slice of `proptest` this workspace uses:
//! range/tuple/`Just`/`prop_map`/`prop_oneof!`/`collection::vec`
//! strategies, `any::<bool>()`, and the `proptest!` macro with
//! `prop_assert*!` / `prop_assume!` and `ProptestConfig::with_cases`.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! - **no shrinking** — a failing case reports its inputs (via the
//!   assertion message) but is not minimized;
//! - **deterministic seeding** — each test's RNG is seeded from a hash of
//!   its module path and name, so failures reproduce exactly across runs
//!   (override with `PROPTEST_SEED=<u64>` to explore other schedules);
//! - `.proptest-regressions` files are ignored.

#![warn(missing_docs)]

/// Strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values of type [`Strategy::Value`].
    ///
    /// Unlike real proptest there is no value tree: `generate` draws a
    /// single unshrinkable value.
    pub trait Strategy {
        /// The type of values this strategy produces.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A type-erased strategy (`Strategy::boxed`, `prop_oneof!` arms).
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between same-valued strategies (`prop_oneof!`).
    pub struct Union<T>(Vec<BoxedStrategy<T>>);

    impl<T> Union<T> {
        /// Builds a union over the given arms (at least one).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union(arms)
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let ix = (0..self.0.len()).generate(rng);
            self.0[ix].generate(rng)
        }
    }

    // Uniform ranges draw as `elephant_des::SmallRng` does (`start +
    // next_u64() % span`, `lo + u·(hi − lo)`), so a test name or a
    // `PROPTEST_SEED` keeps naming the same cases.
    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128).wrapping_sub(lo as u128) + 1;
                    lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty => $bits:expr),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let u = (rng.next_u64() >> (64 - $bits)) as $t * (1.0 / (1u64 << $bits) as $t);
                    self.start + u * (self.end - self.start)
                }
            }
        )*};
    }
    float_range_strategy!(f32 => 24, f64 => 53);

    macro_rules! tuple_strategy {
        ($($S:ident $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A 0);
    tuple_strategy!(A 0, B 1);
    tuple_strategy!(A 0, B 1, C 2);
    tuple_strategy!(A 0, B 1, C 2, D 3);
    tuple_strategy!(A 0, B 1, C 2, D 3, E 4);
    tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5);
    tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6);
    tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);
    tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8);
    tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9);
    tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9, K 10);
    tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9, K 10, L 11);
}

/// `any::<T>()` and the [`Arbitrary`] trait behind it.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// The canonical strategy's type.
        type Strategy: Strategy<Value = Self>;
        /// The canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }

    /// Fair-coin strategy for `bool`.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct BoolStrategy;

    impl Strategy for BoolStrategy {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = BoolStrategy;
        fn arbitrary() -> BoolStrategy {
            BoolStrategy
        }
    }

    /// Full-range uniform strategy for an integer type.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct IntStrategy<T>(std::marker::PhantomData<T>);

    macro_rules! int_arbitrary {
        ($($t:ty),+) => {$(
            impl Strategy for IntStrategy<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    // A full-width uniform u64 truncates/wraps to a
                    // full-range uniform value of any integer width.
                    rng.next_u64() as $t
                }
            }

            impl Arbitrary for $t {
                type Strategy = IntStrategy<$t>;
                fn arbitrary() -> Self::Strategy {
                    IntStrategy(std::marker::PhantomData)
                }
            }
        )+};
    }

    int_arbitrary!(u8, u16, u32, u64, i8, i16, i32, i64, usize);
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive element-count bounds for a generated collection.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of an element strategy.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec` strategy with the given element strategy and length bounds.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = (self.size.lo..=self.size.hi).generate(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Test-runner plumbing used by the `proptest!` expansion.
pub mod test_runner {
    /// Per-test deterministic RNG.
    ///
    /// A private copy of `elephant_des::SmallRng` (xoshiro256++ seeded
    /// through SplitMix64): this crate cannot depend on `elephant-des`,
    /// which dev-depends on it. `tests::generator_matches_elephant_des`
    /// pins its first word to the known answer `elephant_des::rng` pins.
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seeds deterministically from the test's full name, or from
        /// `PROPTEST_SEED` when set.
        pub fn from_name(name: &str) -> Self {
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(seed) = s.trim().parse::<u64>() {
                    return TestRng::seed_from_u64(seed);
                }
            }
            // FNV-1a over the name: stable across runs and platforms.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
            TestRng::seed_from_u64(h)
        }

        pub(crate) fn seed_from_u64(seed: u64) -> Self {
            let word = |i: u64| {
                let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [word(0), word(1), word(2), word(3)],
            }
        }

        pub(crate) fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` failed — draw another case, don't count this one.
        Reject,
        /// `prop_assert*!` failed with this message.
        Fail(String),
    }

    /// Runner configuration (`#![proptest_config(...)]`).
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of accepted cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` accepted cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Real proptest defaults to 256; 64 keeps the suite fast while
            // still exercising each property broadly. Override per-test
            // with `#![proptest_config(ProptestConfig::with_cases(n))]`.
            ProptestConfig { cases: 64 }
        }
    }
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases!(@cfg($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases!(
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let strategy = ($($strat,)+);
            let mut rng = $crate::test_runner::TestRng::from_name(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                assert!(
                    attempts <= config.cases.saturating_mul(20).max(1000),
                    "proptest: too many rejected cases in {} ({} accepted of {} wanted)",
                    stringify!($name),
                    accepted,
                    config.cases,
                );
                let ($($arg,)+) =
                    $crate::strategy::Strategy::generate(&strategy, &mut rng);
                let outcome: ::core::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                match outcome {
                    ::core::result::Result::Ok(()) => accepted += 1,
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject,
                    ) => continue,
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(msg),
                    ) => panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        accepted + 1,
                        config.cases,
                        msg
                    ),
                }
            }
        }
    )*};
}

/// Asserts within a proptest body, failing the case (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// Equality assertion within a proptest body (borrows its operands).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(format!(
                            "assertion failed: `{:?} == {:?}`",
                            l, r
                        )),
                    );
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(format!(
                            "assertion failed: `{:?} == {:?}`: {}",
                            l,
                            r,
                            format!($($fmt)+)
                        )),
                    );
                }
            }
        }
    };
}

/// Inequality assertion within a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                        format!("assertion failed: `{:?} != {:?}`", l, r),
                    ));
                }
            }
        }
    };
}

/// Rejects the current case (drawn again without counting) unless `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Uniform choice between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, y in 0.0f64..1.0) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((0.0..1.0).contains(&y), "y = {y}");
        }

        #[test]
        fn assume_rejects(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn combinators_compose(
            v in crate::collection::vec(prop_oneof![Just(1u8), 5u8..7], 2..10),
            flag in any::<bool>(),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 10);
            prop_assert!(v.iter().all(|&x| x == 1 || x == 5 || x == 6));
            let _ = flag; // any::<bool> participates in generation only
        }
    }

    #[test]
    fn generator_matches_elephant_des() {
        let mut rng = crate::test_runner::TestRng::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0x53175d61490b23df);
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let s = (0u64..1_000_000).prop_map(|x| x * 2);
        let mut a = crate::test_runner::TestRng::from_name("fixed");
        let mut b = crate::test_runner::TestRng::from_name("fixed");
        for _ in 0..100 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
