//! Offline shim for `proptest`: the strategy/`proptest!` subset this
//! workspace uses. Cases are sampled from a deterministic per-test
//! seed. A failing case is shrunk: its inputs are replaced by smaller
//! candidates ([`Strategy::shrink`]) while the test still fails, and
//! the case's seed and the smallest failing inputs are printed.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;

/// Runner configuration (`cases` is the only knob the workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: Debug + Clone;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Smaller values to try in place of a failing `value`, most
    /// aggressive first. Empty by default: the value does not shrink.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f`.
    fn prop_map<O: Debug + Clone, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug + Clone, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

/// A tuple shrinks one element at a time, the others held fixed.
macro_rules! impl_tuple_strategy {
    ($($name:ident $i:tt),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.sample(rng),)*)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for smaller in self.$i.shrink(&value.$i) {
                        let mut v = value.clone();
                        v.$i = smaller;
                        out.push(v);
                    }
                )*
                out
            }
        }
    };
}
impl_tuple_strategy!(A 0);
impl_tuple_strategy!(A 0, B 1);
impl_tuple_strategy!(A 0, B 1, C 2);
impl_tuple_strategy!(A 0, B 1, C 2, D 3);
impl_tuple_strategy!(A 0, B 1, C 2, D 3, E 4);
impl_tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5);
impl_tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6);
impl_tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::Strategy;
    use rand::rngs::StdRng;

    /// Generates `Vec`s whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// The [`vec()`] strategy.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = rand::Rng::gen_range(rng, self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }

        /// Each half of the vector, then the vector without one
        /// element; never shorter than the length range allows.
        /// Elements themselves are not shrunk.
        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            let n = value.len();
            let mut out = Vec::new();
            if n / 2 >= self.len.start && n >= 2 {
                out.push(value[..n / 2].to_vec());
                out.push(value[n / 2..].to_vec());
            }
            if n > self.len.start {
                for i in 0..n {
                    let mut v = value.clone();
                    v.remove(i);
                    out.push(v);
                }
            }
            out
        }
    }
}

/// Drives one property: runs `test` on `config.cases` values drawn
/// from `strategy`, case `i` seeded from the test name and `i`, and
/// passes `test` the case index with the value. A failing value is
/// shrunk — replaced by the first [`Strategy::shrink`] candidate that
/// still fails, until none does — then the case's seed and the
/// smallest failing value are printed and the test is run on it one
/// last time, so its own failure is the one reported. The
/// [`proptest!`] macro expands to this call.
pub fn run_cases<S: Strategy>(
    config: ProptestConfig,
    name: &str,
    strategy: &S,
    test: impl Fn(u32, S::Value),
) {
    // FNV-1a over the test name keeps seeds stable across runs and
    // distinct across properties.
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        seed = (seed ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let fails = |case: u32, value: &S::Value| {
        let value = value.clone();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(case, value))).is_err()
    };
    for case in 0..config.cases {
        let case_seed = seed.wrapping_add(u64::from(case));
        let mut value = strategy.sample(&mut StdRng::seed_from_u64(case_seed));
        if !fails(case, &value) {
            continue;
        }
        // Every accepted candidate is strictly smaller, so the walk
        // ends; the cap bounds the re-runs of a slow property.
        let mut runs = 0;
        'shrink: while runs < 1024 {
            for smaller in strategy.shrink(&value) {
                runs += 1;
                if fails(case, &smaller) {
                    value = smaller;
                    continue 'shrink;
                }
            }
            break;
        }
        eprintln!(
            "proptest {name} failed at case {case} (seed {case_seed:#x}); \
             shrunk inputs after {runs} re-runs:\n  {value:?}"
        );
        test(case, value);
        panic!("proptest {name}: case {case} failed once but passes on re-run");
    }
}

/// Asserts a condition inside a property (panics).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (panics).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Defines property tests. Supports the same surface the workspace
/// uses: an optional `#![proptest_config(..)]` header and `fn
/// name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(
                    $cfg,
                    stringify!($name),
                    &($($strat,)*),
                    |_, ($($arg,)*)| $body,
                );
            }
        )*
    };
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 0u32..100, f in 0.0f64..1.0) {
            prop_assert!(x < 100);
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn map_and_vec_compose(
            v in collection::vec((0u32..10).prop_map(|x| x * 2), 0..16),
        ) {
            prop_assert!(v.len() < 16);
            prop_assert!(v.iter().all(|x| x % 2 == 0));
            prop_assert_eq!(v.iter().filter(|x| **x >= 20).count(), 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_header_accepted(t in (0u8..4, 0u8..=3, 1i64..9, 0.0f64..2.0)) {
            prop_assert!(t.0 < 4 && t.1 <= 3 && t.2 >= 1 && t.3 < 2.0);
        }
    }

    #[test]
    fn vec_shrinks_halves_then_single_drops_within_the_length_range() {
        let s = collection::vec(0u32..10, 2..8);
        let candidates = s.shrink(&vec![1, 2, 3, 4]);
        assert_eq!(candidates[..2], [vec![1, 2], vec![3, 4]]);
        assert_eq!(
            candidates[2..],
            [vec![2, 3, 4], vec![1, 3, 4], vec![1, 2, 4], vec![1, 2, 3]]
        );
        assert!(
            s.shrink(&vec![1, 2]).is_empty(),
            "never below the minimum length"
        );
    }

    #[test]
    fn a_failing_case_shrinks_to_its_culprit() {
        let last = std::sync::Mutex::new(Vec::new());
        let strategy = (collection::vec(0u32..100, 0..40), 0u32..5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::run_cases(
                ProptestConfig::with_cases(16),
                "a_failing_case_shrinks_to_its_culprit",
                &strategy,
                |_, (v, _)| {
                    *last.lock().unwrap() = v.clone();
                    assert!(v.iter().all(|&x| x < 90), "an element is at least 90");
                },
            )
        }));
        assert!(result.is_err(), "some case draws an element of at least 90");
        // The last run is the re-run on the shrunk value.
        let v = last.lock().unwrap().clone();
        assert_eq!(v.len(), 1, "shrunk to one element: {v:?}");
        assert!(v[0] >= 90);
    }

    #[test]
    fn deterministic_across_runs() {
        use super::Strategy;
        let mut a = rand::rngs::StdRng::seed_from_u64(9);
        let mut b = rand::rngs::StdRng::seed_from_u64(9);
        use rand::SeedableRng;
        let s = 0u64..1_000_000;
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }
}
