//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of the proptest API its tests actually use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//!   [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`];
//! * the [`Strategy`] trait with [`Strategy::prop_map`] and
//!   [`Strategy::prop_flat_map`];
//! * integer / `f64` range strategies, tuple strategies (arity ≤ 6),
//!   [`Just`], [`any`], [`collection::vec`], and `&str` regex-subset
//!   string strategies such as `"[a-z]{1,8}"`.
//!
//! Semantics: each `#[test]` runs `ProptestConfig::cases` random cases
//! drawn from a generator seeded deterministically from the test's module
//! path and name, so failures are reproducible run-over-run. The failure
//! message reports the case index and seed. **Shrinking is not
//! implemented** — a failing case is reported as generated. Case counts
//! can be overridden with the `PROPTEST_CASES` environment variable, as
//! with upstream proptest.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The entropy source passed to strategies (re-exported for custom
/// [`Strategy`] impls).
pub type TestRng = StdRng;

/// Configuration for a `proptest!` block.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        ProptestConfig { cases }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases (still overridable by
    /// `PROPTEST_CASES`).
    pub fn with_cases(cases: u32) -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(cases);
        ProptestConfig { cases }
    }
}

/// A generator of random values of type [`Strategy::Value`].
///
/// Unlike upstream proptest there is no value tree: strategies sample
/// directly and nothing shrinks.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn new_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.new_value(rng)).new_value(rng)
    }
}

/// A strategy that always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Strategy yielding any value of `T` — the supported upstream-proptest
/// spelling is `any::<T>()`.
#[derive(Clone, Copy, Debug)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Uniformly random values of the whole domain of `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;

    fn new_value(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// An inclusive size bound for generated collections.
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

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A strategy for `Vec`s of `element` values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// `&str` patterns are strategies for `String`s matching a small regex
/// subset: literal characters, `[a-z0-9_]`-style classes (ranges and
/// singletons), and the quantifiers `{m}`, `{m,n}`, `?`, `*`, `+`
/// (`*`/`+` are bounded at 8 repetitions).
impl Strategy for &str {
    type Value = String;

    fn new_value(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // One atom: a character class or a literal char.
        let alphabet: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed '[' in pattern {pattern:?}"));
            let mut set = Vec::new();
            let mut j = i + 1;
            while j < close {
                if j + 2 < close && chars[j + 1] == '-' {
                    let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                    assert!(lo <= hi, "bad class range in pattern {pattern:?}");
                    set.extend((lo..=hi).filter_map(char::from_u32));
                    j += 3;
                } else {
                    set.push(chars[j]);
                    j += 1;
                }
            }
            i = close + 1;
            set
        } else {
            let c = if chars[i] == '\\' && i + 1 < chars.len() {
                i += 1;
                chars[i]
            } else {
                chars[i]
            };
            i += 1;
            vec![c]
        };
        assert!(!alphabet.is_empty(), "empty class in pattern {pattern:?}");

        // Optional quantifier.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed '{{' in pattern {pattern:?}"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse().expect("bad quantifier"),
                    n.trim().parse().expect("bad quantifier"),
                ),
                None => {
                    let m: usize = body.trim().parse().expect("bad quantifier");
                    (m, m)
                }
            }
        } else if i < chars.len() && chars[i] == '?' {
            i += 1;
            (0, 1)
        } else if i < chars.len() && chars[i] == '*' {
            i += 1;
            (0, 8)
        } else if i < chars.len() && chars[i] == '+' {
            i += 1;
            (1, 8)
        } else {
            (1, 1)
        };

        let reps = rng.random_range(lo..=hi);
        for _ in 0..reps {
            out.push(alphabet[rng.random_range(0..alphabet.len())]);
        }
    }
    out
}

/// Deterministic base seed for a test, derived from its full path via
/// FNV-1a. Used by the [`proptest!`] expansion.
#[doc(hidden)]
pub fn test_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs `cases` cases of a single property, reporting the failing case
/// index and seed. Used by the [`proptest!`] expansion.
#[doc(hidden)]
pub fn run_cases(
    test_path: &str,
    cases: u32,
    mut case: impl FnMut(&mut TestRng) -> Result<(), String>,
) {
    let base = test_seed(test_path);
    for i in 0..cases {
        let seed = base ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = TestRng::seed_from_u64(seed);
        if let Err(msg) = case(&mut rng) {
            panic!(
                "property {test_path} failed at case {i}/{cases} (seed {seed:#x}):\n{msg}\n\
                 (shrinking unavailable in the offline proptest stand-in)"
            );
        }
    }
}

/// Declares property tests: `fn name(pattern in strategy, ...) { body }`
/// items, each expanded to a `#[test]` running [`ProptestConfig::cases`]
/// random cases. An optional leading `#![proptest_config(expr)]` sets the
/// config for the whole block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($parm:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __pt_config: $crate::ProptestConfig = $config;
            $crate::run_cases(
                concat!(module_path!(), "::", stringify!($name)),
                __pt_config.cases,
                |__pt_rng| {
                    $(let $parm = $crate::Strategy::new_value(&($strategy), __pt_rng);)+
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Like `assert!`, but inside [`proptest!`] bodies: fails the current
/// case with the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: {}\n{}",
                stringify!($cond),
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Like `assert_eq!`, but inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__pt_l, __pt_r) = (&$left, &$right);
        if !(*__pt_l == *__pt_r) {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), __pt_l, __pt_r,
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__pt_l, __pt_r) = (&$left, &$right);
        if !(*__pt_l == *__pt_r) {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
                stringify!($left), stringify!($right), __pt_l, __pt_r,
                ::std::format!($($fmt)+),
            ));
        }
    }};
}

/// Like `assert_ne!`, but inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__pt_l, __pt_r) = (&$left, &$right);
        if *__pt_l == *__pt_r {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __pt_l,
            ));
        }
    }};
}

/// The usual way to import the proptest surface.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;
    use rand::SeedableRng;

    #[test]
    fn string_patterns_match_shape() {
        let mut rng = TestRng::seed_from_u64(9);
        for _ in 0..200 {
            let s = Strategy::new_value(&"[a-z]{1,8}", &mut rng);
            assert!((1..=8).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()), "{s:?}");
            let t = Strategy::new_value(&"ab[0-9]?c+", &mut rng);
            assert!(t.starts_with("ab"), "{t:?}");
            assert!(t.ends_with('c'), "{t:?}");
        }
    }

    #[test]
    fn composite_strategies_generate_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        let strat = collection::vec((any::<bool>(), 0usize..4), 1..=4)
            .prop_map(|v| v.len())
            .prop_flat_map(|n| (Just(n), 0usize..n + 1));
        for _ in 0..500 {
            let (n, k) = strat.new_value(&mut rng);
            assert!((1..=4).contains(&n));
            assert!(k <= n);
        }
    }

    #[test]
    fn cases_are_deterministic_per_test_path() {
        let mut a = TestRng::seed_from_u64(super::test_seed("x::y"));
        let mut b = TestRng::seed_from_u64(super::test_seed("x::y"));
        assert_eq!(
            Strategy::new_value(&(0u64..1000), &mut a),
            Strategy::new_value(&(0u64..1000), &mut b),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro itself: patterns, tuples, trailing commas.
        #[test]
        fn macro_roundtrip((a, b) in (0u32..10, 0u32..10), flag in any::<bool>(),) {
            prop_assert!(a < 10 && b < 10);
            let _ = flag;
            prop_assert_eq!(a + b, b + a, "commutativity of {} and {}", a, b);
            prop_assert_ne!(a, a + 1);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_report_case_and_seed() {
        super::run_cases("demo::always_fails", 4, |_| Err("nope".into()));
    }
}
