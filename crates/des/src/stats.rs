//! Lightweight measurement helpers shared by the runtime's monitoring
//! component and the experiment harness, and the one walk over a run's
//! statistics.
//!
//! ## The walk
//!
//! A run's statistics are plain structs of counters, [`Tally`]s,
//! [`LogHistogram`]s, arrays and nested structs, each declared through
//! [`stat_struct!`](crate::stat_struct), which writes its [`Stat`]
//! implementation from the same field list. [`to_json`] and [`summary`] are
//! two visitors of that one walk, so a counter added to a struct is one
//! line and shows up in both — under the same path, which is the Rust
//! expression that reads it:
//!
//! ```
//! use allscale_des::{stat_struct, stats};
//!
//! stat_struct! {
//!     struct Run {
//!         tasks: Vec<u64>,
//!         msgs: u64,
//!     }
//! }
//!
//! let run = Run { tasks: vec![2, 0], msgs: 0 };
//! assert_eq!(stats::to_json(&run), r#"{"tasks":[2,0],"msgs":0}"#);
//! assert_eq!(stats::summary(&run), "tasks: [0]=2 [1]=0\n");
//! ```

use std::fmt::Write;

use crate::time::SimTime;

/// A streaming counter with min/max/mean over `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |x| x.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |x| x.max(m)));
        }
    }
}

/// A log2-bucketed histogram of `u64` samples (bucket *i* holds values whose
/// highest set bit is *i*; value 0 goes in bucket 0).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; 64],
    tally: Tally,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 64],
            tally: Tally::new(),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let b = 63 - v.max(1).leading_zeros() as usize;
        self.buckets[b] += 1;
        self.tally.record(v);
    }

    /// Underlying tally (count/sum/min/max/mean).
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Approximate p-th percentile (0 < p <= 100) from bucket boundaries.
    /// Returns the upper bound of the bucket containing the percentile.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.tally.count();
        if n == 0 {
            return 0;
        }
        let target = ((p / 100.0) * n as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        u64::MAX
    }

    /// Median (upper bucket bound), 0 when empty.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile (upper bucket bound), 0 when empty.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile (upper bucket bound), 0 when empty.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Merge another histogram into this one (bucket-wise sum plus tally
    /// merge), e.g. to aggregate per-locality distributions cluster-wide.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.tally.merge(&other.tally);
    }
}

// ------------------------------------------------------------------ the walk

/// A statistic of a run: a counter, a [`Tally`], a [`LogHistogram`], an
/// array of statistics, or a group of named ones (a struct declared with
/// [`stat_struct!`](crate::stat_struct)).
pub trait Stat {
    /// Present `self`, named `name` (empty for an array element), to `v`.
    fn walk(&self, name: &str, v: &mut dyn Visit);
}

/// What a walk presents, in declaration order.
pub trait Visit {
    /// A counter.
    fn counter(&mut self, name: &str, value: u64);
    /// A group of named statistics, or with `array` an array of them, each
    /// element under an empty name; `body` walks what it holds.
    fn nest(&mut self, name: &str, array: bool, body: &dyn Fn(&mut dyn Visit));
}

impl Stat for u64 {
    fn walk(&self, name: &str, v: &mut dyn Visit) {
        v.counter(name, *self);
    }
}

impl Stat for usize {
    fn walk(&self, name: &str, v: &mut dyn Visit) {
        v.counter(name, *self as u64);
    }
}

/// An instant walks as its nanoseconds.
impl Stat for SimTime {
    fn walk(&self, name: &str, v: &mut dyn Visit) {
        v.counter(name, self.as_nanos());
    }
}

/// An absent statistic walks as nothing.
impl<T: Stat> Stat for Option<T> {
    fn walk(&self, name: &str, v: &mut dyn Visit) {
        if let Some(s) = self {
            s.walk(name, v);
        }
    }
}

impl<T: Stat> Stat for [T] {
    fn walk(&self, name: &str, v: &mut dyn Visit) {
        v.nest(name, true, &|v| self.iter().for_each(|s| s.walk("", v)));
    }
}

impl<T: Stat> Stat for Vec<T> {
    fn walk(&self, name: &str, v: &mut dyn Visit) {
        self.as_slice().walk(name, v);
    }
}

impl<T: Stat, const N: usize> Stat for [T; N] {
    fn walk(&self, name: &str, v: &mut dyn Visit) {
        self.as_slice().walk(name, v);
    }
}

impl Tally {
    fn walk_fields(&self, v: &mut dyn Visit) {
        v.counter("count", self.count);
        v.counter("sum", self.sum);
        v.counter("min", self.min.unwrap_or(0));
        v.counter("max", self.max.unwrap_or(0));
    }
}

/// A tally walks as the group of its count, sum, min and max (an empty
/// tally's extremes read 0).
impl Stat for Tally {
    fn walk(&self, name: &str, v: &mut dyn Visit) {
        v.nest(name, false, &|v| self.walk_fields(v));
    }
}

/// A histogram walks as its tally plus the p50, p90 and p99 bucket bounds.
impl Stat for LogHistogram {
    fn walk(&self, name: &str, v: &mut dyn Visit) {
        v.nest(name, false, &|v| {
            self.tally.walk_fields(v);
            v.counter("p50", self.p50());
            v.counter("p90", self.p90());
            v.counter("p99", self.p99());
        });
    }
}

/// Declare structs of statistics: each struct is written out as given and
/// gains a [`Stat`] implementation that walks it as a group of its fields,
/// in declaration order, under their field names. See the [module
/// documentation](crate::stats) for an example.
#[macro_export]
macro_rules! stat_struct {
    ($(
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fattr:meta])* $fvis:vis $field:ident : $ty:ty),* $(,)?
        }
    )+) => {$(
        $(#[$attr])*
        $vis struct $name {
            $($(#[$fattr])* $fvis $field: $ty),*
        }

        impl $crate::Stat for $name {
            fn walk(&self, name: &str, v: &mut dyn $crate::Visit) {
                v.nest(name, false, &|v| {
                    $($crate::Stat::walk(&self.$field, stringify!($field), v);)*
                });
            }
        }
    )+};
}

/// Render `stat` as deterministic, integer-only JSON on one line: a group
/// is an object keyed by field name in declaration order, an array a list.
pub fn to_json(stat: &(impl Stat + ?Sized)) -> String {
    let mut json = Json::default();
    stat.walk("", &mut json);
    json.out
}

#[derive(Default)]
struct Json {
    out: String,
    /// A value precedes in the innermost object or list.
    comma: bool,
}

impl Json {
    fn key(&mut self, name: &str) {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        if !name.is_empty() {
            let _ = write!(self.out, "\"{name}\":");
        }
    }
}

impl Visit for Json {
    fn counter(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.out, "{value}");
    }

    fn nest(&mut self, name: &str, array: bool, body: &dyn Fn(&mut dyn Visit)) {
        self.key(name);
        self.out.push(if array { '[' } else { '{' });
        self.comma = false;
        body(self);
        self.out.push(if array { ']' } else { '}' });
        self.comma = true;
    }
}

/// Render `stat` as text: one line per group within it (struct, array, or
/// array element) that has a non-zero counter of its own — its path, then
/// each of its counters as `name=value`.
pub fn summary(stat: &(impl Stat + ?Sized)) -> String {
    let mut root = Summary::default();
    stat.walk("", &mut root);
    root.nested
}

/// One group being rendered for [`summary`].
#[derive(Default)]
struct Summary {
    path: String,
    /// Its own counters, each as ` name=value`, and whether one is non-zero.
    counters: String,
    nonzero: bool,
    /// The lines of the groups inside it.
    nested: String,
    /// While it is an array: the next element's index, which is its name.
    index: Option<usize>,
}

impl Summary {
    fn name(&mut self, name: &str) -> String {
        let Some(i) = &mut self.index else {
            return name.to_owned();
        };
        *i += 1;
        format!("[{}]", *i - 1)
    }
}

impl Visit for Summary {
    fn counter(&mut self, name: &str, value: u64) {
        let name = self.name(name);
        let _ = write!(self.counters, " {name}={value}");
        self.nonzero |= value != 0;
    }

    fn nest(&mut self, name: &str, array: bool, body: &dyn Fn(&mut dyn Visit)) {
        let name = self.name(name);
        let path = match (self.path.as_str(), name.starts_with('[')) {
            ("", _) | (_, true) => format!("{}{name}", self.path),
            (parent, false) => format!("{parent}.{name}"),
        };
        let mut inner = Summary {
            path,
            index: array.then_some(0),
            ..Summary::default()
        };
        body(&mut inner);
        if inner.nonzero {
            let line = format!("{}:{}", inner.path, inner.counters);
            let _ = writeln!(self.nested, "{}", line.trim_start_matches(':').trim_start());
        }
        self.nested += &inner.nested;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_basics() {
        let mut t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        for v in [5, 1, 9] {
            t.record(v);
        }
        assert_eq!(t.count(), 3);
        assert_eq!(t.sum(), 15);
        assert_eq!(t.min(), Some(1));
        assert_eq!(t.max(), Some(9));
        assert!((t.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tally_merge() {
        let mut a = Tally::new();
        a.record(10);
        let mut b = Tally::new();
        b.record(2);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(2));
        assert_eq!(a.max(), Some(30));
    }

    #[test]
    fn histogram_buckets() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.tally().count(), 6);
        // p100 lands in the bucket containing 1000 (bucket 9: 512..1023).
        assert_eq!(h.percentile(100.0), 1023);
        // Median is within the small buckets.
        assert!(h.percentile(50.0) <= 3);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p90(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // A value with highest set bit i lands in bucket i, whose reported
        // upper bound is 2^(i+1) - 1. Probe each boundary pair.
        for i in 0..20u32 {
            let lo = 1u64 << i; // first value of bucket i
            let hi = (2u64 << i) - 1; // last value of bucket i
            for v in [lo, hi] {
                let mut h = LogHistogram::new();
                h.record(v);
                assert_eq!(
                    h.percentile(100.0),
                    hi,
                    "value {v} should report bucket {i}'s bound"
                );
            }
        }
        // Zero shares bucket 0 with value 1.
        let mut h = LogHistogram::new();
        h.record(0);
        assert_eq!(h.percentile(100.0), 1);
    }

    #[test]
    fn percentiles_split_a_bimodal_distribution() {
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 6 (64..127)
        }
        for _ in 0..10 {
            h.record(100_000); // bucket 16 (65536..131071)
        }
        assert_eq!(h.p50(), 127);
        assert_eq!(h.p90(), 127);
        assert_eq!(h.p99(), 131_071);
    }

    #[test]
    fn histogram_merge_sums_buckets() {
        let mut a = LogHistogram::new();
        a.record(10);
        a.record(10);
        let mut b = LogHistogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.tally().count(), 3);
        assert_eq!(a.tally().max(), Some(1_000_000));
        assert_eq!(a.p50(), 15); // bucket of 10
        assert_eq!(a.p99(), a.percentile(100.0));
        let shown = summary(&a);
        assert!(
            shown.starts_with("count=3 "),
            "the walk carries the count: {shown}"
        );
    }

    #[test]
    fn merge_preserves_count_and_sum_identities() {
        // Record one global stream and the same stream sharded four ways;
        // merging the shards must reproduce the global histogram exactly
        // (same buckets => same quantiles, and tally count/sum/min/max
        // are the arithmetic identities).
        let mut x = 0x00ff_ee00_u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1_000_000
        };
        let mut global = LogHistogram::new();
        let mut shards = vec![LogHistogram::new(); 4];
        let values: Vec<u64> = (0..4096).map(|_| step()).collect();
        for (i, &v) in values.iter().enumerate() {
            global.record(v);
            shards[i % 4].record(v);
        }
        let mut merged = LogHistogram::new();
        for s in &shards {
            merged.merge(s);
        }
        let part_count: u64 = shards.iter().map(|s| s.tally().count()).sum();
        let part_sum: u64 = shards.iter().map(|s| s.tally().sum()).sum();
        assert_eq!(merged.tally().count(), part_count);
        assert_eq!(merged.tally().count(), values.len() as u64);
        assert_eq!(merged.tally().sum(), part_sum);
        assert_eq!(merged.tally().sum(), values.iter().sum::<u64>());
        assert_eq!(merged.tally().min(), values.iter().min().copied());
        assert_eq!(merged.tally().max(), values.iter().max().copied());
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                merged.percentile(p),
                global.percentile(p),
                "merged shards must reproduce the global p{p}"
            );
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LogHistogram::new();
        a.record(17);
        a.record(90_000);
        let before = (a.tally().count(), a.tally().sum(), a.p50(), a.p99());
        a.merge(&LogHistogram::new());
        assert_eq!(
            before,
            (a.tally().count(), a.tally().sum(), a.p50(), a.p99())
        );
        let mut empty = LogHistogram::new();
        empty.merge(&a);
        assert_eq!(empty.p99(), a.p99());
        assert_eq!(empty.tally().count(), a.tally().count());
    }
}
