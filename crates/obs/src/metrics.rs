//! The metrics registry: named atomic counters and log₂ histograms.
//!
//! Instrumentation sites declare a `static` handle via
//! [`counter!`](crate::counter!) / [`histogram!`](crate::histogram!);
//! the handle resolves to a process-global atomic the first time it is
//! touched while collection is enabled, so two call sites naming the same
//! metric share one cell. Resolution is cached in
//! a `OnceLock`, keeping the steady-state cost of a bump at one enabled
//! check plus one relaxed `fetch_add`.

use std::sync::OnceLock;
use viewplan_sync::{AtomicU64, Mutex, Ordering};

/// Buckets per histogram: one per power of two of a `u64`, plus bucket 0
/// for the value 0.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

struct Registry {
    counters: Vec<(&'static str, &'static AtomicU64)>,
    histograms: Vec<(&'static str, &'static HistogramCell)>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            counters: Vec::new(),
            histograms: Vec::new(),
        })
    })
}

fn register_counter(name: &'static str) -> &'static AtomicU64 {
    let mut reg = registry().lock();
    if let Some((_, cell)) = reg.counters.iter().find(|(n, _)| *n == name) {
        return cell;
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    reg.counters.push((name, cell));
    cell
}

fn register_histogram(name: &'static str) -> &'static HistogramCell {
    let mut reg = registry().lock();
    if let Some((_, cell)) = reg.histograms.iter().find(|(n, _)| *n == name) {
        return cell;
    }
    let cell: &'static HistogramCell = Box::leak(Box::new(HistogramCell::new()));
    reg.histograms.push((name, cell));
    cell
}

/// A named process-global counter. Declare via [`counter!`](crate::counter!).
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// Const-constructs an unresolved handle (use the [`counter!`](crate::counter!) macro
    /// rather than calling this directly).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static AtomicU64 {
        self.cell.get_or_init(|| register_counter(self.name))
    }

    /// Adds `n` when collection is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            // ordering: monotone counter bump; readers only need totals,
            // never cross-counter ordering.
            self.cell().fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 when collection is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// Declares a `static` [`Counter`] for this call site and returns a
/// reference to it: `obs::counter!("corecover.view_tuples").add(n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static COUNTER: $crate::Counter = $crate::Counter::new($name);
        &COUNTER
    }};
}

/// The shared storage behind a [`Histogram`].
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> HistogramCell {
        HistogramCell {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        let bucket = match value {
            0 => 0,
            v => 64 - v.leading_zeros() as usize,
        };
        // ordering: independent monotone statistics; snapshots tolerate
        // observing a partially-applied record (count/sum/bucket may skew
        // by in-flight observations, never corrupt).
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn reset(&self) {
        // ordering: callers quiesce recorders before reset (testlock /
        // request boundaries); no ordering needed between the zeroing
        // stores themselves.
        for b in &self.buckets {
            // ordering: quiesced zeroing store; see the note above.
            b.store(0, Ordering::Relaxed);
        }
        // ordering: quiesced zeroing stores; see the note above.
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        // ordering: statistics are each monotone, so a concurrent record
        // can skew a snapshot by at most the in-flight observation;
        // delta_since documents this tolerance.
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            // ordering: see the snapshot-wide note above.
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                // ordering: see the snapshot-wide note above.
                self.min.load(Ordering::Relaxed)
            },
            // ordering: see the snapshot-wide note above.
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    // ordering: see the snapshot-wide note above.
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_bounds(i), n))
                })
                .map(|((lo, hi), n)| BucketCount { lo, hi, count: n })
                .collect(),
        }
    }
}

/// The inclusive value range of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        1 => (1, 1),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// One nonempty bucket of a [`HistogramSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketCount {
    /// Smallest value landing in this bucket.
    pub lo: u64,
    /// Largest value landing in this bucket.
    pub(crate) hi: u64,
    /// Observations in `[lo, hi]`.
    pub count: u64,
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Nonempty log₂ buckets in increasing value order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` ∈ [0, 1], clamped) estimated from the log₂
    /// buckets by linear interpolation.
    ///
    /// The fractional rank `q·(count−1)` locates the bucket holding the
    /// exact quantile; within it, ranks interpolate linearly between the
    /// bucket's bounds (tightened to the recorded `min`/`max` in the
    /// first/last nonempty bucket). **Error bound:** the true quantile
    /// lies in the same bucket, so the estimate is off by at most one
    /// bucket width — under 2× relative error for any log₂ bucket, and
    /// exact when the bucket holds a single distinct value (e.g. a
    /// constant distribution). Returns 0.0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * (self.count - 1) as f64;
        let last = self.buckets.len() - 1;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let first_rank = seen as f64;
            seen += b.count;
            let last_rank = (seen - 1) as f64;
            if rank <= last_rank {
                let lo = if i == 0 { self.min.max(b.lo) } else { b.lo } as f64;
                let hi = if i == last { self.max.min(b.hi) } else { b.hi } as f64;
                if b.count == 1 {
                    // A lone observation is exactly `max` in the last
                    // nonempty bucket and exactly `min` in the first;
                    // anywhere else, split the difference.
                    return if i == last {
                        hi
                    } else if i == 0 {
                        lo
                    } else {
                        (lo + hi) / 2.0
                    };
                }
                let frac = (rank - first_rank) / (b.count - 1) as f64;
                return lo + frac * (hi - lo);
            }
        }
        self.max as f64
    }

    /// The change since `earlier` (an older snapshot of the same
    /// histogram): `count`, `sum`, and per-bucket counts subtract
    /// (saturating, so a reset between snapshots degrades to the later
    /// values instead of wrapping); `min`/`max` are **not** differential
    /// — they carry the later snapshot's whole-history bounds, which
    /// still bound every observation of the interval.
    pub(crate) fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let earlier_count = |lo: u64| {
            earlier
                .buckets
                .iter()
                .find(|b| b.lo == lo)
                .map_or(0, |b| b.count)
        };
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .filter_map(|b| {
                    let count = b.count.saturating_sub(earlier_count(b.lo));
                    (count > 0).then_some(BucketCount { count, ..*b })
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of the whole registry (every counter and
/// histogram, sorted by name). Two snapshots subtract via
/// [`MetricsSnapshot::delta_since`] to isolate one request's (or one
/// bench pass's) share of the process-global metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub(crate) counters: Vec<(&'static str, u64)>,
    /// Histogram snapshots, sorted by name.
    pub(crate) histograms: Vec<(&'static str, HistogramSnapshot)>,
}

/// Snapshots every registered counter and histogram.
pub fn metrics_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: counters(),
        histograms: histograms(),
    }
}

impl MetricsSnapshot {
    /// One counter's value in this snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// One histogram's snapshot (`None` if absent).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// The per-name change since `earlier`: counters subtract
    /// (saturating), histograms bucket by bucket. Names registered only after
    /// `earlier` was taken count from zero. Because counters are
    /// monotone while collection stays on, the delta of two snapshots
    /// equals exactly the events recorded between them — including
    /// events from concurrent threads, which land in one snapshot or
    /// the other but never vanish.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|&(name, v)| (name, v.saturating_sub(earlier.counter(name))))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, s)| {
                    let base = earlier.histogram(name).cloned().unwrap_or_default();
                    (*name, s.delta_since(&base))
                })
                .collect(),
        }
    }
}

/// A named process-global log₂ histogram. Declare via [`histogram!`](crate::histogram!).
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistogramCell>,
}

impl Histogram {
    /// Const-constructs an unresolved handle (use the [`histogram!`](crate::histogram!)
    /// macro rather than calling this directly).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &'static HistogramCell {
        self.cell.get_or_init(|| register_histogram(self.name))
    }

    /// Records one observation when collection is enabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if crate::enabled() {
            self.cell().record(value);
        }
    }
}

/// Declares a `static` [`Histogram`] for this call site and returns a
/// reference to it: `obs::histogram!("engine.join_output_rows").record(n)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HISTOGRAM: $crate::Histogram = $crate::Histogram::new($name);
        &HISTOGRAM
    }};
}

/// All registered counters and their values, sorted by name.
pub fn counters() -> Vec<(&'static str, u64)> {
    let reg = registry().lock();
    let mut out: Vec<(&'static str, u64)> = reg
        .counters
        .iter()
        // ordering: monotone counter reads; staleness only undercounts.
        .map(|(name, cell)| (*name, cell.load(Ordering::Relaxed)))
        .collect();
    out.sort_unstable_by_key(|(name, _)| *name);
    out
}

/// The value of one counter by name (0 if not registered).
pub fn counter_value(name: &str) -> u64 {
    let reg = registry().lock();
    reg.counters
        .iter()
        .find(|(n, _)| *n == name)
        // ordering: monotone counter read; staleness only undercounts.
        .map_or(0, |(_, cell)| cell.load(Ordering::Relaxed))
}

/// All registered histograms and their snapshots, sorted by name.
pub fn histograms() -> Vec<(&'static str, HistogramSnapshot)> {
    let reg = registry().lock();
    let mut out: Vec<(&'static str, HistogramSnapshot)> = reg
        .histograms
        .iter()
        .map(|(name, cell)| (*name, cell.snapshot()))
        .collect();
    out.sort_unstable_by_key(|(name, _)| *name);
    out
}

/// One histogram's snapshot by name (`None` if not registered).
pub fn histogram_snapshot(name: &str) -> Option<HistogramSnapshot> {
    let reg = registry().lock();
    reg.histograms
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, cell)| cell.snapshot())
}

/// Zeroes every registered counter and histogram.
pub(crate) fn reset() {
    let reg = registry().lock();
    for (_, cell) in &reg.counters {
        // ordering: callers quiesce recorders before reset.
        cell.store(0, Ordering::Relaxed);
    }
    for (_, cell) in &reg.histograms {
        cell.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(3), (4, 7));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
        // Every boundary is contiguous with its predecessor.
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_bounds(i).0, bucket_bounds(i - 1).1 + 1);
        }
    }

    #[test]
    fn histogram_cell_places_values_in_log_buckets() {
        let cell = HistogramCell::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            cell.record(v);
        }
        let snap = cell.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        for b in &snap.buckets {
            assert!(b.lo <= b.hi);
        }
        assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), 7);
        // 2 and 3 share the [2, 3] bucket.
        assert!(snap.buckets.iter().any(|b| b.lo == 2 && b.count == 2));
    }

    #[test]
    fn mean_of_empty_histogram_is_zero() {
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
    }

    /// The inclusive bounds of the log₂ bucket `value` lands in.
    fn bucket_of(value: u64) -> (u64, u64) {
        let i = match value {
            0 => 0,
            v => 64 - v.leading_zeros() as usize,
        };
        bucket_bounds(i)
    }

    #[test]
    fn percentile_is_exact_on_a_constant_distribution() {
        let cell = HistogramCell::new();
        for _ in 0..10 {
            cell.record(100);
        }
        let snap = cell.snapshot();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(snap.percentile(q), 100.0, "q={q}");
        }
    }

    #[test]
    fn percentile_of_uniform_distribution_stays_within_one_bucket() {
        // 1..=1000 uniformly: the exact q-quantile is 1 + q·999.
        let cell = HistogramCell::new();
        for v in 1..=1000u64 {
            cell.record(v);
        }
        let snap = cell.snapshot();
        for q in [0.5, 0.95, 0.99] {
            let exact = 1.0 + q * 999.0;
            let est = snap.percentile(q);
            let (lo, hi) = bucket_of(exact.round() as u64);
            assert!(
                est >= lo as f64 && est <= hi as f64,
                "q={q}: estimate {est} outside the exact quantile's bucket [{lo}, {hi}]"
            );
            // The documented bound: off by at most one bucket width.
            assert!(
                (est - exact).abs() <= (hi - lo + 1) as f64,
                "q={q}: |{est} - {exact}| exceeds the bucket width"
            );
        }
    }

    #[test]
    fn percentile_is_monotone_in_q_and_clamped_to_min_max() {
        let cell = HistogramCell::new();
        for v in [3u64, 17, 17, 90, 1200, 1200, 1200, 40_000] {
            cell.record(v);
        }
        let snap = cell.snapshot();
        let (p50, p95, p99) = (
            snap.percentile(0.5),
            snap.percentile(0.95),
            snap.percentile(0.99),
        );
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(snap.percentile(0.0), snap.min as f64);
        assert_eq!(snap.percentile(1.0), snap.max as f64);
        assert_eq!(snap.percentile(-3.0), snap.min as f64, "q clamps to [0,1]");
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0.0);
    }

    #[test]
    fn histogram_delta_subtracts_counts_and_buckets() {
        let cell = HistogramCell::new();
        cell.record(5);
        cell.record(100);
        let a = cell.snapshot();
        cell.record(5);
        cell.record(7);
        let b = cell.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 12);
        // The [4,7] bucket gained two observations; [64,127] gained none
        // and is dropped from the delta.
        assert_eq!(d.buckets.len(), 1);
        assert_eq!(d.buckets[0].count, 2);
        assert_eq!(d.buckets[0].lo, 4);
    }
}
