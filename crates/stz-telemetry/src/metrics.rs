//! Metric primitives: counters, gauges, log-bucket histograms, spans.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonically increasing event count.
///
/// All operations are relaxed atomics: increments from any number of
/// threads are exact (never lost), only cross-metric ordering is
/// unspecified.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero (for per-instance counters such as
    /// `CountingSource`'s; registered process-wide counters should never
    /// be reset).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A value that can go up and down (active connections, queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Add `n` (which may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bounded buckets per histogram (one unbounded overflow bucket rides on
/// top). Fixed — like the pool's `MAX_TASKS`, a constant layout keeps
/// snapshots mergeable and the exposition stable.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// First latency-bucket bound in nanoseconds: 50 µs = 0.05 ms. Every
/// latency histogram shares it, so distributions recorded on different
/// sides of a connection use identical bucket boundaries (factor 2 apart)
/// and their quantiles are comparable within one bucket of resolution.
pub const LATENCY_FIRST_BOUND_NS: u64 = 50_000;

/// A fixed-log-bucket histogram of `u64` samples (nanoseconds, bytes, …).
///
/// Bucket `i` counts samples `v` with `v <= first_bound * 2^i`
/// (`i < HISTOGRAM_BUCKETS`); larger samples saturate into one unbounded
/// overflow bucket. Recording is two relaxed atomic adds — no locks, no
/// allocation — so histograms sit on request hot paths.
#[derive(Debug)]
pub struct Histogram {
    first_bound: u64,
    counts: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram whose smallest bucket bound is `first_bound`
    /// (clamped to ≥ 1).
    pub fn new(first_bound: u64) -> Self {
        Histogram {
            first_bound: first_bound.max(1),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// A histogram with the standard latency bucket layout
    /// ([`LATENCY_FIRST_BOUND_NS`]).
    pub fn new_latency() -> Self {
        Histogram::new(LATENCY_FIRST_BOUND_NS)
    }

    /// The smallest bucket bound.
    pub fn first_bound(&self) -> u64 {
        self.first_bound
    }

    /// The index of the bucket a sample lands in.
    fn bucket_index(&self, v: u64) -> usize {
        // Smallest i with v <= first * 2^i, i.e. ceil(log2(ceil(v/first))).
        let q = v.div_ceil(self.first_bound);
        let idx = if q <= 1 { 0 } else { (u64::BITS - (q - 1).leading_zeros()) as usize };
        idx.min(HISTOGRAM_BUCKETS)
    }

    /// The *inclusive* upper bound of bucket `i`, or `None` for the
    /// overflow bucket.
    pub fn bucket_bound(&self, i: usize) -> Option<u64> {
        (i < HISTOGRAM_BUCKETS).then(|| self.first_bound.saturating_mul(1u64 << i))
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.counts[self.bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record an elapsed duration in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Start a span over this histogram: the guard records the elapsed
    /// nanoseconds when dropped.
    pub fn span(self: &Arc<Self>) -> Span {
        Span::enter(Arc::clone(self))
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            first_bound: self.first_bound,
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s buckets, supporting quantile
/// extraction and merging (e.g. one snapshot per shard or per run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Smallest bucket bound of the source histogram.
    pub first_bound: u64,
    /// Per-bucket sample counts (`HISTOGRAM_BUCKETS` bounded buckets plus
    /// the overflow bucket, non-cumulative).
    pub counts: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The *inclusive* upper bound of bucket `i`, or `None` for the
    /// overflow bucket.
    pub fn bucket_bound(&self, i: usize) -> Option<u64> {
        (i + 1 < self.counts.len()).then(|| self.first_bound.saturating_mul(1u64 << i))
    }

    /// Nearest-rank quantile (`0.0 ..= 1.0`), resolved to the upper bound
    /// of the bucket holding that rank. Samples in the overflow bucket
    /// resolve to `u64::MAX`.
    /// `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(self.bucket_bound(i).unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Merge another snapshot into this one (bucket-wise addition). Both
    /// must share the same bucket layout.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.first_bound, other.first_bound,
            "cannot merge histograms with different bucket layouts"
        );
        assert_eq!(self.counts.len(), other.counts.len(), "snapshot bucket counts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
    }
}

/// RAII span: times a scope and records the elapsed nanoseconds into its
/// histogram on drop. Create with [`Span::enter`] or [`Histogram::span`].
#[derive(Debug)]
pub struct Span {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Span {
    /// Start timing now; the drop records into `hist`.
    pub fn enter(hist: Arc<Histogram>) -> Span {
        Span { hist, start: Instant::now() }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.inc();
        g.add(10);
        g.dec();
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_powers_of_two() {
        let h = Histogram::new(100);
        // Bound of bucket i is 100 * 2^i; bounds are inclusive.
        assert_eq!(h.bucket_index(0), 0);
        assert_eq!(h.bucket_index(1), 0);
        assert_eq!(h.bucket_index(100), 0);
        assert_eq!(h.bucket_index(101), 1);
        assert_eq!(h.bucket_index(200), 1);
        assert_eq!(h.bucket_index(201), 2);
        assert_eq!(h.bucket_index(400), 2);
        assert_eq!(h.bucket_bound(0), Some(100));
        assert_eq!(h.bucket_bound(3), Some(800));
        assert_eq!(h.bucket_bound(HISTOGRAM_BUCKETS), None);
    }

    #[test]
    fn histogram_quantiles_exact_on_synthetic_fill() {
        let h = Histogram::new(1);
        // 100 samples of 1 (bucket 0, bound 1) and 100 of 3 (bucket 2,
        // bound 4): p50 sits exactly at the rank-99..100 boundary.
        for _ in 0..100 {
            h.record(1);
        }
        for _ in 0..100 {
            h.record(3);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 200);
        assert_eq!(s.sum, 100 + 300);
        assert_eq!(s.quantile(0.0), Some(1));
        // rank(0.5) = round(0.5 * 199) = 100 → the 101st sample → bucket 2.
        assert_eq!(s.quantile(0.5), Some(4));
        assert_eq!(s.quantile(0.99), Some(4));
        assert_eq!(s.quantile(1.0), Some(4));
    }

    #[test]
    fn histogram_p99_lands_in_tail_bucket() {
        let h = Histogram::new(1);
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1000); // bucket 10 (bound 1024)
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50), Some(1));
        // rank(0.99) = round(0.99 * 99) = 98 → still a 1-sample…
        assert_eq!(s.quantile(0.99), Some(1));
        // …but the max (q=1.0) is the outlier's bucket bound.
        assert_eq!(s.quantile(1.0), Some(1024));
    }

    #[test]
    fn histogram_saturates_at_top_bucket() {
        let h = Histogram::new(1);
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        let s = h.snapshot();
        assert_eq!(s.counts[HISTOGRAM_BUCKETS], 2, "both land in the overflow bucket");
        assert_eq!(s.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn snapshot_merge_adds_bucketwise() {
        let a = Histogram::new(10);
        let b = Histogram::new(10);
        for v in [5, 15, 80] {
            a.record(v);
        }
        for v in [7, 9, 200] {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 6);
        assert_eq!(m.sum, 5 + 15 + 80 + 7 + 9 + 200);
        assert_eq!(m.counts[0], 3, "5, 7, 9 share bucket 0");
        // Merged quantiles act on the combined distribution.
        assert_eq!(m.quantile(1.0), Some(320));
    }

    #[test]
    #[should_panic(expected = "different bucket layouts")]
    fn snapshot_merge_rejects_mismatched_layouts() {
        let mut a = Histogram::new(10).snapshot();
        a.merge(&Histogram::new(20).snapshot());
    }

    #[test]
    fn span_records_into_histogram() {
        let h = Arc::new(Histogram::new_latency());
        {
            let _span = h.span();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert!(s.sum >= 1_000_000, "span of ≥1 ms recorded {} ns", s.sum);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        // The 8-thread hammer: N threads × M increments must be exact —
        // no lost updates on counters or histogram buckets.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let c = Counter::new();
        let h = Histogram::new(1);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (c, h) = (&c, &h);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record(t * PER_THREAD + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS * PER_THREAD);
        assert_eq!(h.snapshot().count(), THREADS * PER_THREAD);
    }
}
