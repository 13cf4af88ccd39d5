//! Typed metrics: counters, gauges, and fixed log-scale histograms behind a
//! global named registry.
//!
//! Handles are `Arc`s that stay registered for the life of the process, so
//! hot paths cache them in a `OnceLock` (the [`crate::counter!`] /
//! [`crate::gauge!`] / [`crate::histogram!`] macros do this) and pay one
//! relaxed atomic op per event. [`reset`] zeroes values *in place* rather
//! than dropping handles, so cached handles survive across sessions.
//!
//! Naming convention (see `docs/observability.md`): dot-separated
//! `layer.subject[.detail]`, and any metric carrying wall-clock time must
//! end in `_ms` or `_us` — the deterministic profile view relies on that
//! suffix to strip machine-dependent values.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: bucket 0 holds zero values, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`, up to bucket 64 for the top of the
/// `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Shards per [`Counter`]. Threads take shards round-robin, so up to this
/// many concurrent writers never share a cache line.
const COUNTER_SHARDS: usize = 8;

/// One counter shard on a cache line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard(AtomicU64);

/// Source of each thread's shard index.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

/// A monotonically increasing event counter.
///
/// Sharded per thread: an increment touches only the calling thread's
/// cache-line-padded slot, so sweep workers bumping the same per-layer
/// counter do not bounce one line between cores. Reads sum the slots.
#[derive(Debug, Default)]
pub struct Counter([Shard; COUNTER_SHARDS]);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        let shard = SHARD.with(|&i| i);
        self.0[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum over every thread's shard.
    pub fn get(&self) -> u64 {
        self.0
            .iter()
            .fold(0u64, |sum, s| sum.wrapping_add(s.0.load(Ordering::Relaxed)))
    }

    fn reset(&self) {
        for s in &self.0 {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-value-wins gauge with a monotonic-max variant.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raise the gauge to `value` if it is higher than the current reading.
    pub fn record_max(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Map a value to its histogram bucket: 0 for zero, `floor(log2(v)) + 1`
/// otherwise, so bucket `i >= 1` covers `[2^(i-1), 2^i)`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (the smallest value it admits).
pub fn bucket_lower_bound(i: usize) -> u64 {
    assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Exclusive upper bound of bucket `i` (`None` for the last, unbounded
/// bucket).
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
    match i {
        0 => Some(1),
        64 => None,
        _ => Some(1u64 << i),
    }
}

/// A histogram over `u64` values with fixed power-of-two buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds (name the metric `*_us`).
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Sparse `(bucket index, count)` pairs for non-empty buckets.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn intern<T: Default>(map: &Mutex<BTreeMap<&'static str, Arc<T>>>, name: &'static str) -> Arc<T> {
    map.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .entry(name)
        .or_default()
        .clone()
}

/// Fetch-or-create the counter named `name`.
pub fn counter(name: &'static str) -> Arc<Counter> {
    intern(&registry().counters, name)
}

/// Fetch-or-create the gauge named `name`.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    intern(&registry().gauges, name)
}

/// Fetch-or-create the histogram named `name`.
pub fn histogram(name: &'static str) -> Arc<Histogram> {
    intern(&registry().histograms, name)
}

/// Zero every registered metric in place. Handles stay valid — hot-path
/// caches keep working across sessions.
pub(crate) fn reset() {
    let r = registry();
    for c in r
        .counters
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .values()
    {
        c.reset();
    }
    for g in r
        .gauges
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .values()
    {
        g.reset();
    }
    for h in r
        .histograms
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .values()
    {
        h.reset();
    }
}

/// Point-in-time values of every registered metric, in name order.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Frozen histogram contents.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Sparse `(bucket index, count)` pairs.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Deterministic approximate quantile `q` in `[0, 1]`: the inclusive
    /// upper edge of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`.
    ///
    /// Power-of-two buckets bound the answer within 2x of the exact value,
    /// which is the right resolution for log-scale latency SLOs: the
    /// reported percentile only moves when observations cross a bucket
    /// boundary, so two runs with the same bucket occupancy report the same
    /// p50/p99 regardless of intra-bucket jitter. Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                // The bucket's largest admissible value (its exclusive upper
                // bound minus one); the unbounded top bucket reports its
                // lower edge, the only bound it has.
                return match bucket_upper_bound(i) {
                    Some(upper) => upper - 1,
                    None => bucket_lower_bound(i),
                };
            }
        }
        // Sparse buckets always sum to `count`; reaching here means the
        // snapshot was assembled by hand with fewer bucket entries than
        // `count` claims — answer with the largest recorded edge.
        self.buckets.last().map_or(0, |&(i, _)| {
            bucket_upper_bound(i).map_or(u64::MAX, |u| u - 1)
        })
    }
}

/// Snapshot every registered metric. Zero-valued counters and gauges are
/// included, so the schema is stable across runs that skip a code path.
pub fn snapshot() -> MetricsSnapshot {
    let r = registry();
    MetricsSnapshot {
        counters: r
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, c)| (name.to_string(), c.get()))
            .collect(),
        gauges: r
            .gauges
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, g)| (name.to_string(), g.get()))
            .collect(),
        histograms: r
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, h)| {
                (
                    name.to_string(),
                    HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.nonzero_buckets(),
                    },
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let c = counter("test.metric.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = gauge("test.metric.gauge");
        g.set(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
        g.record_max(11);
        assert_eq!(g.get(), 11);
        // Interning: the same name yields the same cell.
        counter("test.metric.counter").inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn sharded_counter_sums_threads_exactly_and_resets_every_shard() {
        let c = Counter::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        c.reset();
        assert_eq!(c.get(), 0);
        assert!(c.0.iter().all(|s| s.0.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn histogram_records_into_log_buckets() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 2058);
        let buckets: BTreeMap<usize, u64> = h.nonzero_buckets().into_iter().collect();
        assert_eq!(buckets[&0], 1); // the zero
        assert_eq!(buckets[&1], 2); // the ones
        assert_eq!(buckets[&2], 2); // 2, 3
        assert_eq!(buckets[&3], 1); // 4
        assert_eq!(buckets[&10], 1); // 1023 in [512, 1024)
        assert_eq!(buckets[&11], 1); // 1024 in [1024, 2048)
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lower_bound(64), 1u64 << 63);
        assert_eq!(bucket_upper_bound(64), None);
    }

    #[test]
    fn percentiles_follow_bucket_edges() {
        let h = Histogram::default();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        let snap = HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            buckets: h.nonzero_buckets(),
        };
        // p50 lands among the ones (bucket 1 = [1, 2) -> edge 1); p99 must
        // reach the 1000 outlier (bucket 10 = [512, 1024) -> edge 1023).
        assert_eq!(snap.percentile(0.5), 1);
        assert_eq!(snap.percentile(0.99), 1023);
        assert_eq!(snap.percentile(0.0), 1);
        assert_eq!(snap.percentile(1.0), 1023);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let snap = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        assert_eq!(snap.percentile(0.5), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Every value lands in exactly the bucket whose [lower, upper)
        // range contains it.
        #[test]
        fn bucket_contains_its_values(v in 0u64..u64::MAX) {
            let i = bucket_index(v);
            prop_assert!(i < HISTOGRAM_BUCKETS);
            prop_assert!(v >= bucket_lower_bound(i));
            if let Some(upper) = bucket_upper_bound(i) {
                prop_assert!(v < upper);
            }
        }

        // Bucket ranges partition the u64 domain: each bucket's upper bound
        // is the next bucket's lower bound.
        #[test]
        fn buckets_tile_the_domain(i in 0usize..HISTOGRAM_BUCKETS - 1) {
            prop_assert_eq!(bucket_upper_bound(i).unwrap(), bucket_lower_bound(i + 1));
        }

        // bucket_index is monotone: a larger value never lands in a
        // smaller bucket.
        #[test]
        fn bucket_index_is_monotone(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bucket_index(lo) <= bucket_index(hi));
        }

        // Boundary values: 2^k is the first value of bucket k+1 and
        // 2^k - 1 the last of bucket k.
        #[test]
        fn power_of_two_boundaries(k in 0u32..63) {
            let v = 1u64 << k;
            prop_assert_eq!(bucket_index(v), k as usize + 1);
            if v > 1 {
                prop_assert_eq!(bucket_index(v - 1), k as usize);
            }
        }
    }
}
