//! Percentiles from raw samples.
//!
//! Exact nearest-rank order statistics over every sample, never a
//! histogram: the program's own log2 buckets report 8191 µs for anything in
//! 4096..8191 µs, which cannot tell a 4.1 ms p50 from an 8 ms p99.

/// Fewest samples that must lie beyond a percentile for it to be reported
/// as supported by the data.
pub const MIN_BEYOND: usize = 10;

/// One nearest-rank percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Sample count the percentile was taken over.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond this rank.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`: the
/// smallest sample with at least `p`% of the sample at or below it. `None`
/// for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(p, n);
    Some(Percentile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The 1-based nearest rank `ceil(p/100 * n)`, at least 1. The product is
/// rounded first so that 0.99 * 1000 lands on rank 990, not 991 through
/// float error.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 * 1e9).round() / 1e9).ceil().max(1.0) as usize
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0).map(|p| p.value)
}

/// Highest percentile [`tail`] reports.
pub const TAIL_P: f64 = 90.0;

/// The highest nearest-rank percentile, up to [`TAIL_P`], with at least
/// [`MIN_BEYOND`] samples beyond it: p90 from 100 samples up, lower below
/// that, and the median when even the median has fewer than ten beyond it.
/// Returns the percentile with the `p` it was taken at.
///
/// p90 rather than p99: on a shared host the 1% tail of a 20-second run is
/// set by how many host stalls the run happened to meet, and moved by a
/// third from run to run where p90 moved by 3%.
pub fn tail(samples: &[f64]) -> Option<(f64, Percentile)> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(TAIL_P, n)
        .min(n.saturating_sub(MIN_BEYOND))
        .max(nearest_rank(50.0, n));
    let p = 100.0 * rank as f64 / n as f64;
    percentile(samples, p).map(|q| (p, q))
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn empty_sample_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [1.0, 50.0, 99.0, 100.0] {
            let q = percentile(&[4.5], p).unwrap();
            assert_eq!((q.value, q.n, q.beyond), (4.5, 1, 0));
            assert!(!q.supported());
        }
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let xs = ramp(1000);
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(p99.supported());
        assert_eq!(percentile(&xs, 100.0).unwrap().value, 1000.0);
        // Even count: nearest rank takes the lower middle, no interpolation.
        assert_eq!(median(&ramp(4)), Some(2.0));
    }

    #[test]
    fn p99_is_unsupported_below_ten_samples_beyond() {
        // 999 samples: rank ceil(989.01) = 990, 9 beyond.
        let p = percentile(&ramp(999), 99.0).unwrap();
        assert_eq!((p.value, p.beyond), (990.0, 9));
        assert!(!p.supported());
        // 1500 samples: rank 1485, 15 beyond.
        let p = percentile(&ramp(1500), 99.0).unwrap();
        assert_eq!((p.value, p.beyond), (1485.0, 15));
        assert!(p.supported());
        // Below 100 samples p99 is the maximum.
        let p = percentile(&ramp(30), 99.0).unwrap();
        assert_eq!((p.value, p.beyond), (30.0, 0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail(&[]), None);
        // Plenty of samples: the cap itself.
        let (p, q) = tail(&ramp(1500)).unwrap();
        assert_eq!((p, q.value, q.beyond), (90.0, 1350.0, 150));
        let (p, q) = tail(&ramp(100)).unwrap();
        assert_eq!((p, q.value, q.beyond), (90.0, 90.0, 10));
        // Fewer: the rank that leaves exactly ten beyond.
        let (p, q) = tail(&ramp(80)).unwrap();
        assert_eq!((p, q.value, q.beyond), (87.5, 70.0, 10));
        assert!(q.supported());
        // Too few for any tail: the median, flagged unsupported.
        let (p, q) = tail(&ramp(4)).unwrap();
        assert_eq!((p, q.value), (50.0, 2.0));
        assert!(!q.supported());
        let (_, q) = tail(&ramp(16)).unwrap();
        assert_eq!(q.value, 8.0);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(mean(&xs), Some(3.0));
    }
}
