//! Seeded load schedules: a SplitMix64 generator, Poisson arrival times and
//! zipf draws.
//!
//! Owned by the benchmark rather than borrowed from `convmeter loadgen`, so a
//! change to the serve crate cannot change the instrument that measures it.

use std::time::Duration;

/// SplitMix64 (Steele, Lea and Flood 2014): one 64-bit state word, full
/// period, and every seed — zero included — gives a good stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// An independent stream for one purpose (`salt`) of one run (`seed`).
    pub fn stream(seed: u64, salt: u64) -> Self {
        let mut mix = SplitMix64::new(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        SplitMix64::new(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        // Multiply-shift maps 64 random bits onto 0..n with bias below 2^-40
        // for every n this benchmark uses.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Due times, as offsets from the start of a phase, of a Poisson arrival
/// process at `rate` per second over `duration`: the arrivals of many
/// independent users.
pub fn poisson_arrivals(rng: &mut SplitMix64, rate: f64, duration: Duration) -> Vec<Duration> {
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * end * 1.1) as usize + 8);
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1], so ln is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Zipf distribution over ranks `0..n`: rank `k` has weight `1 / (k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_values() {
        // First outputs of the reference C implementation for seed 0.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_arrivals(&mut SplitMix64::stream(7, 1), 100.0, Duration::from_secs(5));
        let b = poisson_arrivals(&mut SplitMix64::stream(7, 1), 100.0, Duration::from_secs(5));
        let c = poisson_arrivals(&mut SplitMix64::stream(8, 1), 100.0, Duration::from_secs(5));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let other_purpose =
            poisson_arrivals(&mut SplitMix64::stream(7, 2), 100.0, Duration::from_secs(5));
        assert_ne!(a, other_purpose);
    }

    #[test]
    fn schedule_achieves_its_rate() {
        for seed in 0..5 {
            let due = poisson_arrivals(
                &mut SplitMix64::stream(seed, 1),
                100.0,
                Duration::from_secs(60),
            );
            // 6000 expected arrivals; Poisson sd is ~77, so 5% is > 3.8 sd.
            let achieved = due.len() as f64 / 60.0;
            assert!(
                (achieved - 100.0).abs() < 5.0,
                "seed {seed}: {achieved} rps"
            );
            assert!(due.windows(2).all(|w| w[0] <= w[1]));
            assert!(due.last().is_some_and(|d| *d < Duration::from_secs(60)));
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_covers_the_range() {
        let zipf = Zipf::new(36, 1.1);
        let mut rng = SplitMix64::new(3);
        let mut counts = [0usize; 36];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts.windows(2).take(5).all(|w| w[0] > w[1]));
        assert!(counts.iter().all(|&c| c > 0));
        // Rank 0 carries 1/H(36, 1.1) = 0.2773 of the mass.
        let top = counts[0] as f64 / 100_000.0;
        assert!((top - 0.2773).abs() < 0.006, "rank-0 share {top}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(11);
        assert!((0..10_000).all(|_| rng.below(3) < 3));
    }
}
