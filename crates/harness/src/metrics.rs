//! Latency and throughput accounting in virtual time.
//!
//! [`LatencyStats`] keeps every sample, so its percentiles are exact
//! order statistics by nearest rank — the definition the benchmark's
//! `stats::percentile` uses — rather than histogram bucket bounds. A
//! sample costs 8 bytes, and a percentile query sorts a copy.

use todr_sim::{SimDuration, SimTime};

/// A latency recorder with summary statistics over its kept samples.
#[derive(Debug, Default, Clone)]
pub struct LatencyStats {
    /// Every recorded sample, in nanoseconds, in recording order.
    samples: Vec<u64>,
}

impl LatencyStats {
    /// An empty recorder.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: SimDuration) {
        self.samples.push(sample.as_nanos());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Arithmetic mean (the sum saturates at `u64::MAX` nanoseconds),
    /// or zero if empty.
    pub fn mean(&self) -> SimDuration {
        let sum = self
            .samples
            .iter()
            .fold(0u64, |sum, &s| sum.saturating_add(s));
        SimDuration::from_nanos(sum.checked_div(self.count()).unwrap_or(0))
    }

    /// The `p`-th percentile (0-100) by nearest rank: the smallest sample
    /// with at least `p` percent of the samples at or below it (the
    /// minimum for `p` = 0); zero if empty.
    pub fn percentile(&self, p: f64) -> SimDuration {
        let n = self.samples.len();
        if n == 0 {
            return SimDuration::ZERO;
        }
        // `ceil(p% of n)`, less an epsilon so that binary rounding of `p`
        // cannot push the rank one up.
        let rank = ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
        let mut samples = self.samples.clone();
        SimDuration::from_nanos(*samples.select_nth_unstable(rank - 1).1)
    }

    /// Maximum sample, or zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.iter().copied().max().unwrap_or(0))
    }

    /// Appends another recorder's samples to this one's.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Throughput over a measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Operations completed inside the window.
    pub operations: u64,
    /// Window start.
    pub from: SimTime,
    /// Window end.
    pub to: SimTime,
}

impl Throughput {
    /// Operations per second of virtual time.
    pub fn per_second(&self) -> f64 {
        let span = (self.to - self.from).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.operations as f64 / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_max_and_percentiles_are_exact() {
        let mut stats = LatencyStats::new();
        for ms in [10u64, 20, 30, 40, 50] {
            stats.record(SimDuration::from_millis(ms));
        }
        assert_eq!(stats.count(), 5);
        assert_eq!(stats.mean(), SimDuration::from_millis(30));
        assert_eq!(stats.max(), SimDuration::from_millis(50));
        for (p, ms) in [(0.0, 10u64), (10.0, 10), (20.0, 10), (50.0, 30), (99.0, 50)] {
            assert_eq!(stats.percentile(p), SimDuration::from_millis(ms), "p{p}");
        }
    }

    /// The nearest-rank percentile, straight from its definition: the
    /// smallest sample with at least `p` percent of all at or below it.
    fn nearest_rank(samples: &[u64], p: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let at_or_below = |x: u64| sorted.iter().filter(|&&s| s <= x).count() as f64;
        let first = sorted
            .iter()
            .find(|&&x| at_or_below(x) * 100.0 >= p * n - 1e-6);
        *first.unwrap_or(&sorted[0])
    }

    #[test]
    fn percentile_is_the_nearest_rank_of_the_samples() {
        // A fixed pseudo-random sequence with repeats and a long tail.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let samples: Vec<u64> = (0..997)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1_000) * (x % 7 + 1) * 1_000
            })
            .collect();
        let mut stats = LatencyStats::new();
        for &s in &samples {
            stats.record(SimDuration::from_nanos(s));
        }
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            let want = nearest_rank(&samples, p);
            assert_eq!(stats.percentile(p).as_nanos(), want, "p{p}");
        }
        // A merge concatenates: the percentiles are those of the union.
        let (left, right) = samples.split_at(400);
        let mut merged = LatencyStats::new();
        for part in [left, right] {
            let mut stats = LatencyStats::new();
            part.iter()
                .for_each(|&s| stats.record(SimDuration::from_nanos(s)));
            merged.merge(&stats);
        }
        assert_eq!(merged.count(), samples.len() as u64);
        assert_eq!(
            merged.percentile(99.0).as_nanos(),
            nearest_rank(&samples, 99.0)
        );
    }

    #[test]
    fn percentile_units_are_preserved() {
        // A regression guard for unit mix-ups: a 10 ms sample must
        // produce millisecond-scale percentiles, not micro or seconds.
        let mut stats = LatencyStats::new();
        stats.record(SimDuration::from_millis(10));
        let p99 = stats.percentile(99.0);
        assert_eq!(p99, SimDuration::from_millis(10), "single sample is exact");
        assert!((p99.as_millis_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = LatencyStats::new();
        assert_eq!(stats.mean(), SimDuration::ZERO);
        assert_eq!(stats.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyStats::new();
        a.record(SimDuration::from_millis(10));
        let mut b = LatencyStats::new();
        b.record(SimDuration::from_millis(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_millis(20));
    }

    #[test]
    fn throughput_per_second() {
        let t = Throughput {
            operations: 500,
            from: SimTime::from_secs(1),
            to: SimTime::from_secs(3),
        };
        assert!((t.per_second() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_empty_window_is_zero() {
        let t = Throughput {
            operations: 5,
            from: SimTime::from_secs(1),
            to: SimTime::from_secs(1),
        };
        assert_eq!(t.per_second(), 0.0);
    }
}
