//! The benchmark's own arithmetic: medians over measured samples and the
//! latency histogram's percentile picks.

/// The nearest-rank `p`-th percentile of `sorted` (ascending): the
/// smallest sample with at least `p`% of the samples at or below it.
/// `p` is clamped to `0..=100`; `p = 0` picks the minimum. The exact
/// reference the histogram's picks are tested against.
///
/// # Panics
///
/// Panics on an empty slice.
#[cfg(test)]
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`: the mean of the two middle samples when the
/// count is even.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency histogram with buckets 0.1% wide, from 1 µs up: percentiles
/// read from it are within 0.05% of the recorded values, and its size does
/// not grow with the number of samples.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    total: u64,
    sum_ms: f64,
}

impl LatencyHist {
    /// Bucket `i` holds `[1.001^i, 1.001^(i+1))` µs; the last one also
    /// holds everything slower (about 8.9 s and up).
    const BUCKETS: usize = 16_000;
    const GROWTH: f64 = 1.001;

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; Self::BUCKETS],
            total: 0,
            sum_ms: 0.0,
        }
    }

    /// Records one latency, in milliseconds.
    pub fn record(&mut self, ms: f64) {
        let us = (ms * 1e3).max(1.0);
        let i = ((us.ln() / Self::GROWTH.ln()) as usize).min(Self::BUCKETS - 1);
        self.counts[i] += 1;
        self.total += 1;
        self.sum_ms += ms;
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ms += other.sum_ms;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency, ms (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ms / self.total as f64
        }
    }

    /// The nearest-rank `p`-th percentile, ms: the middle of the bucket
    /// holding that sample (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.total as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Self::GROWTH.powf(i as f64 + 0.5) / 1e3;
            }
        }
        0.0
    }
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 99.5% of 100 samples rounds the rank up to the 100th.
        assert_eq!(percentile(&v, 99.5), 100.0);
    }

    #[test]
    fn small_samples_pick_real_values() {
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 51.0), 3.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&v, 99.0);
        assert_eq!(p99, 989.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= b * 5e-4
    }

    #[test]
    fn histogram_percentiles_match_the_samples() {
        let mut h = LatencyHist::new();
        let samples: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 0.01).collect();
        for &ms in &samples {
            h.record(ms);
        }
        assert_eq!(h.count(), 1000);
        assert!(close(h.percentile(50.0), percentile(&samples, 50.0)));
        assert!(close(h.percentile(99.0), percentile(&samples, 99.0)));
        assert!(close(h.mean_ms(), 5.005));
    }

    #[test]
    fn merged_histograms_count_both_sides() {
        let (mut a, mut b) = (LatencyHist::new(), LatencyHist::new());
        for _ in 0..99 {
            a.record(0.040);
        }
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!(close(a.percentile(99.0), 0.040));
        assert!(close(a.percentile(100.0), 2.0));
        assert_eq!(LatencyHist::new().percentile(50.0), 0.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
