//! Log-bucketed latency histogram.
//!
//! Values (cycle counts) land in power-of-two octaves refined into four
//! linear sub-buckets each, so any recorded value is reconstructed from its
//! bucket with at most 25 % relative overestimate while the whole `u64`
//! range fits in a fixed 252-slot table. Single-threaded by construction —
//! the simulator ticks one system per thread — so recording is one array
//! increment, no locks, no allocation after construction.

/// 4 linear buckets for values 0–3, then 4 sub-buckets per octave for
/// exponents 2–63.
pub const NUM_BUCKETS: usize = 4 + 62 * 4;

/// Fixed-size log-linear histogram over `u64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for a value: exact below 4, log-linear above.
fn bucket_of(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (exp - 2)) & 3) as usize;
        4 + (exp - 2) * 4 + sub
    }
}

/// Inclusive upper bound of a bucket (what percentiles report).
fn bucket_upper(i: usize) -> u64 {
    if i < 4 {
        i as u64
    } else {
        let exp = 2 + (i - 4) / 4;
        let sub = ((i - 4) % 4) as u64;
        let step = 1u64 << (exp - 2);
        (1u64 << exp) + sub * step + (step - 1)
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Value at quantile `q ∈ [0, 1]`: the upper bound of the bucket holding
    /// the rank-`⌈q·count⌉` sample, clamped to the observed min/max so exact
    /// extremes are exact.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    pub fn p90(&self) -> Option<u64> {
        self.percentile(0.90)
    }

    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

crate::snap_state!(Histogram { counts [words], count, sum, min, max });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_total() {
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order broken at {v}");
            assert!(b < NUM_BUCKETS);
            assert!(bucket_upper(b) >= v, "upper bound below value {v}");
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.25), Some(0));
        assert_eq!(h.percentile(1.0), Some(3));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(3));
    }

    #[test]
    fn percentiles_of_uniform_distribution() {
        // 1..=1000 uniformly: p50 ≈ 500, p90 ≈ 900, p99 ≈ 990, each
        // overestimated by at most the 25 % bucket width.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean().unwrap() - 500.5).abs() < 1e-9);
        let p50 = h.p50().unwrap();
        assert!((500..=625).contains(&p50), "p50 = {p50}");
        let p90 = h.p90().unwrap();
        assert!((900..=1000).contains(&p90), "p90 = {p90}");
        let p99 = h.p99().unwrap();
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(1.0), Some(1000), "max is exact");
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn merge_combines_populations() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(1000));
        let p50 = a.p50().unwrap();
        assert!((500..=625).contains(&p50), "p50 = {p50}");
    }
}
