//! Bounded fixed-interval time-series sampler.
//!
//! Callers offer one sample per base interval (the system's sampling
//! cadence). The series keeps every accepted sample until its capacity is
//! reached, then halves its resolution — drop every other retained sample,
//! double the accept stride — so memory stays bounded for arbitrarily long
//! runs while the retained samples remain evenly spaced.

/// A bounded, uniformly-spaced series of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    cap: usize,
    /// Accept every `stride`-th offer; doubles on each decimation.
    stride: u64,
    /// Offers remaining to skip before the next accept.
    skip: u64,
    samples: Vec<f64>,
}

impl TimeSeries {
    /// `cap` must be at least 2 (enforced) — a 1-slot series cannot decimate.
    pub fn new(cap: usize) -> Self {
        TimeSeries {
            cap: cap.max(2),
            stride: 1,
            skip: 0,
            samples: Vec::new(),
        }
    }

    /// Offer the sample for the current base interval.
    pub fn offer(&mut self, v: f64) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        if self.samples.len() >= self.cap {
            let mut i = 0usize;
            self.samples.retain(|_| {
                let keep = i.is_multiple_of(2);
                i += 1;
                keep
            });
            self.stride *= 2;
        }
        self.samples.push(v);
        self.skip = self.stride - 1;
    }

    /// Base intervals between retained samples.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn peak(&self) -> f64 {
        self.samples.iter().copied().fold(0.0f64, f64::max)
    }
}

crate::snap_value!(TimeSeries {
    cap,
    stride,
    skip,
    samples
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_exceeds_cap() {
        let mut ts = TimeSeries::new(64);
        for i in 0..100_000u64 {
            ts.offer(i as f64);
            assert!(ts.len() <= 64, "cap exceeded at offer {i}");
        }
        assert!(ts.stride() > 1, "long run must have decimated");
        // Retained samples stay in offer order.
        let s = ts.samples();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn short_series_keeps_every_sample() {
        let mut ts = TimeSeries::new(16);
        for i in 0..10 {
            ts.offer(i as f64);
        }
        assert_eq!(ts.stride(), 1);
        assert_eq!(ts.samples(), (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn decimation_keeps_even_spacing() {
        let mut ts = TimeSeries::new(4);
        for i in 0..8 {
            ts.offer(i as f64);
        }
        // After one decimation the series holds every other offer.
        assert_eq!(ts.stride(), 2);
        for w in ts.samples().windows(2) {
            assert_eq!(w[1] - w[0], 2.0, "uneven spacing: {:?}", ts.samples());
        }
    }

    #[test]
    fn peak_tracks_maximum_retained() {
        let mut ts = TimeSeries::new(8);
        for v in [1.0, 9.0, 3.0] {
            ts.offer(v);
        }
        assert_eq!(ts.peak(), 9.0);
    }
}
