//! Time-series recording for evaluation figures.
//!
//! The paper's appendix plots latency and throughput against simulated
//! time (Figures 11–22). [`TimeSeries`] collects `(time, value)` samples
//! and can re-bin them into fixed windows — which is exactly how a
//! "throughput vs time" series is derived from individual OK events.
//! [`Histogram`] is the matching value-distribution recorder: fixed
//! deterministic buckets, exact `u64` counts, and mergeable across
//! seeds, so percentile reports are bit-reproducible however many
//! threads produced the samples.

use crate::time::{SimDuration, SimTime};

/// An append-only series of timestamped samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries {
            samples: Vec::new(),
        }
    }

    /// Appends a sample. Timestamps must be non-decreasing.
    ///
    /// # Panics
    /// Panics if `t` precedes the previous sample (DES time is monotone).
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(t >= last, "time-series must be monotone: {t:?} < {last:?}");
        }
        self.samples.push((t, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Mean of all sample values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Merges another series into this one, keeping timestamps
    /// non-decreasing. On equal timestamps `self`'s samples order
    /// before `other`'s, so the result is deterministic whatever the
    /// call order — this is how per-seed series are combined into one
    /// scenario series (simply `push`ing a second seed's samples would
    /// trip the monotonicity assert the moment its first timestamp
    /// precedes the first seed's last).
    pub fn merge(&mut self, other: &TimeSeries) {
        if other.samples.is_empty() {
            return;
        }
        if self
            .samples
            .last()
            .is_some_and(|&(last, _)| last > other.samples[0].0)
        {
            let mut merged = Vec::with_capacity(self.samples.len() + other.samples.len());
            let (mut i, mut j) = (0, 0);
            while i < self.samples.len() && j < other.samples.len() {
                // `<=` keeps the merge stable: ties take self first.
                if self.samples[i].0 <= other.samples[j].0 {
                    merged.push(self.samples[i]);
                    i += 1;
                } else {
                    merged.push(other.samples[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&self.samples[i..]);
            merged.extend_from_slice(&other.samples[j..]);
            self.samples = merged;
        } else {
            self.samples.extend_from_slice(&other.samples);
        }
    }

    /// Re-bins into windows of `width`, returning
    /// `(window start, count, value sum)` per window over `[0, end]`.
    /// Windows with no samples are included with zero count.
    ///
    /// Boundary semantics: window `k` covers `[k·width, (k+1)·width)`,
    /// except the final window, which is additionally closed at `end` —
    /// a sample at exactly `t == end` is counted there (previously a
    /// sample sitting exactly on the equal `end`-boundary of an aligned
    /// range fell out of the defined window set and was folded in by an
    /// index clamp with no stated contract). `end == 0` yields a single
    /// empty-range window holding only samples at `t == 0`.
    pub fn binned(&self, width: SimDuration, end: SimTime) -> Vec<Bin> {
        assert!(!width.is_zero(), "zero bin width");
        let n_bins = end
            .since(SimTime::ZERO)
            .as_ps()
            .div_ceil(width.as_ps())
            .max(1);
        let mut bins: Vec<Bin> = (0..n_bins)
            .map(|i| Bin {
                start: SimTime::from_ps(i * width.as_ps()),
                count: 0,
                sum: 0.0,
            })
            .collect();
        for &(t, v) in &self.samples {
            if t > end {
                break;
            }
            let idx = (t.as_ps() / width.as_ps()).min(n_bins - 1) as usize;
            bins[idx].count += 1;
            bins[idx].sum += v;
        }
        bins
    }

    /// Event *rate* per second in each window — the throughput series of
    /// the paper's appendix figures, where each pushed sample is one
    /// delivered pair.
    pub fn rate_per_second(&self, width: SimDuration, end: SimTime) -> Vec<(SimTime, f64)> {
        let w = width.as_secs_f64();
        self.binned(width, end)
            .into_iter()
            .map(|b| (b.start, b.count as f64 / w))
            .collect()
    }
}

/// One aggregation window of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Window start time.
    pub start: SimTime,
    /// Number of samples in the window.
    pub count: u64,
    /// Sum of sample values in the window.
    pub sum: f64,
}

impl Bin {
    /// Mean sample value in the window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A fixed-bucket histogram with deterministic percentile readout.
///
/// The bucket layout — `buckets` equal-width buckets over `[lo, hi)` —
/// is fixed at construction, so two histograms built the same way can
/// be [`Histogram::merge`]d bucket-by-bucket with exact `u64`
/// arithmetic: aggregation order never changes a count, a quantile, or
/// a single bit of the report. Samples below `lo` or at/above `hi`
/// clamp into the first/last bucket (`count` still tracks them
/// exactly, and `min`/`max` record the true extremes).
///
/// This is the metrics primitive of the telemetry layer: a quantile
/// read back from bucket boundaries is within one bucket width of the
/// exact order statistic of the recorded samples (every sample in a
/// bucket lies inside that bucket's range), which is the resolution
/// contract the percentile reports advertise.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram of `buckets` equal-width buckets over
    /// `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` (finite) and `buckets >= 1`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad histogram range [{lo}, {hi})"
        );
        assert!(buckets >= 1, "a histogram needs at least one bucket");
        Histogram {
            lo,
            width: (hi - lo) / buckets as f64,
            counts: vec![0; buckets],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample (out-of-range samples clamp into the end
    /// buckets; NaN is rejected).
    ///
    /// # Panics
    /// Panics on NaN.
    pub fn record(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN histogram sample");
        let idx = if v <= self.lo {
            0
        } else {
            (((v - self.lo) / self.width) as usize).min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of all recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Width of each bucket.
    pub fn bucket_width(&self) -> f64 {
        self.width
    }

    /// Per-bucket counts, first bucket (at `lo`) first.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) read from the bucket boundaries:
    /// the upper edge of the bucket holding the nearest-rank
    /// (`⌈q·n⌉`-th smallest) sample, clamped to the true recorded
    /// `min`/`max`. Within one bucket width of the exact order
    /// statistic for in-range samples; 0 when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        // Nearest-rank: the smallest bucket whose cumulative count
        // reaches ⌈q·n⌉ (rank 1 for q = 0).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            // The rank-n order statistic is the maximum itself, which
            // is tracked exactly (and may sit beyond the last bucket
            // edge when an out-of-range sample was clamped in).
            return self.max;
        }
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let upper = self.lo + self.width * (i as f64 + 1.0);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Adds another histogram's counts into this one, bucket by
    /// bucket — the deterministic per-seed aggregation path.
    ///
    /// # Panics
    /// Panics if the bucket layouts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo
                && self.width == other.width
                && self.counts.len() == other.counts.len(),
            "merging histograms with different bucket layouts"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn push_and_mean() {
        let mut ts = TimeSeries::new();
        ts.push(t(1), 2.0);
        ts.push(t(2), 4.0);
        assert_eq!(ts.len(), 2);
        assert!((ts.mean() - 3.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(t(2), 0.0);
        ts.push(t(1), 0.0);
    }

    #[test]
    fn binning_counts_and_sums() {
        let mut ts = TimeSeries::new();
        ts.push(t(0), 1.0);
        ts.push(t(1), 2.0);
        ts.push(t(5), 10.0);
        let bins = ts.binned(SimDuration::from_secs(2), t(6));
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].count, 2);
        assert!((bins[0].sum - 3.0).abs() < 1e-15);
        assert_eq!(bins[1].count, 0);
        assert_eq!(bins[2].count, 1);
        assert!((bins[2].mean() - 10.0).abs() < 1e-15);
    }

    #[test]
    fn rate_per_second() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.push(SimTime::from_ps(i * 100_000_000_000), 1.0); // every 0.1 s
        }
        let rates = ts.rate_per_second(SimDuration::from_secs(1), t(1));
        assert_eq!(rates.len(), 1);
        assert!((rates[0].1 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn samples_beyond_end_excluded() {
        let mut ts = TimeSeries::new();
        ts.push(t(1), 1.0);
        ts.push(t(10), 1.0);
        let bins = ts.binned(SimDuration::from_secs(2), t(4));
        let total: u64 = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), 0.0);
        let bins = ts.binned(SimDuration::from_secs(1), t(3));
        assert_eq!(bins.len(), 3);
        assert!(bins.iter().all(|b| b.count == 0));
    }

    #[test]
    fn sample_at_equal_end_boundary_lands_in_final_window() {
        // end is an exact multiple of the width and a sample sits at
        // exactly t == end: it belongs to the (closed) final window.
        let mut ts = TimeSeries::new();
        ts.push(t(4), 7.0);
        let bins = ts.binned(SimDuration::from_secs(2), t(4));
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[1].count, 1);
        assert!((bins[1].sum - 7.0).abs() < 1e-15);
    }

    #[test]
    fn zero_span_end_is_one_empty_range_window() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::ZERO, 1.0);
        ts.push(t(1), 1.0);
        let bins = ts.binned(SimDuration::from_secs(2), SimTime::ZERO);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].count, 1, "only the t == 0 sample is in range");
    }

    #[test]
    fn merge_interleaves_and_stays_monotone() {
        // Pushing b's samples after a's would panic (non-monotone);
        // merge is the supported combination path.
        let mut a = TimeSeries::new();
        a.push(t(1), 1.0);
        a.push(t(3), 3.0);
        let mut b = TimeSeries::new();
        b.push(t(2), 2.0);
        b.push(t(3), 30.0);
        a.merge(&b);
        let times: Vec<u64> = a.samples().iter().map(|&(t, _)| t.as_ps()).collect();
        assert_eq!(
            times,
            vec![t(1).as_ps(), t(2).as_ps(), t(3).as_ps(), t(3).as_ps()]
        );
        // Equal-boundary tie: self's sample orders first.
        assert_eq!(a.samples()[2].1, 3.0);
        assert_eq!(a.samples()[3].1, 30.0);
        // The merged series re-bins without tripping the monotone
        // invariant.
        let bins = a.binned(SimDuration::from_secs(2), t(4));
        assert_eq!(bins.iter().map(|b| b.count).sum::<u64>(), 4);
    }

    #[test]
    fn merge_appends_cheaply_when_already_ordered() {
        let mut a = TimeSeries::new();
        a.push(t(1), 1.0);
        let mut b = TimeSeries::new();
        b.push(t(1), 2.0);
        b.push(t(5), 3.0);
        a.merge(&b);
        a.merge(&TimeSeries::new());
        assert_eq!(a.len(), 3);
        assert_eq!(a.samples()[0].1, 1.0);
        assert_eq!(a.samples()[1].1, 2.0);
    }

    #[test]
    fn histogram_records_and_reads_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 100);
        for i in 1..=100 {
            h.record(i as f64 / 10.0);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 5.05).abs() < 1e-12);
        // Exact p50 of 0.1..=10.0 is 5.0; bucket readout is within one
        // bucket width (0.1).
        assert!((h.quantile(0.5) - 5.0).abs() <= 0.1 + 1e-12);
        assert!((h.quantile(0.99) - 9.9).abs() <= 0.1 + 1e-12);
        assert_eq!(h.quantile(1.0), 10.0);
        assert!((h.quantile(0.0) - 0.1).abs() <= 0.1 + 1e-12);
    }

    #[test]
    fn histogram_clamps_out_of_range_and_tracks_extremes() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.record(-5.0);
        h.record(2.5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), 2.5);
        // Quantiles clamp to the true extremes, not bucket edges.
        assert_eq!(h.quantile(1.0), 2.5);
    }

    #[test]
    fn histogram_merge_matches_single_stream() {
        let mut all = Histogram::new(0.0, 4.0, 16);
        let mut a = Histogram::new(0.0, 4.0, 16);
        let mut b = Histogram::new(0.0, 4.0, 16);
        for i in 0..40 {
            let v = (i as f64 * 0.37) % 4.0;
            all.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        // Bucket counts and extremes are exactly order-insensitive;
        // `sum` is a float accumulation, so split streams may differ
        // from the single stream in the last ulps.
        assert_eq!(a.counts(), all.counts());
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "different bucket layouts")]
    fn histogram_merge_rejects_mismatched_layout() {
        let mut a = Histogram::new(0.0, 1.0, 10);
        a.merge(&Histogram::new(0.0, 1.0, 20));
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }
}
