//! Simulator-agnostic statistics kernels: streaming summaries, log-bucketed
//! histograms, and exact empirical CDFs.
//!
//! These types originated in `elephant-des::stats` and moved here so that
//! every crate (net metrics, the hybrid engine, the run report) shares
//! one histogram implementation. `elephant-des` re-exports them, so
//! downstream code may keep importing from either crate.

/// Streaming mean/variance/min/max via Welford's algorithm.
///
/// Numerically stable for long runs; one pass, O(1) memory.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Smallest observation, or +inf if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or -inf if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Logarithmically bucketed histogram for latency-like positive quantities.
///
/// Buckets are spaced evenly in log10 between `lo` and `hi`, with underflow
/// and overflow bins at the ends. Quantile queries interpolate within the
/// winning bucket, giving ~`(hi/lo)^(1/buckets)` relative error — ample for
/// plotting CDFs over five decades of RTT.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    lo_log: f64,
    hi_log: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl LogHistogram {
    /// Creates a histogram covering `[lo, hi]` with `buckets` log-spaced
    /// bins (plus hidden under/overflow bins).
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && buckets >= 1, "bad histogram bounds");
        LogHistogram {
            lo_log: lo.log10(),
            hi_log: hi.log10(),
            counts: vec![0; buckets + 2],
            total: 0,
            sum: 0.0,
        }
    }

    /// A histogram suitable for RTT/latency in seconds: 10 ns to 100 s,
    /// 50 buckets per decade.
    pub fn for_latency_seconds() -> Self {
        LogHistogram::new(1e-8, 1e2, 500)
    }

    fn bucket_of(&self, x: f64) -> usize {
        let n = self.counts.len() - 2;
        if x.is_nan() || x <= 0.0 || x.log10() < self.lo_log {
            return 0; // underflow (also catches NaN / non-positive)
        }
        let frac = (x.log10() - self.lo_log) / (self.hi_log - self.lo_log);
        if frac >= 1.0 {
            n + 1 // overflow
        } else {
            1 + (frac * n as f64) as usize
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        let b = self.bucket_of(x);
        self.counts[b] += 1;
        self.total += 1;
        self.sum += x;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of raw observations (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0,1]`, interpolated within the bucket.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0.0;
        }
        let target = (q * self.total as f64).max(1.0);
        let mut seen = 0u64;
        let n = self.counts.len() - 2;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= target {
                let within = (target - seen as f64) / c as f64;
                return self.bucket_value(i, within, n);
            }
            seen += c;
        }
        self.bucket_value(self.counts.len() - 1, 1.0, n)
    }

    fn bucket_value(&self, i: usize, within: f64, n: usize) -> f64 {
        let width = (self.hi_log - self.lo_log) / n as f64;
        match i {
            0 => 10f64.powf(self.lo_log),               // underflow: clamp at lo
            i if i == n + 1 => 10f64.powf(self.hi_log), // overflow: clamp at hi
            _ => {
                let left = self.lo_log + (i - 1) as f64 * width;
                10f64.powf(left + within * width)
            }
        }
    }

    /// Merges another histogram with identical geometry.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram geometry mismatch"
        );
        assert_eq!(self.lo_log, other.lo_log);
        assert_eq!(self.hi_log, other.hi_log);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// An exact empirical distribution built from retained samples.
///
/// Unlike [`LogHistogram`] this keeps every sample, so use it where sample
/// counts are bounded (per-flow FCTs, held-out evaluation sets).
#[derive(Clone, Debug, Default)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF from raw samples (copied and sorted; NaNs rejected).
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample in CDF");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN ensured above"));
        EmpiricalCdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// F(x): fraction of samples ≤ x.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Value at quantile `q` in `[0,1]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Two-sample Kolmogorov–Smirnov distance: the maximum absolute gap
    /// between the two empirical CDFs. 0 = identical, 1 = disjoint supports.
    pub fn ks_distance(&self, other: &EmpiricalCdf) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 1.0;
        }
        let mut max_gap: f64 = 0.0;
        let (a, b) = (&self.sorted, &other.sorted);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            // Advance past the smaller value; on ties advance both sides
            // over the whole tied run so both CDFs jump together.
            if a[i] < b[j] {
                i += 1;
            } else if b[j] < a[i] {
                j += 1;
            } else {
                let v = a[i];
                while i < a.len() && a[i] == v {
                    i += 1;
                }
                while j < b.len() && b[j] == v {
                    j += 1;
                }
            }
            let fa = i as f64 / a.len() as f64;
            let fb = j as f64 / b.len() as f64;
            max_gap = max_gap.max((fa - fb).abs());
        }
        // The exhausted side's CDF is 1 from here on; the other side's
        // current level gives the final candidate gap.
        if i == a.len() {
            max_gap = max_gap.max(1.0 - j as f64 / b.len() as f64);
        }
        if j == b.len() {
            max_gap = max_gap.max(1.0 - i as f64 / a.len() as f64);
        }
        max_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_closed_form() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; unbiased sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_equals_single_stream() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = Summary::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut left = Summary::new();
        let mut right = Summary::new();
        data[..33].iter().for_each(|&x| left.record(x));
        data[33..].iter().for_each(|&x| right.record(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn log_histogram_quantiles_are_close() {
        let mut h = LogHistogram::for_latency_seconds();
        // 1000 samples uniform in [1ms, 2ms].
        for i in 0..1000 {
            h.record(1e-3 + (i as f64 / 1000.0) * 1e-3);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 1.5e-3).abs() / 1.5e-3 < 0.05, "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 1.99e-3).abs() / 1.99e-3 < 0.05, "p99 = {p99}");
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 1.4995e-3).abs() < 1e-6);
    }

    #[test]
    fn log_histogram_clamps_out_of_range() {
        let mut h = LogHistogram::new(1e-3, 1.0, 10);
        h.record(1e-9); // underflow
        h.record(1e9); // overflow
        assert_eq!(h.count(), 2);
        assert!((h.quantile(0.25) - 1e-3).abs() < 1e-9);
        assert!((h.quantile(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_histogram_merge() {
        let mut a = LogHistogram::new(1e-6, 1.0, 60);
        let mut b = LogHistogram::new(1e-6, 1.0, 60);
        for i in 1..=50 {
            a.record(i as f64 * 1e-3);
            b.record(i as f64 * 2e-3);
        }
        let mean_a = a.mean();
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!(a.mean() > mean_a);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LogHistogram::for_latency_seconds();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "empty histogram at q={q}");
        }
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LogHistogram::for_latency_seconds();
        h.record(3.7e-4);
        // Every quantile lands in the one occupied bucket; the bucket's
        // relative width bounds the error.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(
                (v - 3.7e-4).abs() / 3.7e-4 < 0.05,
                "q={q} gave {v}, expected ~3.7e-4"
            );
        }
        assert!((h.mean() - 3.7e-4).abs() < 1e-18);
    }

    #[test]
    fn saturated_single_bucket_interpolates_within_it() {
        // Hammer one value: all mass in one bucket. Quantiles interpolate
        // inside that bucket, so they stay within its bounds and are
        // monotone in q.
        let mut h = LogHistogram::new(1e-3, 1.0, 30);
        for _ in 0..100_000 {
            h.record(0.05);
        }
        assert_eq!(h.count(), 100_000);
        let lo = h.quantile(0.001);
        let hi = h.quantile(1.0);
        assert!(lo <= hi, "bucket interpolation monotone: {lo} vs {hi}");
        let width = (1.0f64 / 1e-3).powf(1.0 / 30.0);
        assert!(hi / lo <= width * 1.0001, "spread within one bucket");
        assert!((0.05 / width..=0.05 * width).contains(&lo));
    }

    #[test]
    fn underflow_and_overflow_saturation_clamps() {
        let mut h = LogHistogram::new(1e-3, 1.0, 8);
        for _ in 0..1000 {
            h.record(1e-12); // all underflow
        }
        assert!((h.quantile(0.5) - 1e-3).abs() < 1e-12, "clamped at lo");
        let mut h = LogHistogram::new(1e-3, 1.0, 8);
        for _ in 0..1000 {
            h.record(1e12); // all overflow
        }
        assert!((h.quantile(0.5) - 1.0).abs() < 1e-12, "clamped at hi");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Quantiles are monotone in q for arbitrary sample sets (spanning
        /// under/overflow), and every quantile stays within the histogram's
        /// clamped geometry.
        #[test]
        fn quantiles_monotone_in_q(
            samples in proptest::collection::vec(1e-10f64..1e4, 1..200),
        ) {
            let mut h = LogHistogram::for_latency_seconds();
            for &s in &samples {
                h.record(s);
            }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
            let vals: Vec<f64> = qs.iter().map(|&q| h.quantile(q)).collect();
            for w in vals.windows(2) {
                proptest::prop_assert!(
                    w[0] <= w[1] * (1.0 + 1e-12),
                    "quantiles not monotone: {:?}", vals
                );
            }
            // Clamped to [lo, hi] up to powf round-trip noise.
            for &v in &vals {
                proptest::prop_assert!(
                    (1e-8 * 0.999..=1e2 * 1.001).contains(&v),
                    "quantile {v} outside histogram geometry"
                );
            }
        }
    }

    #[test]
    fn empirical_cdf_basics() {
        let c = EmpiricalCdf::from_samples(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.cdf(0.5), 0.0);
        assert_eq!(c.cdf(2.0), 0.5);
        assert_eq!(c.cdf(10.0), 1.0);
        assert_eq!(c.quantile(0.5), 2.0);
        assert_eq!(c.quantile(1.0), 4.0);
        assert_eq!(c.quantile(0.0), 1.0);
    }

    #[test]
    fn ks_identical_is_zero() {
        let a = EmpiricalCdf::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.ks_distance(&a), 0.0);
    }

    #[test]
    fn ks_disjoint_is_one() {
        let a = EmpiricalCdf::from_samples(&[1.0, 2.0]);
        let b = EmpiricalCdf::from_samples(&[10.0, 20.0]);
        assert!((a.ks_distance(&b) - 1.0).abs() < 1e-12);
        assert!((b.ks_distance(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_known_value() {
        // a = {1,2,3,4}, b = {3,4,5,6}: max gap is 0.5 at x in [2,3).
        let a = EmpiricalCdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        let b = EmpiricalCdf::from_samples(&[3.0, 4.0, 5.0, 6.0]);
        assert!((a.ks_distance(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_empty_is_one() {
        let a = EmpiricalCdf::from_samples(&[]);
        let b = EmpiricalCdf::from_samples(&[1.0]);
        assert_eq!(a.ks_distance(&b), 1.0);
    }
}
