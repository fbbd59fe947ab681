//! Flow-size distributions.
//!
//! The paper drives its evaluation with "traffic patterns drawn from a
//! well-known trace of datacenter web traffic \[3\]" — the DCTCP
//! measurement study. The raw trace is proprietary, but its flow-size CDF
//! is published and has become the community-standard "web search"
//! workload; VL2's "data mining" CDF is the other canonical heavy tail.
//! [`SizeDist`] encodes such CDFs as piecewise log-linear curves and
//! samples them by inverse transform, preserving exactly the property the
//! paper's models feed on: most flows are mice, most bytes live in
//! elephants.

use elephant_des::SmallRng;

/// An empirical flow-size distribution given as CDF control points.
#[derive(Clone, Debug)]
pub struct SizeDist {
    /// `(size_bytes, cumulative_probability)`, strictly increasing in both
    /// coordinates, ending at probability 1.
    points: Vec<(f64, f64)>,
}

impl SizeDist {
    /// Builds from CDF control points. Panics unless sizes and
    /// probabilities are strictly increasing and the last probability is 1.
    pub fn from_cdf(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two CDF points");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must increase: {:?}", w);
            assert!(w[0].1 < w[1].1, "probabilities must increase: {:?}", w);
        }
        assert!(points[0].0 > 0.0, "sizes must be positive");
        assert!(points[0].1 >= 0.0);
        let last = points.last().expect("non-empty");
        assert!((last.1 - 1.0).abs() < 1e-9, "CDF must end at 1.0");
        SizeDist {
            points: points.to_vec(),
        }
    }

    /// The DCTCP web-search workload (paper reference \[3\]): mice dominate
    /// the flow count, elephants the byte count.
    pub fn web_search() -> Self {
        SizeDist::from_cdf(&[
            (6e3, 0.15),
            (13e3, 0.20),
            (19e3, 0.30),
            (33e3, 0.40),
            (53e3, 0.53),
            (133e3, 0.60),
            (667e3, 0.70),
            (1333e3, 0.80),
            (3333e3, 0.90),
            (6667e3, 0.97),
            (20e6, 1.00),
        ])
    }

    /// The VL2 data-mining workload: even heavier tail.
    pub fn data_mining() -> Self {
        SizeDist::from_cdf(&[
            (100.0, 0.03),
            (1e3, 0.50),
            (2e3, 0.60),
            (10e3, 0.70),
            (100e3, 0.80),
            (1e6, 0.90),
            (10e6, 0.95),
            (100e6, 0.98),
            (1e9, 1.00),
        ])
    }

    /// Every flow the same size (useful in controlled experiments).
    pub fn fixed(bytes: u64) -> Self {
        let b = bytes as f64;
        SizeDist::from_cdf(&[(b * (1.0 - 1e-9), 1e-9), (b, 1.0)])
    }

    /// Inverse-transform sample, log-linear within segments. Always at
    /// least one byte.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        self.quantile(rng.next_f64())
    }

    /// The size at cumulative probability `u`.
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let first = self.points[0];
        if u <= first.1 {
            return first.0.max(1.0) as u64;
        }
        for w in self.points.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if u <= p1 {
                let frac = (u - p0) / (p1 - p0);
                let log_s = s0.ln() + frac * (s1.ln() - s0.ln());
                return log_s.exp().max(1.0) as u64;
            }
        }
        self.points.last().expect("non-empty").0 as u64
    }

    /// Mean flow size, integrated over the piecewise log-linear CDF by
    /// fine quadrature (exact enough for load calibration).
    pub fn mean(&self) -> f64 {
        let steps = 20_000;
        let mut total = 0.0;
        for k in 0..steps {
            let u = (k as f64 + 0.5) / steps as f64;
            total += self.quantile(u) as f64;
        }
        total / steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_monotonically() {
        let d = SizeDist::web_search();
        let mut prev = 0;
        for k in 0..=100 {
            let q = d.quantile(k as f64 / 100.0);
            assert!(q >= prev, "monotone quantiles");
            prev = q;
        }
        assert!(d.quantile(1.0) <= 20_000_000);
        assert!(d.quantile(0.0) >= 1);
    }

    #[test]
    fn web_search_is_mice_heavy_but_elephant_dominated() {
        let d = SizeDist::web_search();
        let mut rng = SmallRng::seed_from_u64(1);
        let samples: Vec<u64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let mice = samples.iter().filter(|&&s| s < 100_000).count() as f64 / samples.len() as f64;
        assert!(mice > 0.5, "most flows are mice: {mice}");
        let total: u64 = samples.iter().sum();
        let elephant_bytes: u64 = samples.iter().filter(|&&s| s >= 1_000_000).sum();
        assert!(
            elephant_bytes as f64 / total as f64 > 0.5,
            "most bytes in elephants: {}",
            elephant_bytes as f64 / total as f64
        );
    }

    #[test]
    fn sample_mean_matches_computed_mean() {
        let d = SizeDist::web_search();
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum();
        let sample_mean = sum / n as f64;
        let mean = d.mean();
        assert!(
            (sample_mean - mean).abs() / mean < 0.05,
            "sample mean {sample_mean} vs integral {mean}"
        );
    }

    #[test]
    fn fixed_distribution_is_constant() {
        let d = SizeDist::fixed(50_000);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!((49_999..=50_000).contains(&s), "got {s}");
        }
    }

    #[test]
    #[should_panic]
    fn non_monotone_cdf_rejected() {
        let _ = SizeDist::from_cdf(&[(10.0, 0.5), (20.0, 0.4), (30.0, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn cdf_must_reach_one() {
        let _ = SizeDist::from_cdf(&[(10.0, 0.5), (20.0, 0.9)]);
    }
}
