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
    /// `(size_bytes, cumulative_probability, ln(size_bytes))`, strictly
    /// increasing in every coordinate, ending at probability 1. The log is
    /// taken once here, not at every sample.
    points: Vec<(f64, f64, f64)>,
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
            points: points.iter().map(|&(s, p)| (s, p, s.ln())).collect(),
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
        self.quantile_from(u, 1).0
    }

    /// [`Self::quantile`], scanning the segments from the one that ends at
    /// point `seg`, which must not come after `u`'s own. Also returns `u`'s
    /// segment: the scan for any larger `u` may start there.
    fn quantile_from(&self, u: f64, mut seg: usize) -> (u64, usize) {
        let u = u.clamp(0.0, 1.0);
        let (s0, p0, _) = self.points[0];
        if u <= p0 {
            return (s0.max(1.0) as u64, seg);
        }
        while let Some(&(_, p1, l1)) = self.points.get(seg) {
            if u <= p1 {
                let (_, p0, l0) = self.points[seg - 1];
                let frac = (u - p0) / (p1 - p0);
                let log_s = l0 + frac * (l1 - l0);
                return (log_s.exp().max(1.0) as u64, seg);
            }
            seg += 1;
        }
        (self.points.last().expect("non-empty").0 as u64, seg)
    }

    /// Mean flow size, integrated over the piecewise log-linear CDF by
    /// fine quadrature (exact enough for load calibration). The quadrature
    /// points rise in `u`, so one pass walks the segments in order. The
    /// terms and their sum are integers below 2^53, so the sum is exact.
    pub fn mean(&self) -> f64 {
        let steps = 20_000;
        let (mut total, mut seg) = (0.0, 1);
        for k in 0..steps {
            let u = (k as f64 + 0.5) / steps as f64;
            let (q, at) = self.quantile_from(u, seg);
            total += q as f64;
            seg = at;
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

    /// FNV-1a 64 over `quantile(u)` on a grid of `n + 1` points in `[0, 1]`.
    fn quantile_digest(d: &SizeDist, n: u32) -> u64 {
        (0..=n).fold(0xcbf2_9ce4_8422_2325, |h, k| {
            let q = d.quantile(f64::from(k) / f64::from(n));
            q.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// Known answers: every flow list is drawn through `quantile`, and every
    /// Poisson rate is calibrated by `mean`, so a change that moves one bit
    /// of either moves every fingerprint. Note `fixed(b).mean()` is `b - 1`
    /// (2999.0 for 3000): every quantile of `fixed(b)` lands just below `b`
    /// and floors to `b - 1`.
    #[test]
    fn means_and_quantiles_repeat_their_known_answers() {
        // (distribution, mean's bits, quantiles at U, digest of a 10,001-point grid)
        const U: [f64; 8] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let pinned: [(SizeDist, u64, [u64; 8], u64); 4] = [
            (
                SizeDist::web_search(),
                0x4130_415e_9c4d_013b,
                [
                    6000, 6000, 15716, 47510, 942_926, 3_333_000, 13_867_456, 19_999_999,
                ],
                0x806d_0c49_7429_4c86,
            ),
            (
                SizeDist::data_mining(),
                0x4161_9a6a_6e47_ae14,
                [100, 140, 293, 999, 31622, 999_999, 316_227_766, 999_999_999],
                0xa173_8965_38cd_10cf,
            ),
            (
                SizeDist::fixed(3000),
                0x40a7_6e00_0000_0000,
                [2999; 8],
                0x2614_4ff4_a026_5e6f,
            ),
            (
                SizeDist::fixed(40_000),
                0x40e3_87e0_0000_0000,
                [39_999; 8],
                0xa5a5_b1df_ade7_ae06,
            ),
        ];
        for (d, mean_bits, quantiles, digest) in pinned {
            assert_eq!(d.mean().to_bits(), mean_bits, "{d:?}: mean {}", d.mean());
            assert_eq!(U.map(|u| d.quantile(u)), quantiles, "{d:?}");
            assert_eq!(quantile_digest(&d, 10_000), digest, "{d:?}");
        }
    }
}
