//! Order statistics of the runs of one measurement.

/// Median, quartiles, extremes and count. A measurement makes some ten to
/// forty runs, so nothing beyond the quartiles is reported.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Linear interpolation between the two order statistics around `p`.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let below = pos.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (pos - below as f64)
}

impl Summary {
    /// Summary of `values`; all zero when there are none.
    pub fn of(values: impl Iterator<Item = f64>) -> Summary {
        let mut v: Vec<f64> = values.collect();
        if v.is_empty() {
            return Summary::default();
        }
        v.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&v, 0.5),
            p25: quantile(&v, 0.25),
            p75: quantile(&v, 0.75),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_odd_even_and_empty() {
        let s = Summary::of([5.0, 1.0, 3.0, 2.0, 4.0].into_iter());
        assert_eq!((s.median, s.p25, s.p75), (3.0, 2.0, 4.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        assert_eq!(Summary::of([4.0, 1.0].into_iter()).median, 2.5);
        assert_eq!(Summary::of(std::iter::empty()), Summary::default());
    }
}
