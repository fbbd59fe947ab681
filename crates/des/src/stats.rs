//! The [`Ewma`] smoother, which the oracle's feature builder and macro
//! classifier run over each boundary stream. The distribution kernels
//! (`Summary`, `LogHistogram`, `EmpiricalCdf`) live in `elephant-obs`,
//! shared with the run report.

/// Exponentially weighted moving average.
#[derive(Clone, Copy, Debug)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in (0, 1]; larger means
    /// more weight on the newest observation.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0,1], got {alpha}"
        );
        Ewma { alpha, value: None }
    }

    /// Feeds one observation and returns the updated average.
    pub fn record(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// The current average, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The current average, defaulting to 0 before any observation.
    pub fn value_or_zero(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_constant() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.value(), None);
        for _ in 0..200 {
            e.record(5.0);
        }
        assert!((e.value().unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_sample_is_exact() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.record(7.5), 7.5);
    }
}
