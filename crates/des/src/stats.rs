//! Measurement primitives that need simulation time: [`TimeWeighted`]
//! signals and the [`Ewma`] smoother that pairs with them. The
//! simulator-agnostic kernels (`Summary`, `LogHistogram`, `EmpiricalCdf`)
//! live in `elephant-obs`, shared with the run report.

use crate::time::SimTime;

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

/// Time-weighted mean of a piecewise-constant signal (queue depth, bytes in
/// flight, link utilization).
///
/// Call [`TimeWeighted::set`] whenever the signal changes; each level is
/// weighted by how long it was held.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_change: SimTime,
    current: f64,
    weighted_sum: f64,
    started: SimTime,
    peak: f64,
}

impl TimeWeighted {
    /// Starts tracking at time `start` with initial level `initial`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_change: start,
            current: initial,
            weighted_sum: 0.0,
            started: start,
            peak: initial,
        }
    }

    /// Records that the signal takes level `value` from time `now` on.
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(
            now >= self.last_change,
            "time-weighted signal moved backwards"
        );
        let held = now.saturating_since(self.last_change).as_secs_f64();
        self.weighted_sum += self.current * held;
        self.current = value;
        self.last_change = now;
        self.peak = self.peak.max(value);
    }

    /// Adjusts the signal by `delta` at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.current + delta;
        self.set(now, v);
    }

    /// The current level.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The maximum level ever held.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted mean over `[start, now]`. Returns the current level if
    /// no time has elapsed.
    pub fn mean(&self, now: SimTime) -> f64 {
        let total = now.saturating_since(self.started).as_secs_f64();
        if total <= 0.0 {
            return self.current;
        }
        let tail = now.saturating_since(self.last_change).as_secs_f64();
        (self.weighted_sum + self.current * tail) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

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

    #[test]
    fn time_weighted_mean_over_step_signal() {
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        let mut w = TimeWeighted::new(t(0), 0.0);
        w.set(t(10), 4.0); // level 0 for 10us
        w.set(t(30), 1.0); // level 4 for 20us
                           // level 1 for 10us => mean over 40us = (0*10 + 4*20 + 1*10)/40 = 2.25
        assert!((w.mean(t(40)) - 2.25).abs() < 1e-9);
        assert_eq!(w.peak(), 4.0);
        assert_eq!(w.current(), 1.0);
    }

    #[test]
    fn time_weighted_add_tracks_deltas() {
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        let mut w = TimeWeighted::new(t(0), 0.0);
        w.add(t(5), 2.0);
        w.add(t(10), -1.0);
        assert_eq!(w.current(), 1.0);
        assert_eq!(w.peak(), 2.0);
    }
}
