//! The macro model: a fast auto-regressive classifier of congestion regime.
//!
//! Paper §4.1: traffic exhibits multi-scale structure — second-scale
//! regime shifts as queues fill and drain, microsecond-scale jitter as
//! flows come and go — so the system layers a cheap "macro" classifier
//! over the per-packet "micro" LSTM. Four regimes:
//!
//! 1. **Minimal** congestion — queues mostly empty, minimal queueing delay;
//! 2. **Increasing** congestion — paths congesting, latency not yet peaked;
//! 3. **High** congestion — significant drops from full queues;
//! 4. **Decreasing** congestion — queues draining.
//!
//! Classification follows the paper's auto-regressive rules: high drop
//! rate ⇒ High; low latency ⇒ Minimal; otherwise Increasing or Decreasing
//! according to whether the latency trend is rising or falling. (The
//! paper's prose maps "drops relatively high" to state (4); read against
//! its own state definitions that is a typo for state (3), and we
//! implement the definition.)
//!
//! The classifier is fed *observations* — at training time the ground
//! truth from boundary capture, at simulation time the oracle's own
//! predictions, which is what makes it auto-regressive.

use elephant_des::Ewma;
use serde::{Deserialize, Serialize};

/// The four congestion regimes of §4.1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MacroState {
    /// Queues mostly empty.
    Minimal,
    /// Latency climbing, not yet peaked.
    Increasing,
    /// Queues full; significant drops.
    High,
    /// Congestion subsiding, queues draining.
    Decreasing,
}

impl MacroState {
    /// Stable index for one-hot feature encoding.
    pub fn index(self) -> usize {
        match self {
            MacroState::Minimal => 0,
            MacroState::Increasing => 1,
            MacroState::High => 2,
            MacroState::Decreasing => 3,
        }
    }

    /// The state's metric label: `minimal`, `increasing`, `high` or
    /// `decreasing`.
    pub fn label(self) -> String {
        format!("{self:?}").to_lowercase()
    }

    /// All states, in index order.
    pub const ALL: [MacroState; 4] = [
        MacroState::Minimal,
        MacroState::Increasing,
        MacroState::High,
        MacroState::Decreasing,
    ];
}

/// Thresholds and smoothing constants of the classifier.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MacroConfig {
    /// Smoothed latency at or below this (seconds) reads as Minimal.
    pub latency_low: f64,
    /// Windowed drop rate at or above this reads as High.
    pub drop_high: f64,
    /// Fast latency EWMA factor (tracks the current level).
    pub fast_alpha: f64,
    /// Slow latency EWMA factor (tracks the trend baseline).
    pub slow_alpha: f64,
    /// Observations in the sliding drop-rate window.
    pub drop_window: usize,
}

impl Default for MacroConfig {
    fn default() -> Self {
        MacroConfig {
            latency_low: 50e-6, // 50 µs — a few uncongested fabric hops
            drop_high: 0.02,
            fast_alpha: 0.1,
            slow_alpha: 0.01,
            drop_window: 256,
        }
    }
}

impl MacroConfig {
    /// Calibrates thresholds from training observations: `latency_low` is
    /// the 40th percentile of delivered latencies (seconds); `drop_high`
    /// is twice the overall drop rate, floored at 1%. Non-finite latency
    /// samples (NaN, ±∞) are ignored rather than panicking the sort —
    /// corrupt captures degrade to the defaults instead of aborting.
    pub fn calibrate(latencies: &[f64], drop_rate: f64) -> Self {
        let mut cfg = MacroConfig::default();
        let mut sorted: Vec<f64> = latencies
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect();
        if !sorted.is_empty() {
            sorted.sort_by(f64::total_cmp);
            cfg.latency_low = sorted[(sorted.len() - 1) * 2 / 5];
        }
        cfg.drop_high = (2.0 * drop_rate).max(0.01);
        cfg
    }
}

/// Runtime state of the classifier (one per approximated cluster).
#[derive(Clone, Debug)]
pub struct MacroModel {
    cfg: MacroConfig,
    fast: Ewma,
    slow: Ewma,
    window: Vec<bool>,
    window_pos: usize,
    drops_in_window: usize,
    state: MacroState,
}

impl MacroModel {
    /// Fresh classifier in the Minimal state.
    pub fn new(cfg: MacroConfig) -> Self {
        assert!(cfg.drop_window >= 1);
        MacroModel {
            fast: Ewma::new(cfg.fast_alpha),
            slow: Ewma::new(cfg.slow_alpha),
            window: Vec::with_capacity(cfg.drop_window),
            window_pos: 0,
            drops_in_window: 0,
            state: MacroState::Minimal,
            cfg,
        }
    }

    /// The current regime.
    pub fn state(&self) -> MacroState {
        self.state
    }

    /// The current windowed drop rate.
    pub fn drop_rate(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.drops_in_window as f64 / self.window.len() as f64
        }
    }

    /// Feeds one boundary observation: `latency` in seconds for delivered
    /// packets, `None` for drops. Returns the updated regime.
    pub fn observe(&mut self, latency: Option<f64>, dropped: bool) -> MacroState {
        debug_assert_eq!(latency.is_none(), dropped, "drops carry no latency");
        // Sliding drop window (ring buffer).
        if self.window.len() < self.cfg.drop_window {
            self.window.push(dropped);
            if dropped {
                self.drops_in_window += 1;
            }
        } else {
            let old = std::mem::replace(&mut self.window[self.window_pos], dropped);
            self.drops_in_window = self.drops_in_window + dropped as usize - old as usize;
            self.window_pos = (self.window_pos + 1) % self.cfg.drop_window;
        }
        if let Some(lat) = latency {
            self.fast.record(lat);
            self.slow.record(lat);
        }

        let drop_rate = self.drop_rate();
        let lat_fast = self.fast.value_or_zero();
        let lat_slow = self.slow.value_or_zero();
        self.state = if drop_rate >= self.cfg.drop_high {
            MacroState::High
        } else if lat_fast <= self.cfg.latency_low {
            MacroState::Minimal
        } else if lat_fast >= lat_slow {
            MacroState::Increasing
        } else {
            MacroState::Decreasing
        };
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MacroModel {
        MacroModel::new(MacroConfig {
            latency_low: 100e-6,
            drop_high: 0.1,
            fast_alpha: 0.3,
            slow_alpha: 0.05,
            drop_window: 20,
        })
    }

    #[test]
    fn starts_minimal_and_stays_under_light_load() {
        let mut m = model();
        for _ in 0..100 {
            assert_eq!(m.observe(Some(10e-6), false), MacroState::Minimal);
        }
    }

    #[test]
    fn rising_latency_reads_increasing() {
        let mut m = model();
        for i in 0..100 {
            m.observe(Some(10e-6 + i as f64 * 20e-6), false);
        }
        assert_eq!(m.state(), MacroState::Increasing);
    }

    #[test]
    fn heavy_drops_read_high() {
        let mut m = model();
        for i in 0..100 {
            if i % 3 == 0 {
                m.observe(None, true);
            } else {
                m.observe(Some(500e-6), false);
            }
        }
        assert_eq!(m.state(), MacroState::High);
        assert!(m.drop_rate() > 0.1);
    }

    #[test]
    fn falling_latency_reads_decreasing() {
        let mut m = model();
        // Climb high, then fall (still above the Minimal threshold).
        for i in 0..50 {
            m.observe(Some(10e-6 + i as f64 * 40e-6), false);
        }
        for i in 0..10 {
            m.observe(Some(1500e-6 - i as f64 * 100e-6), false);
        }
        assert_eq!(m.state(), MacroState::Decreasing);
    }

    #[test]
    fn full_cycle_visits_all_states() {
        let mut m = model();
        let mut seen = std::collections::HashSet::new();
        // Calm → climb → drop storm → drain → calm.
        for _ in 0..30 {
            seen.insert(m.observe(Some(5e-6), false));
        }
        for i in 0..60 {
            seen.insert(m.observe(Some(5e-6 + i as f64 * 30e-6), false));
        }
        for _ in 0..40 {
            seen.insert(m.observe(None, true));
        }
        for i in 0..40 {
            seen.insert(m.observe(Some((1800e-6 - i as f64 * 45e-6).max(120e-6)), false));
        }
        for _ in 0..200 {
            seen.insert(m.observe(Some(5e-6), false));
        }
        for s in MacroState::ALL {
            assert!(seen.contains(&s), "never visited {s:?}");
        }
        assert_eq!(m.state(), MacroState::Minimal, "returns to calm");
    }

    #[test]
    fn calibrate_uses_latency_percentile_and_drop_floor() {
        let lats: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-6).collect();
        let cfg = MacroConfig::calibrate(&lats, 0.001);
        assert!(
            (cfg.latency_low - 40e-6).abs() < 2e-6,
            "p40 = {}",
            cfg.latency_low
        );
        assert_eq!(cfg.drop_high, 0.01, "floored at 1%");
        let cfg2 = MacroConfig::calibrate(&lats, 0.2);
        assert!((cfg2.drop_high - 0.4).abs() < 1e-12);
    }

    #[test]
    fn calibrate_ignores_non_finite_latencies() {
        // The old comparator panicked on NaN; now corrupt samples are
        // dropped and the percentile comes from the finite remainder.
        let mut lats: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-6).collect();
        lats.push(f64::NAN);
        lats.push(f64::INFINITY);
        lats.push(f64::NEG_INFINITY);
        let cfg = MacroConfig::calibrate(&lats, 0.001);
        assert!(
            (cfg.latency_low - 40e-6).abs() < 2e-6,
            "p40 over finite samples = {}",
            cfg.latency_low
        );
        // All-NaN input degrades to the default threshold.
        let cfg_nan = MacroConfig::calibrate(&[f64::NAN, f64::NAN], 0.0);
        assert_eq!(cfg_nan.latency_low, MacroConfig::default().latency_low);
    }

    #[test]
    fn index_is_stable() {
        for (i, s) in MacroState::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
