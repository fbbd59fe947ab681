//! Simulation clock types.
//!
//! The kernel measures simulated time in integer **nanoseconds** held in a
//! [`SimTime`] newtype. Integer time keeps event ordering exact and runs
//! bit-reproducible across platforms, which floating-point clocks do not.
//! A companion [`SimDuration`] represents spans between instants.
//!
//! One nanosecond of resolution is enough to express the serialization time
//! of a single byte at 400 Gbps (0.02 ns rounds to 0, so link models round
//! *up* — see [`SimDuration::from_bytes_at_gbps`]), while a `u64` range of
//! ~584 simulated years is far beyond any experiment in this repository.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs an instant from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs an instant from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Constructs an instant from fractional seconds, rounding to the
    /// nearest nanosecond. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid simulation time: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span from `earlier` to `self`, saturating at zero if `earlier` is
    /// actually later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Addition that saturates at [`SimTime::MAX`] instead of overflowing.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Constructs a span from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs a span from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs a span from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs a span from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Constructs a span from fractional seconds, rounding to the nearest
    /// nanosecond. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// The time it takes to serialize `bytes` onto a link of `gbps`
    /// gigabits per second, rounded **up** so that no transmission is ever
    /// modeled as free.
    ///
    /// The rounding is done in integers: `f64::ceil` is a library call on
    /// baseline x86-64, which has no rounding instruction, and this runs
    /// once per packet per hop. The result is `ns.ceil() as u64`, saturating
    /// at `u64::MAX` the same way.
    pub fn from_bytes_at_gbps(bytes: u64, gbps: f64) -> Self {
        assert!(gbps > 0.0, "link rate must be positive");
        let ns = (bytes as f64 * 8.0) / gbps; // bits / (bits per ns)
        let whole = ns as u64;
        SimDuration(whole.saturating_add(((whole as f64) < ns) as u64))
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Checked subtraction of spans.
    #[inline]
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }

    /// Subtraction that saturates at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Integer multiplication of a span.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, t: SimTime) -> SimDuration {
        SimDuration(self.0 - t.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 - d.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, d: SimDuration) {
        self.0 -= d.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// How many whole `other` spans fit in `self`.
    #[inline]
    fn div(self, other: SimDuration) -> u64 {
        self.0 / other.0
    }
}

fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.6}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns}ns")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((SimTime::from_nanos(2_500_000_000).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(5);
        assert_eq!(t + d, SimTime::from_micros(15));
        assert_eq!((t + d) - t, SimDuration::from_micros(5));
        assert_eq!(t - d, SimTime::from_micros(5));
        assert_eq!(d * 3, SimDuration::from_micros(15));
        assert_eq!(d / 5, SimDuration::from_micros(1));
        assert_eq!(SimDuration::from_micros(12) / d, 2);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_secs(1)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_nanos(3).saturating_sub(SimDuration::from_nanos(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1500 bytes at 10 Gbps = 1200 ns exactly.
        assert_eq!(
            SimDuration::from_bytes_at_gbps(1500, 10.0),
            SimDuration::from_nanos(1200)
        );
        // 1 byte at 400 Gbps = 0.02 ns, must round up to 1 ns.
        assert_eq!(
            SimDuration::from_bytes_at_gbps(1, 400.0),
            SimDuration::from_nanos(1)
        );
        // Zero bytes genuinely takes zero time.
        assert_eq!(SimDuration::from_bytes_at_gbps(0, 10.0), SimDuration::ZERO);
    }

    /// The integer round-up against `f64::ceil`: every wire size up to a
    /// jumbo frame at the link rates in use, and byte counts where `f64`
    /// stops holding every integer (2^53) or the result leaves `u64` (2^64).
    #[test]
    fn serialization_time_equals_f64_ceil() {
        let ceil = |bytes: u64, gbps: f64| ((bytes as f64 * 8.0) / gbps).ceil() as u64;
        let rates = [1.0, 2.5, 10.0, 12.5, 25.0, 40.0, 100.0, 400.0];
        let near = |x: u64| x.saturating_sub(9)..=x.saturating_add(9);
        let big = near(1 << 50)
            .chain(near(1 << 53))
            .chain(near(1 << 61))
            .chain(near(u64::MAX / 8))
            .chain(near(u64::MAX));
        for bytes in (0..=9_100).chain(big) {
            for gbps in rates {
                assert_eq!(
                    SimDuration::from_bytes_at_gbps(bytes, gbps).as_nanos(),
                    ceil(bytes, gbps),
                    "{bytes} bytes at {gbps} Gb/s"
                );
            }
        }
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(999)), "999ns");
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000000s");
    }

    #[test]
    #[should_panic]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
