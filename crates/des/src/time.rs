//! Simulated time with picosecond resolution.
//!
//! Instants ([`SimTime`]) and spans ([`SimDuration`]) are separate types
//! wrapping `u64` picoseconds. The range (~213 days) comfortably covers
//! the longest runs in the paper (13,437 simulated seconds) with five
//! orders of magnitude to spare, while exactly representing sub-
//! nanosecond timing constants.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Picoseconds per unit, for readable constructors.
const PS_PER_NS: u64 = 1_000;
const PS_PER_US: u64 = 1_000_000;
const PS_PER_MS: u64 = 1_000_000_000;
const PS_PER_S: u64 = 1_000_000_000_000;

/// An instant of simulated time (picoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (picoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picoseconds since epoch.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds since epoch as `f64` (for reporting; lossless below ~2^53 ps).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self` (time never runs backwards in
    /// the DES, so this indicates a logic error).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: {earlier:?} is after {self:?}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since another instant (0 if `other` is later).
    pub fn saturating_since(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Constructs from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Constructs from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Constructs from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_S)
    }

    /// Constructs from fractional seconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "bad duration {s} s");
        SimDuration((s * PS_PER_S as f64).round() as u64)
    }

    /// Constructs from fractional microseconds (common unit in the paper).
    pub fn from_micros_f64(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "bad duration {us} µs");
        SimDuration((us * PS_PER_US as f64).round() as u64)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// `true` if zero-length.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(d.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(d.0).expect("SimDuration underflow"))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_S {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= PS_PER_MS {
            write!(f, "{:.3}ms", self.0 as f64 / PS_PER_MS as f64)
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3}µs", self.0 as f64 / PS_PER_US as f64)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_nanos(1_000), SimDuration::from_micros(1));
        assert_eq!(SimDuration::from_micros(1_000), SimDuration::from_millis(1));
        assert_eq!(SimDuration::from_millis(1_000), SimDuration::from_secs(1));
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
    }

    #[test]
    fn paper_constants_exact() {
        // 10.12 µs MHP cycle, 9.7 ns reply, 1040 µs move-to-memory.
        assert_eq!(SimDuration::from_micros_f64(10.12).as_ps(), 10_120_000);
        assert_eq!(SimDuration::from_secs_f64(9.7e-9).as_ps(), 9_700);
        assert_eq!(SimDuration::from_micros(1040).as_ps(), 1_040_000_000);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        let u = t + SimDuration::from_micros(7);
        assert_eq!(u.since(t), SimDuration::from_micros(7));
        assert_eq!(u.saturating_since(t), SimDuration::from_micros(7));
        assert_eq!(t.saturating_since(u), SimDuration::ZERO);
        assert_eq!(u - SimDuration::from_micros(12), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "is after")]
    fn since_backwards_panics() {
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        let _ = SimTime::ZERO.since(t);
    }

    #[test]
    fn secs_round_trip() {
        let d = SimDuration::from_secs_f64(123.456_789);
        assert!((d.as_secs_f64() - 123.456_789).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(SimDuration::from_nanos(999) < SimDuration::from_micros(1));
        assert!(SimTime::ZERO < SimTime::from_ps(1));
    }

    #[test]
    fn display_chooses_unit() {
        assert_eq!(
            format!("{}", SimDuration::from_micros_f64(10.12)),
            "10.120µs"
        );
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_ps(42)), "42ps");
    }
}
