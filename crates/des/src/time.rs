//! Virtual time for the discrete-event engine.
//!
//! Time is kept as an integer number of **nanoseconds** so that event ordering
//! is exact and runs are bit-reproducible. Costs in the GPU model are small
//! multiples of 0.05 µs, so nanosecond resolution loses nothing.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (lossy).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds since simulation start (lossy).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Panics if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is later than self"),
        )
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }
}

impl SimDur {
    /// Zero-length duration.
    pub const ZERO: SimDur = SimDur(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDur {
        SimDur(ns)
    }

    /// Construct from (possibly fractional) microseconds, rounding to ns.
    #[inline]
    pub fn from_us(us: f64) -> SimDur {
        debug_assert!(us >= 0.0, "negative duration");
        SimDur((us * 1e3).round() as u64)
    }

    /// Construct from (possibly fractional) milliseconds, rounding to ns.
    #[inline]
    pub fn from_ms(ms: f64) -> SimDur {
        debug_assert!(ms >= 0.0, "negative duration");
        SimDur((ms * 1e6).round() as u64)
    }

    /// Construct from (possibly fractional) seconds, rounding to ns.
    #[inline]
    pub fn from_secs(s: f64) -> SimDur {
        debug_assert!(s >= 0.0, "negative duration");
        SimDur((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in this duration (lossy).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds in this duration (lossy).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

/// Shorthand constructor: duration from microseconds.
#[inline]
pub fn us(v: f64) -> SimDur {
    SimDur::from_us(v)
}

/// Shorthand constructor: duration from nanoseconds.
#[inline]
pub const fn ns(v: u64) -> SimDur {
    SimDur::from_nanos(v)
}

/// Shorthand constructor: duration from milliseconds.
#[inline]
pub fn ms(v: f64) -> SimDur {
    SimDur::from_ms(v)
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    #[inline]
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign for SimDur {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}

impl SubAssign for SimDur {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0 * rhs)
    }
}

impl Mul<f64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn mul(self, rhs: f64) -> SimDur {
        debug_assert!(rhs >= 0.0);
        SimDur((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}

impl Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        SimDur(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&SimDur(self.0), f)
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(us(1.5).as_nanos(), 1500);
        assert_eq!(ms(2.0).as_nanos(), 2_000_000);
        assert_eq!(SimDur::from_secs(0.25).as_nanos(), 250_000_000);
        assert_eq!(ns(42).as_nanos(), 42);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + us(3.0) + ns(10);
        assert_eq!(t.as_nanos(), 3010);
        assert_eq!(t.since(SimTime(10)).as_nanos(), 3000);
        assert_eq!(SimTime(5).saturating_since(SimTime(10)), SimDur::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        assert_eq!((us(2.0) + us(3.0)).as_micros_f64(), 5.0);
        assert_eq!((us(10.0) - us(4.0)).as_nanos(), 6000);
        assert_eq!((us(3.0) * 4).as_nanos(), 12_000);
        assert_eq!((us(3.0) * 0.5).as_nanos(), 1500);
        assert_eq!((us(9.0) / 3).as_nanos(), 3000);
        let total: SimDur = [us(1.0), us(2.0), us(3.0)].into_iter().sum();
        assert_eq!(total.as_nanos(), 6000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ns(17)), "17ns");
        assert_eq!(format!("{}", us(1.5)), "1.500us");
        assert_eq!(format!("{}", ms(2.25)), "2.250ms");
        assert_eq!(format!("{}", SimDur::from_secs(1.5)), "1.500s");
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn since_panics_when_reversed() {
        let _ = SimTime(5).since(SimTime(10));
    }
}
