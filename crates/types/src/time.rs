//! The application time domain.
//!
//! The paper assumes "an application discrete time domain T where the
//! timestamps of the input stream data are drawn from" (Section 4). We use
//! milliseconds in an `i64`, which gives ±292 million years of range —
//! enough for any experiment while keeping arithmetic exact.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in the discrete application time domain, in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub i64);

/// A signed span of application time, in milliseconds.
///
/// Window sizes are `TimeDelta`s; the paper's window predicate `w(T)`
/// takes a positive interval, with `T = ∞` ([`TimeDelta::INFINITE`])
/// recovering an unbounded window and `T = 0` ([`TimeDelta::ZERO`])
/// recovering the CQL `[Now]` window.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimeDelta(pub i64);

impl Timestamp {
    /// Time zero.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Milliseconds since time zero.
    #[inline]
    pub fn millis(self) -> i64 {
        self.0
    }
}

impl TimeDelta {
    /// The empty span (the CQL `[Now]` window).
    pub const ZERO: TimeDelta = TimeDelta(0);
    /// Sentinel for an unbounded (`∞`) window.
    pub const INFINITE: TimeDelta = TimeDelta(i64::MAX);

    /// A span of whole milliseconds.
    pub const fn from_millis(ms: i64) -> TimeDelta {
        TimeDelta(ms)
    }
    /// A span of whole seconds.
    pub const fn from_secs(s: i64) -> TimeDelta {
        TimeDelta(s * 1_000)
    }
    /// A span of whole minutes.
    pub const fn from_mins(m: i64) -> TimeDelta {
        TimeDelta(m * 60_000)
    }
    /// A span of whole hours.
    pub const fn from_hours(h: i64) -> TimeDelta {
        TimeDelta(h * 3_600_000)
    }
    /// A span of whole days.
    pub const fn from_days(d: i64) -> TimeDelta {
        TimeDelta(d * 86_400_000)
    }

    /// Milliseconds in this span.
    #[inline]
    pub fn millis(self) -> i64 {
        self.0
    }

    /// True when this span is the `∞` sentinel.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self == TimeDelta::INFINITE
    }

    /// Fractional seconds in this span (`∞` maps to `f64::INFINITY`).
    pub fn as_secs_f64(self) -> f64 {
        if self.is_infinite() {
            f64::INFINITY
        } else {
            self.0 as f64 / 1_000.0
        }
    }

    /// The larger of two spans, treating `∞` as the top element.
    pub fn max_window(self, other: TimeDelta) -> TimeDelta {
        if self.is_infinite() || other.is_infinite() {
            TimeDelta::INFINITE
        } else {
            TimeDelta(self.0.max(other.0))
        }
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Sub<TimeDelta> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TimeDelta;
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl Add<TimeDelta> for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        if self.is_infinite() || rhs.is_infinite() {
            TimeDelta::INFINITE
        } else {
            TimeDelta(self.0.saturating_add(rhs.0))
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            return write!(f, "inf");
        }
        let ms = self.0;
        if ms % 3_600_000 == 0 && ms != 0 {
            write!(f, "{}h", ms / 3_600_000)
        } else if ms % 60_000 == 0 && ms != 0 {
            write!(f, "{}m", ms / 60_000)
        } else if ms % 1_000 == 0 && ms != 0 {
            write!(f, "{}s", ms / 1_000)
        } else {
            write!(f, "{ms}ms")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(TimeDelta::from_secs(2).millis(), 2_000);
        assert_eq!(TimeDelta::from_mins(3).millis(), 180_000);
        assert_eq!(TimeDelta::from_hours(1).millis(), 3_600_000);
        assert_eq!(TimeDelta::from_days(1).millis(), 86_400_000);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp(1_000);
        assert_eq!(t + TimeDelta::from_secs(1), Timestamp(2_000));
        assert_eq!(t - TimeDelta::from_secs(1), Timestamp(0));
        assert_eq!(Timestamp(5_000) - Timestamp(2_000), TimeDelta(3_000));
        let mut u = Timestamp::ZERO;
        u += TimeDelta::from_millis(7);
        assert_eq!(u, Timestamp(7));
    }

    #[test]
    fn infinite_is_absorbing() {
        assert!(TimeDelta::INFINITE.is_infinite());
        assert_eq!(
            TimeDelta::INFINITE + TimeDelta::from_secs(1),
            TimeDelta::INFINITE
        );
        assert_eq!(
            TimeDelta::from_secs(1).max_window(TimeDelta::INFINITE),
            TimeDelta::INFINITE
        );
        assert_eq!(TimeDelta::INFINITE.as_secs_f64(), f64::INFINITY);
    }

    #[test]
    fn max_window_of_finite_spans() {
        assert_eq!(
            TimeDelta::from_hours(3).max_window(TimeDelta::from_hours(5)),
            TimeDelta::from_hours(5)
        );
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(TimeDelta::from_hours(3).to_string(), "3h");
        assert_eq!(TimeDelta::from_mins(5).to_string(), "5m");
        assert_eq!(TimeDelta::from_secs(7).to_string(), "7s");
        assert_eq!(TimeDelta::from_millis(13).to_string(), "13ms");
        assert_eq!(TimeDelta::ZERO.to_string(), "0ms");
        assert_eq!(TimeDelta::INFINITE.to_string(), "inf");
        assert_eq!(Timestamp(4).to_string(), "t4");
    }

    #[test]
    fn saturating_behaviour_at_extremes() {
        let far = Timestamp(i64::MAX - 1);
        assert_eq!(far + TimeDelta::from_hours(1), Timestamp(i64::MAX));
        assert_eq!(Timestamp(i64::MIN + 1) - TimeDelta(5), Timestamp(i64::MIN));
    }
}
