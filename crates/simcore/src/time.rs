//! Simulated time.
//!
//! Time is measured in integer **microseconds** since the simulation epoch.
//! The epoch is defined to fall on a Monday at 00:00, which makes the calendar
//! helpers ([`SimTime::weekday`], [`SimTime::time_of_day`]) trivial and
//! deterministic — exactly what the power-template logic in `soc-predict`
//! needs (per-weekday aggregation, weekend/weekday split).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in simulated time (microseconds since a Monday-00:00 epoch).
///
/// ```
/// use simcore::time::{SimTime, SimDuration, Weekday};
///
/// let t = SimTime::ZERO + SimDuration::from_hours(26);
/// assert_eq!(t.weekday(), Weekday::Tuesday);
/// assert_eq!(t.time_of_day().as_hours_f64(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// Day of the simulated week. The simulation epoch is a Monday.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// All seven days, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Index in `0..7`, Monday = 0.
    pub fn index(self) -> usize {
        match self {
            Weekday::Monday => 0,
            Weekday::Tuesday => 1,
            Weekday::Wednesday => 2,
            Weekday::Thursday => 3,
            Weekday::Friday => 4,
            Weekday::Saturday => 5,
            Weekday::Sunday => 6,
        }
    }

    /// Build from an index in `0..7` (Monday = 0).
    ///
    /// # Panics
    /// Panics if `idx >= 7`.
    fn from_index(idx: usize) -> Weekday {
        Weekday::ALL[idx]
    }

    /// Whether this day belongs to the weekend (Saturday/Sunday).
    ///
    /// SmartOClock keeps separate power templates for weekdays and weekends
    /// (paper §IV-B).
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Weekday::Monday => "Mon",
            Weekday::Tuesday => "Tue",
            Weekday::Wednesday => "Wed",
            Weekday::Thursday => "Thu",
            Weekday::Friday => "Fri",
            Weekday::Saturday => "Sat",
            Weekday::Sunday => "Sun",
        };
        f.write_str(s)
    }
}

impl SimTime {
    /// The simulation epoch (Monday 00:00).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw microseconds since the epoch.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Raw microseconds since the epoch.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Hours since the epoch, as `f64`.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be after `self`"),
        )
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The day of the simulated week this instant falls on.
    pub fn weekday(self) -> Weekday {
        let day = (self.0 / SimDuration::DAY.0) % 7;
        Weekday::from_index(day as usize)
    }

    /// Offset from the most recent midnight.
    #[inline]
    pub fn time_of_day(self) -> SimDuration {
        SimDuration(self.0 % SimDuration::DAY.0)
    }

    /// Offset from the start of the current simulated week (Monday 00:00).
    #[inline]
    pub fn time_of_week(self) -> SimDuration {
        SimDuration(self.0 % SimDuration::WEEK.0)
    }

    /// Index of the simulated day since the epoch (day 0 is the first Monday).
    #[inline]
    pub fn day_index(self) -> u64 {
        self.0 / SimDuration::DAY.0
    }

    /// Index of the simulated week since the epoch.
    #[inline]
    pub fn week_index(self) -> u64 {
        self.0 / SimDuration::WEEK.0
    }

    /// Round down to a multiple of `step` since the epoch.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    #[inline]
    pub fn align_down(self, step: SimDuration) -> SimTime {
        assert!(step.0 > 0, "step must be non-zero");
        SimTime(self.0 - self.0 % step.0)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One second.
    pub const SECOND: SimDuration = SimDuration(MICROS_PER_SEC);
    /// One minute.
    pub const MINUTE: SimDuration = SimDuration(60 * MICROS_PER_SEC);
    /// One hour.
    pub const HOUR: SimDuration = SimDuration(3_600 * MICROS_PER_SEC);
    /// One day.
    pub const DAY: SimDuration = SimDuration(86_400 * MICROS_PER_SEC);
    /// One (7-day) week.
    pub const WEEK: SimDuration = SimDuration(7 * 86_400 * MICROS_PER_SEC);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond
    /// (halves away from zero) and saturating at `u64::MAX` microseconds.
    ///
    /// # Panics
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative"
        );
        let micros = s * MICROS_PER_SEC as f64;
        if micros < (1u64 << 53) as f64 {
            // `f64::round` without its libm call: truncate, then round up
            // when the dropped fraction is at least a half. Below 2^53 the
            // truncation and `micros - whole` are exact, and `i64` converts
            // in one instruction each way where `u64` takes several.
            let whole = micros as i64;
            SimDuration((whole + i64::from(micros - whole as f64 >= 0.5)) as u64)
        } else {
            // Every float from 2^53 up is an integer; `as` saturates at 2^64.
            SimDuration(micros as u64)
        }
    }

    /// Construct from whole minutes.
    pub const fn from_minutes(m: u64) -> SimDuration {
        SimDuration(m * 60 * MICROS_PER_SEC)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> SimDuration {
        SimDuration(h * 3_600 * MICROS_PER_SEC)
    }

    /// Construct from whole days.
    pub const fn from_days(d: u64) -> SimDuration {
        SimDuration(d * 86_400 * MICROS_PER_SEC)
    }

    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional hours.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Fractional days.
    #[inline]
    pub fn as_days_f64(self) -> f64 {
        self.as_secs_f64() / 86_400.0
    }

    /// `true` when the duration is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Multiply by a non-negative float, rounding to the nearest microsecond.
    ///
    /// # Panics
    /// Panics if `k` is negative or not finite.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(
            k.is_finite() && k >= 0.0,
            "factor must be finite and non-negative"
        );
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Ratio of two durations.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    #[inline]
    pub fn ratio(self, other: SimDuration) -> f64 {
        assert!(other.0 > 0, "cannot take ratio against a zero duration");
        self.0 as f64 / other.0 as f64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign<SimDuration> for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tod = self.time_of_day();
        let h = tod.0 / SimDuration::HOUR.0;
        let m = (tod.0 % SimDuration::HOUR.0) / SimDuration::MINUTE.0;
        let s = (tod.0 % SimDuration::MINUTE.0) / SimDuration::SECOND.0;
        write!(
            f,
            "d{} {} {:02}:{:02}:{:02}",
            self.day_index(),
            self.weekday(),
            h,
            m,
            s
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SimDuration::HOUR.0 {
            write!(f, "{:.2}h", self.as_hours_f64())
        } else if self.0 >= SimDuration::SECOND.0 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// Iterator over aligned instants `[start, end)` spaced by `step`.
///
/// ```
/// use simcore::time::{ticks, SimTime, SimDuration};
/// let v: Vec<_> = ticks(SimTime::ZERO, SimTime::from_secs(10), SimDuration::from_secs(5)).collect();
/// assert_eq!(v.len(), 2);
/// ```
pub fn ticks(start: SimTime, end: SimTime, step: SimDuration) -> Ticks {
    assert!(!step.is_zero(), "step must be non-zero");
    Ticks {
        next: start,
        end,
        step,
    }
}

/// Iterator returned by [`ticks`].
#[derive(Debug, Clone)]
pub struct Ticks {
    next: SimTime,
    end: SimTime,
    step: SimDuration,
}

impl Iterator for Ticks {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        if self.next >= self.end {
            return None;
        }
        let t = self.next;
        self.next += self.step;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The rounding `from_secs_f64` must reproduce bit for bit.
    fn round_micros(s: f64) -> u64 {
        (s * MICROS_PER_SEC as f64).round() as u64
    }

    /// A duration in seconds whose product with 1e6 is exactly `micros`,
    /// searched among the floats nearest `micros / 1e6`.
    fn secs_for(micros: f64) -> Option<f64> {
        let mut s = micros / 1e6;
        for _ in 0..64 {
            let m = s * 1e6;
            if m == micros {
                return Some(s);
            }
            s = if m < micros {
                s.next_up()
            } else {
                s.next_down()
            };
        }
        None
    }

    #[test]
    fn from_secs_f64_matches_round_at_the_edges() {
        let two_52 = (1u64 << 52) as f64;
        let two_53 = (1u64 << 53) as f64;
        let two_64 = 2f64.powi(64);
        // Odd integers from 2^52 up, where adding 0.5 before truncating
        // would round to even.
        let mut micros = vec![
            two_52,
            two_52 + 1.0,
            two_52 + 3.0,
            two_53 - 1.0,
            two_53,
            two_53 + 2.0,
            two_64,
            two_64 * 2.0,
        ];
        // Every `k + 0.5` microseconds, and its two float neighbours.
        for k in (0..2_000u64).chain([999_999, 1 << 20, 1 << 40, (1 << 51) + 3]) {
            let half = k as f64 + 0.5;
            micros.extend([half, half.next_down(), half.next_up()]);
        }
        let mut inputs: Vec<f64> = micros.iter().filter_map(|&m| secs_for(m)).collect();
        assert!(inputs.len() > 5_000, "most boundaries are reachable");
        inputs.extend([0.0, 0.5f64.next_down() * 1e-6, 5e-7, f64::MAX]);
        for s in inputs {
            assert_eq!(
                SimDuration::from_secs_f64(s).as_micros(),
                round_micros(s),
                "s = {s:e}"
            );
        }
        assert_eq!(
            SimDuration::from_secs_f64(4_503_599_627.370_497).as_micros(),
            (1 << 52) + 1
        );
        assert_eq!(SimDuration::from_secs_f64(f64::MAX).as_micros(), u64::MAX);
    }

    #[test]
    fn from_secs_f64_still_rejects_bad_input() {
        for bad in [f64::NAN, -1e-6, -0.5, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                std::panic::catch_unwind(|| SimDuration::from_secs_f64(bad)).is_err(),
                "{bad} must panic"
            );
        }
    }

    proptest! {
        #[test]
        fn from_secs_f64_matches_round(
            s in 0.0..1e13f64,
            k in 0u64..1 << 40,
            big in (1u64 << 52)..(1u64 << 53),
        ) {
            prop_assert_eq!(SimDuration::from_secs_f64(s).as_micros(), round_micros(s));
            let big = big as f64 / 1e6;
            prop_assert_eq!(SimDuration::from_secs_f64(big).as_micros(), round_micros(big));
            // Exact half-microsecond boundaries.
            let half = (k as f64 + 0.5) / 1e6;
            prop_assert_eq!(SimDuration::from_secs_f64(half).as_micros(), round_micros(half));
        }
    }

    #[test]
    fn epoch_is_monday_midnight() {
        assert_eq!(SimTime::ZERO.weekday(), Weekday::Monday);
        assert_eq!(SimTime::ZERO.time_of_day(), SimDuration::ZERO);
    }

    #[test]
    fn weekday_cycles_over_a_week() {
        for (i, wd) in Weekday::ALL.iter().enumerate() {
            let t = SimTime::ZERO + SimDuration::from_days(i as u64) + SimDuration::from_hours(5);
            assert_eq!(t.weekday(), *wd);
        }
        let next_monday = SimTime::ZERO + SimDuration::from_days(7);
        assert_eq!(next_monday.weekday(), Weekday::Monday);
    }

    #[test]
    fn weekend_detection() {
        assert!(!Weekday::Friday.is_weekend());
        assert!(Weekday::Saturday.is_weekend());
        assert!(Weekday::Sunday.is_weekend());
    }

    #[test]
    fn time_of_day_and_week() {
        let t = SimTime::ZERO + SimDuration::from_days(9) + SimDuration::from_hours(3);
        assert_eq!(t.time_of_day(), SimDuration::from_hours(3));
        assert_eq!(
            t.time_of_week(),
            SimDuration::from_days(2) + SimDuration::from_hours(3)
        );
        assert_eq!(t.day_index(), 9);
        assert_eq!(t.week_index(), 1);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t0 = SimTime::from_secs(100);
        let d = SimDuration::from_secs(42);
        assert_eq!((t0 + d).since(t0), d);
        assert_eq!((t0 + d) - d, t0);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(9);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "`earlier` must not be after")]
    fn since_panics_on_negative() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn align_down_works() {
        let t = SimTime::from_secs(3721);
        assert_eq!(
            t.align_down(SimDuration::from_secs(60)),
            SimTime::from_secs(3720)
        );
        assert_eq!(t.align_down(SimDuration::HOUR), SimTime::from_secs(3600));
    }

    #[test]
    fn ticks_iterates_half_open() {
        let v: Vec<_> = ticks(
            SimTime::ZERO,
            SimTime::from_secs(15),
            SimDuration::from_secs(5),
        )
        .collect();
        assert_eq!(
            v,
            vec![SimTime::ZERO, SimTime::from_secs(5), SimTime::from_secs(10)]
        );
    }

    #[test]
    fn duration_helpers() {
        assert_eq!(SimDuration::from_hours(2).as_hours_f64(), 2.0);
        assert_eq!(
            SimDuration::from_secs_f64(0.25),
            SimDuration::from_millis(250)
        );
        assert_eq!(
            SimDuration::from_secs(10).mul_f64(1.5),
            SimDuration::from_secs(15)
        );
        assert_eq!(
            SimDuration::from_secs(3).ratio(SimDuration::from_secs(6)),
            0.5
        );
        assert_eq!(
            SimDuration::from_secs(10).saturating_sub(SimDuration::from_secs(20)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_formats() {
        let t = SimTime::ZERO + SimDuration::from_days(1) + SimDuration::from_hours(9);
        assert_eq!(format!("{t}"), "d1 Tue 09:00:00");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_secs(90)), "90.00s");
        assert_eq!(format!("{}", SimDuration::from_hours(3)), "3.00h");
    }
}
