//! Strongly-typed physical quantities.
//!
//! Newtypes keep watts, megahertz, and volts from being mixed up in the
//! budget arithmetic that SmartOClock does constantly (C-NEWTYPE).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Electrical power in watts.
///
/// ```
/// use soc_power::units::Watts;
/// let headroom = Watts::new(1300.0) - Watts::new(700.0);
/// assert_eq!(headroom, Watts::new(600.0));
/// assert_eq!(headroom * 0.5, Watts::new(300.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// Construct from a raw value.
    ///
    /// # Panics
    /// Panics if `w` is NaN.
    #[inline]
    pub const fn new(w: f64) -> Watts {
        assert!(!w.is_nan(), "power must not be NaN");
        Watts(w)
    }

    /// The raw value in watts.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Clamp negative readings to zero (sensor noise guard).
    #[inline]
    pub fn clamp_non_negative(self) -> Watts {
        Watts(self.0.max(0.0))
    }

    /// The smaller of two power values.
    #[inline]
    pub fn min(self, other: Watts) -> Watts {
        Watts(self.0.min(other.0))
    }

    /// The larger of two power values.
    #[inline]
    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }

    /// Ratio of two power values.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    #[inline]
    pub fn ratio(self, other: Watts) -> f64 {
        assert!(other.0 != 0.0, "division by zero watts");
        self.0 / other.0
    }
}

impl Add for Watts {
    type Output = Watts;
    #[inline]
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    #[inline]
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    #[inline]
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl SubAssign for Watts {
    #[inline]
    fn sub_assign(&mut self, rhs: Watts) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Div<f64> for Watts {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}

impl Neg for Watts {
    type Output = Watts;
    #[inline]
    fn neg(self) -> Watts {
        Watts(-self.0)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}W", self.0)
    }
}

/// CPU core frequency in megahertz.
///
/// ```
/// use soc_power::units::MegaHertz;
/// let turbo = MegaHertz::new(3300);
/// let oc = turbo + MegaHertz::new(700);
/// assert_eq!(oc, MegaHertz::new(4000));
/// assert!((oc.ratio(turbo) - 1.212).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MegaHertz(u32);

impl MegaHertz {
    /// Zero frequency.
    pub const ZERO: MegaHertz = MegaHertz(0);

    /// Construct from a raw MHz count.
    #[inline]
    pub const fn new(mhz: u32) -> MegaHertz {
        MegaHertz(mhz)
    }

    /// Raw MHz count.
    #[inline]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Frequency in GHz.
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Ratio of two frequencies.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    #[inline]
    pub fn ratio(self, other: MegaHertz) -> f64 {
        assert!(other.0 > 0, "division by zero frequency");
        self.0 as f64 / other.0 as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: MegaHertz) -> MegaHertz {
        MegaHertz(self.0.saturating_sub(other.0))
    }

    /// The smaller of two frequencies.
    #[inline]
    pub fn min(self, other: MegaHertz) -> MegaHertz {
        MegaHertz(self.0.min(other.0))
    }

    /// The larger of two frequencies.
    #[inline]
    pub fn max(self, other: MegaHertz) -> MegaHertz {
        MegaHertz(self.0.max(other.0))
    }

    /// Clamp into `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: MegaHertz, hi: MegaHertz) -> MegaHertz {
        assert!(lo <= hi, "invalid clamp range");
        MegaHertz(self.0.clamp(lo.0, hi.0))
    }
}

impl Add for MegaHertz {
    type Output = MegaHertz;
    #[inline]
    fn add(self, rhs: MegaHertz) -> MegaHertz {
        MegaHertz(self.0 + rhs.0)
    }
}

impl Sub for MegaHertz {
    type Output = MegaHertz;
    #[inline]
    fn sub(self, rhs: MegaHertz) -> MegaHertz {
        MegaHertz(self.0 - rhs.0)
    }
}

impl fmt::Display for MegaHertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.0)
    }
}

/// Core supply voltage in volts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Volts(f64);

impl Volts {
    /// Construct from a raw value.
    ///
    /// # Panics
    /// Panics if `v` is negative or NaN.
    pub fn new(v: f64) -> Volts {
        assert!(
            v.is_finite() && v >= 0.0,
            "voltage must be finite and non-negative"
        );
        Volts(v)
    }

    /// Raw value in volts.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// `V²` — the factor dynamic power scales with.
    pub fn squared(self) -> f64 {
        self.0 * self.0
    }
}

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}V", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_arithmetic() {
        let a = Watts::new(100.0);
        let b = Watts::new(40.0);
        assert_eq!(a + b, Watts::new(140.0));
        assert_eq!(a - b, Watts::new(60.0));
        assert_eq!(a * 2.0, Watts::new(200.0));
        assert_eq!(a / 4.0, Watts::new(25.0));
        assert_eq!(-b, Watts::new(-40.0));
    }

    #[test]
    fn watts_sum_and_energy() {
        let total: Watts = vec![Watts::new(1.0), Watts::new(2.5)].into_iter().sum();
        assert_eq!(total, Watts::new(3.5));
    }

    #[test]
    fn watts_clamp_and_ratio() {
        assert_eq!(Watts::new(-5.0).clamp_non_negative(), Watts::ZERO);
        assert_eq!(Watts::new(50.0).ratio(Watts::new(100.0)), 0.5);
        assert_eq!(Watts::new(10.0).min(Watts::new(5.0)), Watts::new(5.0));
        assert_eq!(Watts::new(10.0).max(Watts::new(5.0)), Watts::new(10.0));
    }

    #[test]
    #[should_panic(expected = "power must not be NaN")]
    fn watts_rejects_nan() {
        let _ = Watts::new(f64::NAN);
    }

    #[test]
    fn mhz_arithmetic() {
        let f = MegaHertz::new(3300);
        assert_eq!(f + MegaHertz::new(100), MegaHertz::new(3400));
        assert_eq!(f - MegaHertz::new(300), MegaHertz::new(3000));
        assert_eq!(f.saturating_sub(MegaHertz::new(5000)), MegaHertz::ZERO);
        assert_eq!(f.as_ghz(), 3.3);
        assert_eq!(
            MegaHertz::new(5000).clamp(MegaHertz::new(2000), MegaHertz::new(4000)),
            MegaHertz::new(4000)
        );
    }

    #[test]
    fn volts_squared() {
        assert!((Volts::new(1.2).squared() - 1.44).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Watts::new(12.34)), "12.3W");
        assert_eq!(format!("{}", MegaHertz::new(4000)), "4000MHz");
        assert_eq!(format!("{}", Volts::new(1.25)), "1.250V");
    }
}
