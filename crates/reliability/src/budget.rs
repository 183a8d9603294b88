//! Epoch-based overclocking time budgets.
//!
//! "A max time to overclock a component is obtained through an offline
//! analysis with the vendors (e.g., 10% over a 5-year period). ... To get
//! uniform overclocking over a component's expected lifetime, SmartOClock
//! divides the overall budget into epochs. ... SmartOClock defines an epoch
//! to be a week and calculates per-weekday max overclocking time. ... For a
//! predictable overclocking experience, an sOA reserves overclocking budgets
//! for scheduled requests. Unused budgets can be used by unscheduled
//! (metrics-based) overclocking and also carried over to the next epoch."
//! (paper §IV-B)

use simcore::time::{SimDuration, SimTime};
use std::fmt;

/// Errors from budget operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetError {
    /// The remaining unreserved budget in this epoch is insufficient.
    InsufficientBudget {
        /// What was asked for (microseconds).
        requested_us: u64,
        /// What remains (microseconds).
        available_us: u64,
    },
    /// Attempted to release more reservation than is held.
    ReleaseExceedsReservation,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::InsufficientBudget {
                requested_us,
                available_us,
            } => write!(
                f,
                "insufficient overclocking budget: requested {}us, available {}us",
                requested_us, available_us
            ),
            BudgetError::ReleaseExceedsReservation => {
                write!(f, "release exceeds held reservation")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

/// A weekly overclocking time budget with reservation and carry-over.
///
/// The budget is expressed as a *fraction of wall-clock time* (e.g. 10 %)
/// applied to a weekly epoch. Consumption, reservation, and carry-over all
/// happen at epoch granularity; [`advance_to`](Self::advance_to) rolls the
/// epoch forward as simulated time passes.
///
/// ```
/// use soc_reliability::budget::OverclockBudget;
/// use simcore::time::{SimDuration, SimTime};
///
/// // 10% of a week ≈ 16.8 hours of overclocking per epoch.
/// let mut b = OverclockBudget::new(0.10, SimDuration::WEEK);
/// assert_eq!(b.remaining(), SimDuration::WEEK.mul_f64(0.10));
/// b.consume(SimTime::ZERO, SimDuration::from_hours(2)).unwrap();
/// assert_eq!(b.remaining(), SimDuration::from_hours(14) + SimDuration::from_minutes(48));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OverclockBudget {
    /// Fraction of wall-clock time that may be overclocked.
    fraction: f64,
    /// Epoch length (a week in the paper).
    epoch: SimDuration,
    /// Index of the current epoch.
    current_epoch: u64,
    /// Time consumed in the current epoch.
    consumed: SimDuration,
    /// Time reserved (but not yet consumed) for scheduled requests.
    reserved: SimDuration,
    /// Unused budget carried over from prior epochs.
    carry_over: SimDuration,
    /// Cap on carry-over, as a multiple of the per-epoch allowance
    /// (prevents unbounded hoarding).
    carry_over_cap_epochs: f64,
    /// Lifetime total consumed (for reporting).
    total_consumed: SimDuration,
}

impl OverclockBudget {
    /// Create a budget.
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1]` or `epoch` is zero.
    pub fn new(fraction: f64, epoch: SimDuration) -> OverclockBudget {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        assert!(!epoch.is_zero(), "epoch must be non-zero");
        OverclockBudget {
            fraction,
            epoch,
            current_epoch: 0,
            consumed: SimDuration::ZERO,
            reserved: SimDuration::ZERO,
            carry_over: SimDuration::ZERO,
            carry_over_cap_epochs: 1.0,
            total_consumed: SimDuration::ZERO,
        }
    }

    /// The paper's reference configuration: 10 % of time, weekly epochs.
    pub fn reference() -> OverclockBudget {
        OverclockBudget::new(0.10, SimDuration::WEEK)
    }

    /// Budgeted fraction of time.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Epoch length.
    pub fn epoch(&self) -> SimDuration {
        self.epoch
    }

    /// Scale the budget fraction (used by the overclocking-constrained
    /// experiments that restrict the budget to 75/50/25 %, §V-A).
    ///
    /// # Panics
    /// Panics if `scale` is negative or the result exceeds 1.
    pub fn scale_fraction(&mut self, scale: f64) {
        assert!(scale >= 0.0, "scale must be non-negative");
        let f = self.fraction * scale;
        assert!(f <= 1.0, "scaled fraction exceeds 1");
        self.fraction = f;
    }

    /// Per-epoch allowance (excluding carry-over).
    fn epoch_allowance(&self) -> SimDuration {
        self.epoch.mul_f64(self.fraction)
    }

    /// Budget still consumable in the current epoch (allowance + carry-over −
    /// consumed − reserved).
    pub fn remaining(&self) -> SimDuration {
        (self.epoch_allowance() + self.carry_over)
            .saturating_sub(self.consumed)
            .saturating_sub(self.reserved)
    }

    /// Roll the epoch forward to the one containing `now`, applying
    /// carry-over of unused budget (capped). Reservations do not survive
    /// epoch boundaries.
    pub fn advance_to(&mut self, now: SimTime) {
        let epoch_idx = now.as_micros() / self.epoch.as_micros();
        while self.current_epoch < epoch_idx {
            let unused = (self.epoch_allowance() + self.carry_over).saturating_sub(self.consumed);
            let cap = self.epoch_allowance().mul_f64(self.carry_over_cap_epochs);
            self.carry_over = unused.min(cap);
            self.consumed = SimDuration::ZERO;
            self.reserved = SimDuration::ZERO;
            self.current_epoch += 1;
        }
    }

    /// Consume overclocking time at `now`.
    ///
    /// # Errors
    /// Returns [`BudgetError::InsufficientBudget`] when the unreserved
    /// remainder cannot cover `dt`.
    pub fn consume(&mut self, now: SimTime, dt: SimDuration) -> Result<(), BudgetError> {
        self.advance_to(now);
        if dt > self.remaining() {
            return Err(BudgetError::InsufficientBudget {
                requested_us: dt.as_micros(),
                available_us: self.remaining().as_micros(),
            });
        }
        self.consumed += dt;
        self.total_consumed += dt;
        Ok(())
    }

    /// Consume from a held reservation (scheduled overclocking).
    ///
    /// # Errors
    /// Returns [`BudgetError::ReleaseExceedsReservation`] if `dt` exceeds the
    /// held reservation.
    pub fn consume_reserved(&mut self, now: SimTime, dt: SimDuration) -> Result<(), BudgetError> {
        self.advance_to(now);
        if dt > self.reserved {
            return Err(BudgetError::ReleaseExceedsReservation);
        }
        self.reserved -= dt;
        self.consumed += dt;
        self.total_consumed += dt;
        Ok(())
    }

    /// Reserve budget for a scheduled request (admission control, §IV-B).
    ///
    /// # Errors
    /// Returns [`BudgetError::InsufficientBudget`] when the unreserved
    /// remainder cannot cover `dt`.
    pub fn reserve(&mut self, now: SimTime, dt: SimDuration) -> Result<(), BudgetError> {
        self.advance_to(now);
        if dt > self.remaining() {
            return Err(BudgetError::InsufficientBudget {
                requested_us: dt.as_micros(),
                available_us: self.remaining().as_micros(),
            });
        }
        self.reserved += dt;
        Ok(())
    }

    /// Release (part of) a reservation without consuming it.
    ///
    /// # Errors
    /// Returns [`BudgetError::ReleaseExceedsReservation`] if `dt` exceeds the
    /// held reservation.
    pub fn release(&mut self, dt: SimDuration) -> Result<(), BudgetError> {
        if dt > self.reserved {
            return Err(BudgetError::ReleaseExceedsReservation);
        }
        self.reserved -= dt;
        Ok(())
    }

    /// Predicted time until the remaining budget is exhausted if overclocking
    /// runs continuously from `now`. Returns `None` when nothing remains.
    pub fn time_to_exhaustion(&self, now: SimTime) -> Option<SimDuration> {
        let mut probe = self.clone();
        probe.advance_to(now);
        let rem = probe.remaining();
        if rem.is_zero() {
            None
        } else {
            Some(rem)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn week_budget() -> OverclockBudget {
        OverclockBudget::new(0.10, SimDuration::WEEK)
    }

    #[test]
    fn allowance_is_fraction_of_epoch() {
        let b = week_budget();
        assert_eq!(b.epoch_allowance(), SimDuration::WEEK.mul_f64(0.10));
        // 10% of a week = 16.8 hours.
        assert!((b.epoch_allowance().as_hours_f64() - 16.8).abs() < 1e-9);
    }

    #[test]
    fn consume_reduces_remaining() {
        let mut b = week_budget();
        b.consume(SimTime::ZERO, SimDuration::from_hours(10))
            .unwrap();
        assert!((b.remaining().as_hours_f64() - 6.8).abs() < 1e-9);
        assert_eq!(b.total_consumed, SimDuration::from_hours(10));
    }

    #[test]
    fn overconsumption_rejected() {
        let mut b = week_budget();
        let err = b
            .consume(SimTime::ZERO, SimDuration::from_hours(20))
            .unwrap_err();
        assert!(matches!(err, BudgetError::InsufficientBudget { .. }));
        assert_eq!(b.total_consumed, SimDuration::ZERO);
    }

    #[test]
    fn carry_over_moves_unused_budget() {
        let mut b = week_budget();
        b.consume(SimTime::ZERO, SimDuration::from_hours(10))
            .unwrap();
        // Next week: 16.8 allowance + 6.8 carried = 23.6 h.
        b.advance_to(SimTime::ZERO + SimDuration::WEEK);
        assert!((b.remaining().as_hours_f64() - 23.6).abs() < 1e-9);
    }

    #[test]
    fn carry_over_is_capped() {
        let mut b = week_budget();
        // Consume nothing for three weeks; carry-over caps at one allowance.
        b.advance_to(SimTime::ZERO + SimDuration::WEEK * 3);
        assert!((b.remaining().as_hours_f64() - 2.0 * 16.8).abs() < 1e-9);
    }

    #[test]
    fn reservations_block_unscheduled_consumption() {
        let mut b = week_budget();
        b.reserve(SimTime::ZERO, SimDuration::from_hours(10))
            .unwrap();
        assert!((b.remaining().as_hours_f64() - 6.8).abs() < 1e-9);
        let err = b
            .consume(SimTime::ZERO, SimDuration::from_hours(7))
            .unwrap_err();
        assert!(matches!(err, BudgetError::InsufficientBudget { .. }));
        // But the reservation holder can consume it.
        b.consume_reserved(SimTime::ZERO, SimDuration::from_hours(10))
            .unwrap();
        assert_eq!(b.reserved, SimDuration::ZERO);
    }

    #[test]
    fn release_returns_budget() {
        let mut b = week_budget();
        b.reserve(SimTime::ZERO, SimDuration::from_hours(10))
            .unwrap();
        b.release(SimDuration::from_hours(4)).unwrap();
        assert_eq!(b.reserved, SimDuration::from_hours(6));
        assert!((b.remaining().as_hours_f64() - 10.8).abs() < 1e-9);
        assert!(matches!(
            b.release(SimDuration::from_hours(100)),
            Err(BudgetError::ReleaseExceedsReservation)
        ));
    }

    #[test]
    fn reservations_cleared_at_epoch_boundary() {
        let mut b = week_budget();
        b.reserve(SimTime::ZERO, SimDuration::from_hours(10))
            .unwrap();
        b.advance_to(SimTime::ZERO + SimDuration::WEEK);
        assert_eq!(b.reserved, SimDuration::ZERO);
    }

    #[test]
    fn time_to_exhaustion_reports_remaining() {
        let mut b = week_budget();
        b.consume(SimTime::ZERO, SimDuration::from_hours(16))
            .unwrap();
        let t = b.time_to_exhaustion(SimTime::ZERO).unwrap();
        assert!((t.as_hours_f64() - 0.8).abs() < 1e-9);
        b.consume(SimTime::ZERO, t).unwrap();
        assert_eq!(b.time_to_exhaustion(SimTime::ZERO), None);
    }

    #[test]
    fn scale_fraction_for_constrained_experiments() {
        let mut b = week_budget();
        b.scale_fraction(0.5);
        assert!((b.epoch_allowance().as_hours_f64() - 8.4).abs() < 1e-9);
    }

    /// Fraction of a fortnight's demand (3 h of overclocking wanted per
    /// weekday, none on weekends) that a 10% budget grants under `epoch`.
    fn weekday_peak_grant_fraction(epoch: SimDuration) -> f64 {
        let mut budget = OverclockBudget::new(0.10, epoch);
        let mut wanted = 0.0;
        let mut granted = 0.0;
        for day in 0..14u64 {
            let t = SimTime::ZERO + SimDuration::from_days(day);
            if t.weekday().is_weekend() {
                continue;
            }
            for hour in 0..3u64 {
                wanted += 1.0;
                let at = t + SimDuration::from_hours(9 + hour);
                if budget.consume(at, SimDuration::from_hours(1)).is_ok() {
                    granted += 1.0;
                }
            }
        }
        granted / wanted
    }

    /// §IV-B: "Using a longer epoch, such as a week, enables assigning
    /// unused budgets from the weekend to the weekdays."
    #[test]
    fn weekly_epoch_funds_weekday_peaks_that_daily_epochs_reject() {
        let weekly = weekday_peak_grant_fraction(SimDuration::WEEK);
        let daily = weekday_peak_grant_fraction(SimDuration::DAY);
        assert_eq!(weekly, 1.0, "a weekly epoch grants every weekday hour");
        assert!(
            daily < weekly,
            "a daily epoch must reject some weekday demand: daily {daily}, weekly {weekly}"
        );
    }

    proptest! {
        #[test]
        fn never_consumes_more_than_allowance_plus_carryover(
            ops in prop::collection::vec((0u64..200, 0u64..30), 1..50)
        ) {
            let mut b = week_budget();
            let mut now = SimTime::ZERO;
            for &(advance_hours, consume_hours) in &ops {
                now += SimDuration::from_hours(advance_hours);
                let _ = b.consume(now, SimDuration::from_hours(consume_hours));
                // Invariant: per-epoch consumption never exceeds allowance
                // plus the carry-over cap (2 allowances total).
                prop_assert!(
                    b.consumed <= b.epoch_allowance().mul_f64(2.0)
                );
            }
        }

        #[test]
        fn remaining_never_negative(
            ops in prop::collection::vec((0u64..400, 0u64..20, 0u64..20), 1..40)
        ) {
            let mut b = week_budget();
            let mut now = SimTime::ZERO;
            for &(advance_hours, consume_hours, reserve_hours) in &ops {
                now += SimDuration::from_hours(advance_hours);
                let _ = b.consume(now, SimDuration::from_hours(consume_hours));
                let _ = b.reserve(now, SimDuration::from_hours(reserve_hours));
                prop_assert!(b.remaining() >= SimDuration::ZERO);
            }
        }
    }
}
