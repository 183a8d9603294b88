//! The Server Overclocking Agent's control constants.
//!
//! The paper gives SmartOClock's control loop as fixed values (§IV-B/§IV-D):
//! a 20 W exploration step, a ~30 s exploration window, a power buffer below
//! the limit for the feedback loop's hold band, a 15-minute exhaustion-warning
//! window, and a weekly lifetime epoch with a 10 % overclocking budget. The
//! large-scale engines share the exploration step and cap.

use simcore::time::SimDuration;
use soc_power::units::Watts;

/// Fraction of lifetime that may be spent overclocked per [`EPOCH`].
pub(crate) const OVERCLOCK_TIME_FRACTION: f64 = 0.10;

/// Lifetime-budget epoch.
pub(crate) const EPOCH: SimDuration = SimDuration::WEEK;

/// Exploration budget increment.
pub const EXPLORE_STEP: Watts = Watts::new(20.0);

/// Cap on cumulative exploration above the assigned budget.
pub const EXPLORE_CAP: Watts = Watts::new(200.0);

/// How long to hold an exploration step before concluding it is safe.
pub(crate) const EXPLORE_WAIT: SimDuration = SimDuration::from_secs(30);

/// How long to exploit a discovered budget before re-exploring.
pub(crate) const EXPLOIT_TIME: SimDuration = SimDuration::from_minutes(5);

/// Initial backoff after a warning, doubled per warning.
pub(crate) const BACKOFF_INITIAL: SimDuration = SimDuration::from_secs(60);

/// Cap on the exponential backoff.
pub(crate) const BACKOFF_MAX: SimDuration = SimDuration::from_minutes(30);

/// Hold band below the power budget: the feedback loop holds frequency when
/// `budget - buffer <= draw < budget`.
pub(crate) const POWER_BUFFER: Watts = Watts::new(15.0);

/// Exhaustion warning window: notify the WI agent when power or budget
/// exhaustion is predicted within this horizon.
pub(crate) const EXHAUSTION_WINDOW: SimDuration = SimDuration::from_minutes(15);

/// How stale the gOA-assigned budget may grow before the agent enters
/// degraded mode (freeze exploration, enforce the last assignment): three
/// missed 2-minute refresh cycles. Only applies when budgets are stamped via
/// [`crate::soa::ServerOverclockAgent::set_power_budget_at`].
pub(crate) const BUDGET_STALENESS_LIMIT: SimDuration = SimDuration::from_minutes(6);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_paper_constants() {
        assert_eq!(EXPLORE_STEP, Watts::new(20.0));
        assert_eq!(EXPLORE_WAIT, SimDuration::from_secs(30));
        assert_eq!(EXHAUSTION_WINDOW, SimDuration::from_minutes(15));
        assert_eq!(EPOCH, SimDuration::WEEK);
        assert_eq!(BUDGET_STALENESS_LIMIT, SimDuration::from_minutes(2) * 3);
        assert_eq!(
            EPOCH.mul_f64(OVERCLOCK_TIME_FRACTION),
            SimDuration::from_hours(168) / 10
        );
        assert!(BACKOFF_INITIAL <= BACKOFF_MAX);
        assert!(EXPLORE_STEP <= EXPLORE_CAP);
    }
}
