//! Power-template construction and prediction.
//!
//! "SmartOClock creates a power template using *per-day aggregation* of power
//! draws across all weekdays in the prior week. The template represents a
//! single day and the same template is used for predictions for all days in
//! the following week. For example, the template's value at 9AM is the median
//! of rack's power consumption at 9AM across all five weekdays. A separate
//! template is used for weekends." (paper §IV-B)
//!
//! Fig. 15 compares five strategies; all are implemented here.

use simcore::series::TimeSeries;
use simcore::stats::{percentile, percentile_in_place};
use simcore::time::{SimDuration, SimTime};

/// Template-construction strategy (Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemplateKind {
    /// Constant prediction: median of all prior samples. Opportunistic —
    /// underpredicts peaks.
    FlatMed,
    /// Constant prediction: maximum of all prior samples. Conservative —
    /// overpredicts almost always.
    FlatMax,
    /// Replay the previous week's series by time-of-week. Sensitive to
    /// outlier days (holidays).
    Weekly,
    /// Per-day aggregation, median across the prior week's weekdays (plus a
    /// separate weekend profile). **SmartOClock's choice.**
    DailyMed,
    /// Per-day aggregation, maximum across days.
    DailyMax,
}

impl TemplateKind {
    /// All strategies, in the order Fig. 15 lists them.
    pub const ALL: [TemplateKind; 5] = [
        TemplateKind::FlatMed,
        TemplateKind::FlatMax,
        TemplateKind::Weekly,
        TemplateKind::DailyMed,
        TemplateKind::DailyMax,
    ];

    /// Human-readable name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            TemplateKind::FlatMed => "FlatMed",
            TemplateKind::FlatMax => "FlatMax",
            TemplateKind::Weekly => "Weekly",
            TemplateKind::DailyMed => "DailyMed",
            TemplateKind::DailyMax => "DailyMax",
        }
    }
}

impl std::fmt::Display for TemplateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A built template that predicts a value for any instant.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTemplate {
    kind: TemplateKind,
    step: SimDuration,
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    Flat(f64),
    /// One value per step-slot of the week.
    Week(Vec<f64>),
    /// One value per step-slot of the day, for weekdays and weekends.
    Daily {
        weekday: Vec<f64>,
        weekend: Vec<f64>,
    },
}

/// A precomputed lookup position for one instant, shared across every
/// template with the same sampling step (see [`PowerTemplate::predict_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateSlot {
    step: SimDuration,
    day_slot: usize,
    week_slot: usize,
    weekend: bool,
}

impl TemplateSlot {
    /// Decompose instant `t` for templates sampled at `step`.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    pub fn at(t: SimTime, step: SimDuration) -> TemplateSlot {
        assert!(!step.is_zero(), "template step must be positive");
        TemplateSlot {
            step,
            day_slot: (t.time_of_day().as_micros() / step.as_micros()) as usize,
            week_slot: (t.time_of_week().as_micros() / step.as_micros()) as usize,
            weekend: t.weekday().is_weekend(),
        }
    }

    /// Day-class key of this instant: the time-of-day slot, offset by one
    /// day's slots on weekends, so keys run over `0..2 * DAY / step`.
    /// Every [`TemplateKind`] except `Weekly` predicts a pure function of
    /// this key.
    pub fn day_class(&self) -> usize {
        let per_day = (SimDuration::DAY.as_micros() / self.step.as_micros()) as usize;
        usize::from(self.weekend) * per_day + self.day_slot
    }
}

impl PowerTemplate {
    /// Build a template of the given kind from training history.
    ///
    /// # Panics
    /// Panics if `history` is empty, or (for `Weekly`/`Daily*`) shorter than
    /// one full week, or if the step does not divide a day evenly.
    pub fn build(history: &TimeSeries, kind: TemplateKind) -> PowerTemplate {
        assert!(
            !history.is_empty(),
            "cannot build a template from an empty history"
        );
        let step = history.step();
        assert!(
            SimDuration::DAY
                .as_micros()
                .is_multiple_of(step.as_micros()),
            "step must divide a day evenly"
        );
        let repr = match kind {
            TemplateKind::FlatMed => Repr::Flat(percentile(history.values(), 50.0)),
            TemplateKind::FlatMax => Repr::Flat(history.max()),
            TemplateKind::Weekly => {
                let slots_per_week = (SimDuration::WEEK.as_micros() / step.as_micros()) as usize;
                assert!(
                    history.len() >= slots_per_week,
                    "Weekly template needs at least one full week of history"
                );
                // Use the most recent full week, aligned by time-of-week.
                let mut week = vec![0.0; slots_per_week];
                let from = history.len() - slots_per_week;
                for i in 0..slots_per_week {
                    let idx = from + i;
                    let t = history.time_at_index(idx);
                    let slot =
                        (t.time_of_week().as_micros() / step.as_micros()) as usize % slots_per_week;
                    week[slot] = history.values()[idx];
                }
                Repr::Week(week)
            }
            TemplateKind::DailyMed | TemplateKind::DailyMax => {
                let slots_per_week = (SimDuration::WEEK.as_micros() / step.as_micros()) as usize;
                assert!(
                    history.len() >= slots_per_week,
                    "Daily templates need at least one full week of history"
                );
                let agg: fn(&mut [f64]) -> f64 = match kind {
                    TemplateKind::DailyMed => |xs| percentile_in_place(xs, 50.0),
                    _ => |xs| xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                };
                let weekday = fill_gaps(history.daily_profile(|d| !d.is_weekend(), agg));
                let weekend = fill_gaps(history.daily_profile(|d| d.is_weekend(), agg));
                Repr::Daily { weekday, weekend }
            }
        };
        PowerTemplate { kind, step, repr }
    }

    /// The strategy this template was built with.
    pub fn kind(&self) -> TemplateKind {
        self.kind
    }

    /// The sampling step the template is defined over.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Predicted value at instant `t`.
    pub fn predict(&self, t: SimTime) -> f64 {
        match &self.repr {
            Repr::Flat(v) => *v,
            Repr::Week(week) => {
                let slot =
                    (t.time_of_week().as_micros() / self.step.as_micros()) as usize % week.len();
                week[slot]
            }
            Repr::Daily { weekday, weekend } => {
                let profile = if t.weekday().is_weekend() {
                    weekend
                } else {
                    weekday
                };
                let slot =
                    (t.time_of_day().as_micros() / self.step.as_micros()) as usize % profile.len();
                profile[slot]
            }
        }
    }

    /// Predicted value at a precomputed instant descriptor.
    ///
    /// Equal to `self.predict(t)` when `slot == TemplateSlot::at(t, self.step())`.
    /// The point is batching: the columnar rack engine computes one
    /// [`TemplateSlot`] per simulation step and probes every server's
    /// template with it, hoisting the `SimTime` decomposition (time-of-day /
    /// time-of-week division, weekday classification) out of the inner
    /// per-server loop. Only the cheap `slot % profile.len()` reduction
    /// remains per template.
    ///
    /// # Panics
    /// Debug-asserts that `slot` was built with this template's step; a
    /// mismatched slot would silently predict for a different instant.
    pub fn predict_at(&self, slot: TemplateSlot) -> f64 {
        debug_assert_eq!(
            slot.step, self.step,
            "TemplateSlot built for a different sampling step"
        );
        match &self.repr {
            Repr::Flat(v) => *v,
            Repr::Week(week) => week[slot.week_slot % week.len()],
            Repr::Daily { weekday, weekend } => {
                let profile = if slot.weekend { weekend } else { weekday };
                profile[slot.day_slot % profile.len()]
            }
        }
    }

    /// The maximum value this template ever predicts.
    ///
    /// # Panics
    /// Panics if the template is degenerate (empty profile).
    pub fn peak(&self) -> f64 {
        match &self.repr {
            Repr::Flat(v) => *v,
            Repr::Week(w) => w.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            Repr::Daily { weekday, weekend } => weekday
                .iter()
                .chain(weekend)
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Apply `f` to every stored value, producing a new template. Used by
    /// fault injection to install a static prediction bias (e.g.
    /// `t.map_values(|v| v * 1.1)` makes the template over-predict by 10 %)
    /// without exposing the internal representation.
    pub fn map_values(mut self, f: impl Fn(f64) -> f64) -> PowerTemplate {
        match &mut self.repr {
            Repr::Flat(v) => *v = f(*v),
            Repr::Week(week) => {
                for v in week {
                    *v = f(*v);
                }
            }
            Repr::Daily { weekday, weekend } => {
                for v in weekday.iter_mut().chain(weekend.iter_mut()) {
                    *v = f(*v);
                }
            }
        }
        self
    }

    /// Earliest instant at or after `from` where the prediction is at least
    /// `threshold`, searching up to `horizon` ahead. Used by the sOA's
    /// time-to-power-exhaustion check (§IV-D).
    pub fn next_time_at_or_above(
        &self,
        from: SimTime,
        threshold: f64,
        horizon: SimDuration,
    ) -> Option<SimTime> {
        let mut t = from.align_down(self.step);
        if t < from {
            t += self.step;
        }
        let end = from + horizon;
        while t <= end {
            if self.predict(t) >= threshold {
                return Some(t);
            }
            t += self.step;
        }
        None
    }
}

/// Replace NaN slots (no samples for that slot in training) by the nearest
/// preceding non-NaN value, falling back to the series mean of defined slots.
fn fill_gaps(mut profile: Vec<f64>) -> Vec<f64> {
    let defined: Vec<f64> = profile.iter().cloned().filter(|v| !v.is_nan()).collect();
    let fallback = if defined.is_empty() {
        0.0
    } else {
        defined.iter().sum::<f64>() / defined.len() as f64
    };
    let mut last = fallback;
    for v in &mut profile {
        if v.is_nan() {
            *v = last;
        } else {
            last = *v;
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two weeks of hourly data: value = 100 + 10·hour_of_day on weekdays,
    /// 50 on weekends; second week has a +5 offset.
    fn history() -> TimeSeries {
        TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_days(14),
            SimDuration::HOUR,
            |t| {
                let base = if t.weekday().is_weekend() {
                    50.0
                } else {
                    100.0 + 10.0 * t.time_of_day().as_hours_f64()
                };
                base + if t.week_index() == 1 { 5.0 } else { 0.0 }
            },
        )
    }

    #[test]
    fn map_values_scales_predictions_everywhere() {
        let h = history();
        for kind in TemplateKind::ALL {
            let base = PowerTemplate::build(&h, kind);
            let biased = base.clone().map_values(|v| v * 1.1);
            assert_eq!(biased.kind(), base.kind());
            let mut t = SimTime::ZERO;
            while t < SimTime::ZERO + SimDuration::from_days(9) {
                let expect = base.predict(t) * 1.1;
                assert!(
                    (biased.predict(t) - expect).abs() < 1e-9,
                    "{kind:?} at {t:?}"
                );
                t += SimDuration::from_hours(5);
            }
            // Identity map leaves the template bit-identical.
            assert_eq!(base.clone().map_values(|v| v), base);
        }
    }

    #[test]
    fn flat_templates_are_constant() {
        let h = history();
        let med = PowerTemplate::build(&h, TemplateKind::FlatMed);
        let max = PowerTemplate::build(&h, TemplateKind::FlatMax);
        let t1 = SimTime::ZERO + SimDuration::from_days(20);
        let t2 = t1 + SimDuration::from_hours(13);
        assert_eq!(med.predict(t1), med.predict(t2));
        assert_eq!(max.predict(t1), h.max());
        assert!(med.predict(t1) < max.predict(t1));
    }

    #[test]
    fn weekly_replays_most_recent_week() {
        let h = history();
        let tpl = PowerTemplate::build(&h, TemplateKind::Weekly);
        // Predicting Tuesday 9AM of any future week gives week-2's value
        // (offset +5).
        let t = SimTime::ZERO
            + SimDuration::from_days(15) // week 3, Tuesday
            + SimDuration::from_hours(9);
        assert_eq!(t.weekday(), simcore::time::Weekday::Tuesday);
        assert_eq!(tpl.predict(t), 100.0 + 90.0 + 5.0);
    }

    #[test]
    fn daily_med_aggregates_across_weekdays() {
        let h = history();
        let tpl = PowerTemplate::build(&h, TemplateKind::DailyMed);
        // Weekday 9AM: all weekday samples at 9AM are 190 (wk1) or 195 (wk2);
        // median of {190 x5, 195 x5} = 192.5.
        let t = SimTime::ZERO + SimDuration::from_days(16) + SimDuration::from_hours(9);
        assert!(!t.weekday().is_weekend());
        assert_eq!(tpl.predict(t), 192.5);
        // Weekend prediction uses the weekend profile.
        let sat = SimTime::ZERO + SimDuration::from_days(19) + SimDuration::from_hours(9);
        assert!(sat.weekday().is_weekend());
        assert_eq!(tpl.predict(sat), 52.5);
    }

    #[test]
    fn daily_max_upper_bounds_daily_med() {
        let h = history();
        let med = PowerTemplate::build(&h, TemplateKind::DailyMed);
        let max = PowerTemplate::build(&h, TemplateKind::DailyMax);
        for hour in 0..24 {
            let t = SimTime::ZERO + SimDuration::from_days(22) + SimDuration::from_hours(hour);
            assert!(max.predict(t) >= med.predict(t));
        }
    }

    #[test]
    fn peak_is_max_prediction() {
        let h = history();
        let tpl = PowerTemplate::build(&h, TemplateKind::DailyMed);
        // Weekday 11PM median = (330+335)/2.
        assert_eq!(tpl.peak(), 332.5);
    }

    #[test]
    fn next_time_at_or_above_finds_morning_ramp() {
        let h = history();
        let tpl = PowerTemplate::build(&h, TemplateKind::DailyMed);
        // From Wednesday midnight, find when prediction reaches 250
        // (hour 15 has median 252.5).
        let from = SimTime::ZERO + SimDuration::from_days(16);
        let hit = tpl
            .next_time_at_or_above(from, 250.0, SimDuration::from_days(1))
            .expect("threshold is reached in the afternoon");
        assert_eq!(hit.since(from), SimDuration::from_hours(15));
        // A threshold above the peak is never reached.
        assert_eq!(
            tpl.next_time_at_or_above(from, 1e9, SimDuration::from_days(2)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "at least one full week")]
    fn daily_requires_full_week() {
        let short = TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_days(3),
            SimDuration::HOUR,
            |_| 1.0,
        );
        let _ = PowerTemplate::build(&short, TemplateKind::DailyMed);
    }

    #[test]
    fn fill_gaps_interpolates() {
        let filled = fill_gaps(vec![f64::NAN, 1.0, f64::NAN, 3.0]);
        assert_eq!(filled, vec![2.0, 1.0, 1.0, 3.0]); // leading NaN -> mean(1,3)=2
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(TemplateKind::DailyMed.to_string(), "DailyMed");
        assert_eq!(TemplateKind::ALL.len(), 5);
    }
}
