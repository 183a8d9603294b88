//! Overclocking-threshold inference from workload history.
//!
//! "To ease adoption, SmartOClock can be extended to infer the overclocking
//! thresholds. It can leverage workload historical data to determine
//! scale-up values. The lifetime impact of overclocking can be factored in
//! this analysis. For example, use P90 of historical value if overclocking
//! can be performed for 10% of the time only to comply with lifetime goals.
//! The overclocking impact needs to be estimated to determine the
//! scale-down value. An inaccurate estimate can either cause dithering if it
//! is too close to the scale-up threshold or waste precious overclocking
//! time if the estimate is too low." (paper §IV-A)

use crate::wi::{MetricKind, MetricTrigger};
use std::fmt;

/// Configuration for threshold inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceConfig {
    /// Fraction of time the lifetime budget allows overclocking
    /// (e.g. 0.10 → the scale-up threshold is the P90 of history).
    pub overclock_time_fraction: f64,
    /// Estimated metric improvement factor from overclocking (e.g. a
    /// latency metric shrinking to `1/speedup` of its value). Used to place
    /// the scale-down threshold below the scale-up threshold with enough
    /// hysteresis to avoid dithering.
    pub estimated_speedup: f64,
    /// Extra hysteresis margin between the estimated post-overclocking
    /// metric and the scale-down threshold, as a fraction of the scale-up
    /// threshold.
    pub hysteresis_margin: f64,
}

impl InferenceConfig {
    /// The paper-flavored default: 10 % overclocking time, the 3.3→4.0 GHz
    /// speedup (≈1.2×), and a 10 % hysteresis margin.
    pub fn reference() -> InferenceConfig {
        InferenceConfig {
            overclock_time_fraction: 0.10,
            estimated_speedup: 4000.0 / 3300.0,
            hysteresis_margin: 0.10,
        }
    }

    fn validate(&self) {
        assert!(
            self.overclock_time_fraction > 0.0 && self.overclock_time_fraction < 1.0,
            "overclock time fraction must be in (0, 1)"
        );
        assert!(self.estimated_speedup > 1.0, "speedup must exceed 1");
        assert!(
            (0.0..1.0).contains(&self.hysteresis_margin),
            "hysteresis margin must be in [0, 1)"
        );
    }
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig::reference()
    }
}

/// Why [`infer_trigger`] could not place thresholds on a history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InferError {
    /// The history has no samples at all.
    EmptyHistory,
    /// Every sample is NaN or infinite.
    NoFiniteSamples,
    /// The scale-up quantile is not a positive (normal) number — e.g. an
    /// idle service whose queue length was always zero — so no scale-down
    /// threshold fits strictly below it.
    NonPositiveQuantile(f64),
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::EmptyHistory => {
                f.write_str("cannot infer thresholds from an empty history")
            }
            InferError::NoFiniteSamples => f.write_str("history contains no finite samples"),
            InferError::NonPositiveQuantile(q) => {
                write!(
                    f,
                    "scale-up quantile {q} is not positive; no hysteresis fits below it"
                )
            }
        }
    }
}

impl std::error::Error for InferError {}

/// Infer a [`MetricTrigger`] from a workload's metric history.
///
/// The scale-up threshold is the `(1 − overclock_time_fraction)` quantile of
/// the history, so that triggering on it overclocks for approximately the
/// budgeted fraction of time. The scale-down threshold is the scale-up
/// value divided by the estimated speedup, lowered further by the hysteresis
/// margin (too-close thresholds dither; §IV-A).
///
/// # Errors
/// Returns an [`InferError`] if `history` is empty, has no finite samples,
/// or its scale-up quantile is not positive.
///
/// # Panics
/// Panics if the configuration is invalid.
///
/// ```
/// use smartoclock::infer::{infer_trigger, InferenceConfig};
/// use smartoclock::wi::MetricKind;
///
/// // P99 latency history in ms: mostly ~60, peaks to ~120 for ~10% of time.
/// let mut history = vec![60.0; 90];
/// history.extend(vec![120.0; 10]);
/// let trigger = infer_trigger(MetricKind::TailLatencyMs, &history, InferenceConfig::reference())?;
/// assert!(trigger.scale_up > 60.0 && trigger.scale_up <= 120.0);
/// assert!(trigger.scale_down < trigger.scale_up);
/// # Ok::<(), smartoclock::infer::InferError>(())
/// ```
pub fn infer_trigger(
    kind: MetricKind,
    history: &[f64],
    config: InferenceConfig,
) -> Result<MetricTrigger, InferError> {
    config.validate();
    if history.is_empty() {
        return Err(InferError::EmptyHistory);
    }
    let clean: Vec<f64> = history.iter().copied().filter(|v| v.is_finite()).collect();
    if clean.is_empty() {
        return Err(InferError::NoFiniteSamples);
    }
    let q = (1.0 - config.overclock_time_fraction) * 100.0;
    let scale_up = simcore::stats::percentile(&clean, q);
    // Below the smallest normal the 0.95 cap can round back onto scale_up.
    if scale_up < f64::MIN_POSITIVE {
        return Err(InferError::NonPositiveQuantile(scale_up));
    }
    let post_overclock = scale_up / config.estimated_speedup;
    let scale_down = (post_overclock - config.hysteresis_margin * scale_up)
        .max(f64::MIN_POSITIVE)
        .min(scale_up * 0.95);
    Ok(MetricTrigger::new(kind, scale_up, scale_down))
}

/// Expected fraction of time the inferred trigger would have been active
/// over the same history (a sanity metric for operators adopting inferred
/// thresholds, §IV-A).
pub fn expected_duty_cycle(history: &[f64], trigger: MetricTrigger) -> f64 {
    if history.is_empty() {
        return 0.0;
    }
    let over = history.iter().filter(|&&v| v > trigger.scale_up).count();
    over as f64 / history.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Pcg32;

    fn diurnal_history() -> Vec<f64> {
        // 7 days of 5-minute P99 samples: ~50 ms base, ~110 ms during a
        // 2.4-hour daily peak (10% of the day), light noise.
        let mut rng = Pcg32::seed_from_u64(3);
        let mut out = Vec::new();
        for day in 0..7 {
            let _ = day;
            for slot in 0..288 {
                let hour = slot as f64 / 12.0;
                let peak = (10.0..12.4).contains(&hour);
                let base = if peak { 110.0 } else { 50.0 };
                out.push(base + rng.sample_normal(0.0, 2.0));
            }
        }
        out
    }

    #[test]
    fn inferred_duty_cycle_matches_budget() {
        let history = diurnal_history();
        let cfg = InferenceConfig::reference();
        let trigger = infer_trigger(MetricKind::TailLatencyMs, &history, cfg).unwrap();
        let duty = expected_duty_cycle(&history, trigger);
        assert!(
            (duty - cfg.overclock_time_fraction).abs() < 0.03,
            "duty cycle {duty} should be near the 10% budget"
        );
        // The threshold lands between base and peak levels.
        assert!(trigger.scale_up > 60.0 && trigger.scale_up < 115.0);
    }

    #[test]
    fn scale_down_leaves_hysteresis() {
        let history = diurnal_history();
        let trigger = infer_trigger(
            MetricKind::TailLatencyMs,
            &history,
            InferenceConfig::reference(),
        )
        .unwrap();
        // Post-overclock estimate of the peak: peak/1.21 ≈ 91; scale-down
        // must be at or below that minus the margin.
        assert!(trigger.scale_down < trigger.scale_up / 1.2);
    }

    #[test]
    fn tighter_budget_raises_threshold() {
        let history = diurnal_history();
        let mut tight = InferenceConfig::reference();
        tight.overclock_time_fraction = 0.05;
        let loose_trigger = infer_trigger(
            MetricKind::TailLatencyMs,
            &history,
            InferenceConfig::reference(),
        )
        .unwrap();
        let tight_trigger = infer_trigger(MetricKind::TailLatencyMs, &history, tight).unwrap();
        assert!(tight_trigger.scale_up >= loose_trigger.scale_up);
    }

    #[test]
    fn nan_samples_are_ignored() {
        let mut history = diurnal_history();
        history.push(f64::NAN);
        let trigger = infer_trigger(
            MetricKind::TailLatencyMs,
            &history,
            InferenceConfig::reference(),
        )
        .unwrap();
        assert!(trigger.scale_up.is_finite());
    }

    #[test]
    fn rejects_empty_history() {
        assert_eq!(
            infer_trigger(MetricKind::TailLatencyMs, &[], InferenceConfig::reference()),
            Err(InferError::EmptyHistory)
        );
    }

    #[test]
    fn rejects_history_without_finite_samples() {
        assert_eq!(
            infer_trigger(
                MetricKind::TailLatencyMs,
                &[f64::NAN, f64::INFINITY],
                InferenceConfig::reference()
            ),
            Err(InferError::NoFiniteSamples)
        );
    }

    #[test]
    fn all_zero_history_is_an_error_not_a_panic() {
        // An idle service's queue length: the P90 is 0, so no scale-down
        // threshold fits below it.
        assert_eq!(
            infer_trigger(
                MetricKind::QueueLength,
                &[0.0; 50],
                InferenceConfig::reference()
            ),
            Err(InferError::NonPositiveQuantile(0.0))
        );
        let negative = infer_trigger(
            MetricKind::CpuUtilization,
            &[-1.0; 10],
            InferenceConfig::reference(),
        );
        assert!(matches!(negative, Err(InferError::NonPositiveQuantile(q)) if q < 0.0));
        assert!(InferError::NonPositiveQuantile(0.0)
            .to_string()
            .contains("not positive"));
    }
}
