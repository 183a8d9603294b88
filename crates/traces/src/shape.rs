//! Parametric load shapes.
//!
//! A [`LoadShape`] maps a simulated instant to a deterministic *base*
//! utilization in `[0, 1]`; the trace generator adds noise and outlier days
//! on top. The variants cover the patterns the paper describes:
//!
//! * [`LoadShape::Diurnal`] — a daily plateau such as Service A's
//!   "10 am to noon" peak (Fig. 1), with optional weekend attenuation.
//! * [`LoadShape::HourlySpike`] — "5 minutes at the top and bottom of the
//!   hour" load, like Services B and C (Fig. 1).
//! * [`LoadShape::Constant`] — throughput-oriented batch load (MLTrain).
//! * [`LoadShape::Composite`] — weighted mixture of shapes, used when one
//!   VM's activity blends several patterns.

use simcore::time::{SimDuration, SimTime};

/// A deterministic utilization pattern over simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadShape {
    /// Daily plateau between `peak_start_hour` and `peak_end_hour` (fractional
    /// hours, local time), with smooth half-hour ramps on each side.
    Diurnal {
        /// Utilization away from the peak window.
        base: f64,
        /// Utilization at the top of the plateau.
        peak: f64,
        /// Peak window start, in hours from midnight.
        peak_start_hour: f64,
        /// Peak window end, in hours from midnight.
        peak_end_hour: f64,
        /// Multiplier applied on weekends (1.0 = no weekend effect).
        weekend_scale: f64,
    },
    /// Short spikes at fixed offsets within each hour.
    HourlySpike {
        /// Utilization between spikes.
        base: f64,
        /// Utilization during a spike.
        peak: f64,
        /// Spike length in minutes.
        spike_minutes: f64,
        /// Whether a spike fires at the top of the hour (minute 0).
        at_top: bool,
        /// Whether a spike fires at the bottom of the hour (minute 30).
        at_bottom: bool,
        /// Multiplier applied on weekends.
        weekend_scale: f64,
    },
    /// Constant utilization (batch/ML training).
    Constant {
        /// The constant level.
        level: f64,
    },
    /// Weighted mixture of other shapes (weights need not sum to 1; the
    /// result is clamped to `[0, 1]`).
    Composite {
        /// `(weight, shape)` pairs.
        parts: Vec<(f64, LoadShape)>,
    },
}

impl LoadShape {
    /// Base utilization at instant `t`, in `[0, 1]`.
    pub fn utilization(&self, t: SimTime) -> f64 {
        match self {
            LoadShape::Diurnal {
                base,
                peak,
                peak_start_hour,
                peak_end_hour,
                weekend_scale,
            } => {
                let h = t.time_of_day().as_hours_f64();
                let ramp = 0.5; // half-hour ramps
                let level = plateau(h, *peak_start_hour, *peak_end_hour, ramp);
                let u = base + (peak - base) * level;
                scale_weekend(u, t, *weekend_scale)
            }
            LoadShape::HourlySpike {
                base,
                peak,
                spike_minutes,
                at_top,
                at_bottom,
                weekend_scale,
            } => {
                let minute_in_hour = (t.time_of_day().as_micros() % SimDuration::HOUR.as_micros())
                    as f64
                    / SimDuration::MINUTE.as_micros() as f64;
                let in_top = *at_top && minute_in_hour < *spike_minutes;
                let in_bottom =
                    *at_bottom && minute_in_hour >= 30.0 && minute_in_hour < 30.0 + *spike_minutes;
                let u = if in_top || in_bottom { *peak } else { *base };
                scale_weekend(u, t, *weekend_scale)
            }
            LoadShape::Constant { level } => level.clamp(0.0, 1.0),
            LoadShape::Composite { parts } => {
                let u: f64 = parts.iter().map(|(w, s)| w * s.utilization(t)).sum();
                u.clamp(0.0, 1.0)
            }
        }
    }

    /// Convenience constructor: an office-hours diurnal shape with a plateau
    /// between `start` and `end` hours.
    pub(crate) fn office_hours(base: f64, peak: f64, start: f64, end: f64) -> LoadShape {
        LoadShape::Diurnal {
            base,
            peak,
            peak_start_hour: start,
            peak_end_hour: end,
            weekend_scale: 0.5,
        }
    }

    /// Peak (maximum over a representative weekday) of the shape, found by
    /// dense sampling. Useful for normalization and SLO sizing.
    pub(crate) fn weekday_peak(&self) -> f64 {
        // Tuesday avoids any epoch edge effects.
        let day_start = SimTime::ZERO + SimDuration::from_days(1);
        simcore::time::ticks(
            day_start,
            day_start + SimDuration::from_days(1),
            SimDuration::from_minutes(1),
        )
        .map(|t| self.utilization(t))
        .fold(0.0, f64::max)
    }
}

/// Smooth plateau membership: 0 away from `[start, end]`, 1 inside, linear
/// ramps of width `ramp` hours on each side. Handles `start > end` (window
/// wrapping midnight).
fn plateau(h: f64, start: f64, end: f64, ramp: f64) -> f64 {
    let inside = if start <= end {
        h >= start && h <= end
    } else {
        h >= start || h <= end
    };
    if inside {
        return 1.0;
    }
    // Distance to the window, accounting for the 24h wrap.
    let dist_to = |edge: f64| -> f64 {
        let d = (h - edge).abs();
        d.min(24.0 - d)
    };
    let d = dist_to(start).min(dist_to(end));
    (1.0 - d / ramp).max(0.0)
}

fn scale_weekend(u: f64, t: SimTime, weekend_scale: f64) -> f64 {
    let u = if t.weekday().is_weekend() {
        u * weekend_scale
    } else {
        u
    };
    u.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(day: u64, hour: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_days(day) + SimDuration::from_secs_f64(hour * 3600.0)
    }

    #[test]
    fn diurnal_peaks_inside_window() {
        let s = LoadShape::office_hours(0.2, 0.8, 10.0, 12.0);
        assert!((s.utilization(at(1, 11.0)) - 0.8).abs() < 1e-9);
        assert!((s.utilization(at(1, 3.0)) - 0.2).abs() < 1e-9);
        // Ramp region between base and peak.
        let ramp_u = s.utilization(at(1, 9.75));
        assert!(ramp_u > 0.2 && ramp_u < 0.8, "ramp_u = {ramp_u}");
    }

    #[test]
    fn diurnal_weekend_attenuation() {
        let s = LoadShape::office_hours(0.2, 0.8, 10.0, 12.0);
        // Day 5 = Saturday.
        assert!((s.utilization(at(5, 11.0)) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn diurnal_window_wrapping_midnight() {
        let s = LoadShape::Diurnal {
            base: 0.1,
            peak: 0.9,
            peak_start_hour: 22.0,
            peak_end_hour: 2.0,
            weekend_scale: 1.0,
        };
        assert!((s.utilization(at(1, 23.0)) - 0.9).abs() < 1e-9);
        assert!((s.utilization(at(1, 1.0)) - 0.9).abs() < 1e-9);
        assert!((s.utilization(at(1, 12.0)) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn hourly_spike_at_top_and_bottom() {
        let s = LoadShape::HourlySpike {
            base: 0.2,
            peak: 0.9,
            spike_minutes: 5.0,
            at_top: true,
            at_bottom: true,
            weekend_scale: 1.0,
        };
        assert_eq!(s.utilization(at(1, 9.0 + 2.0 / 60.0)), 0.9); // 9:02
        assert_eq!(s.utilization(at(1, 9.0 + 31.0 / 60.0)), 0.9); // 9:31
        assert_eq!(s.utilization(at(1, 9.0 + 15.0 / 60.0)), 0.2); // 9:15
    }

    #[test]
    fn hourly_spike_top_only() {
        let s = LoadShape::HourlySpike {
            base: 0.1,
            peak: 0.7,
            spike_minutes: 5.0,
            at_top: true,
            at_bottom: false,
            weekend_scale: 1.0,
        };
        assert_eq!(s.utilization(at(1, 9.0 + 31.0 / 60.0)), 0.1);
        assert_eq!(s.utilization(at(1, 9.0)), 0.7);
    }

    #[test]
    fn constant_is_flat_and_clamped() {
        assert_eq!(
            LoadShape::Constant { level: 0.5 }.utilization(at(1, 1.0)),
            0.5
        );
        assert_eq!(
            LoadShape::Constant { level: 1.5 }.utilization(at(1, 1.0)),
            1.0
        );
    }

    #[test]
    fn composite_mixes_and_clamps() {
        let s = LoadShape::Composite {
            parts: vec![
                (0.5, LoadShape::Constant { level: 0.4 }),
                (0.5, LoadShape::Constant { level: 0.8 }),
            ],
        };
        assert!((s.utilization(at(1, 0.0)) - 0.6).abs() < 1e-9);
        let over = LoadShape::Composite {
            parts: vec![(2.0, LoadShape::Constant { level: 0.9 })],
        };
        assert_eq!(over.utilization(at(1, 0.0)), 1.0);
    }

    #[test]
    fn weekday_peak_finds_plateau() {
        let s = LoadShape::office_hours(0.2, 0.8, 10.0, 12.0);
        assert!((s.weekday_peak() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn utilization_always_in_unit_interval() {
        let shapes = [
            LoadShape::office_hours(0.0, 1.0, 9.0, 17.0),
            LoadShape::Constant { level: 0.33 },
            LoadShape::HourlySpike {
                base: 0.05,
                peak: 0.95,
                spike_minutes: 5.0,
                at_top: true,
                at_bottom: true,
                weekend_scale: 0.3,
            },
        ];
        for s in &shapes {
            for step in 0..(7 * 24 * 4) {
                let t = SimTime::ZERO + SimDuration::from_minutes(15 * step);
                let u = s.utilization(t);
                assert!((0.0..=1.0).contains(&u), "u = {u} at {t}");
            }
        }
    }
}
