//! The service catalog.
//!
//! Three headline services mirror Fig. 1 of the paper (a communication and
//! collaboration workload): Service A peaks between 10 am and noon; Services
//! B and C spike for five minutes at the top/bottom of each hour. The
//! background catalog populates racks with the ">100 distinct power-hungry
//! services" (§III-Q2) whose statistical multiplexing makes rack power
//! predictable.

use crate::shape::LoadShape;

/// A named service profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceProfile {
    /// Service name.
    pub name: String,
    /// Deterministic base load shape.
    pub shape: LoadShape,
    /// Multiplicative noise sigma applied per sample by the generator.
    pub noise_sigma: f64,
    /// Whether this service's owners request overclocking during peaks.
    pub wants_overclock: bool,
}

impl ServiceProfile {
    /// Build a profile.
    ///
    /// # Panics
    /// Panics if `noise_sigma` is negative.
    pub fn new(
        name: impl Into<String>,
        shape: LoadShape,
        noise_sigma: f64,
        wants_overclock: bool,
    ) -> ServiceProfile {
        assert!(noise_sigma >= 0.0, "noise sigma must be non-negative");
        ServiceProfile {
            name: name.into(),
            shape,
            noise_sigma,
            wants_overclock,
        }
    }
}

/// Service A: morning-peak collaboration service, "10 am to noon" (Fig. 1).
pub fn service_a() -> ServiceProfile {
    ServiceProfile::new(
        "ServiceA",
        LoadShape::Diurnal {
            base: 0.18,
            peak: 0.85,
            peak_start_hour: 10.0,
            peak_end_hour: 12.0,
            weekend_scale: 0.35,
        },
        0.04,
        true,
    )
}

/// Service B: top/bottom-of-the-hour conferencing spikes (Fig. 1).
pub fn service_b() -> ServiceProfile {
    ServiceProfile::new(
        "ServiceB",
        LoadShape::Composite {
            parts: vec![
                (
                    1.0,
                    LoadShape::HourlySpike {
                        base: 0.15,
                        peak: 0.9,
                        spike_minutes: 5.0,
                        at_top: true,
                        at_bottom: true,
                        weekend_scale: 0.4,
                    },
                ),
                (
                    0.25,
                    LoadShape::Diurnal {
                        base: 0.0,
                        peak: 0.4,
                        peak_start_hour: 9.0,
                        peak_end_hour: 17.0,
                        weekend_scale: 0.4,
                    },
                ),
            ],
        },
        0.05,
        true,
    )
}

/// Service C: top/bottom-of-hour spikes whose height follows the working
/// day (Fig. 1; Fig. 17 plots its varying 5-minute peaks).
pub fn service_c() -> ServiceProfile {
    ServiceProfile::new(
        "ServiceC",
        LoadShape::Composite {
            parts: vec![
                (
                    1.0,
                    LoadShape::HourlySpike {
                        base: 0.05,
                        peak: 0.60,
                        spike_minutes: 5.0,
                        at_top: true,
                        at_bottom: true,
                        weekend_scale: 0.35,
                    },
                ),
                (
                    1.0,
                    LoadShape::Diurnal {
                        base: 0.0,
                        peak: 0.35,
                        peak_start_hour: 8.0,
                        peak_end_hour: 18.0,
                        weekend_scale: 0.35,
                    },
                ),
            ],
        },
        0.05,
        true,
    )
}

/// The background-service catalog: a population of heterogeneous profiles
/// used to fill multi-tenant racks. Index `i` deterministically selects a
/// profile; the population cycles after [`background_catalog_len`] entries.
pub(crate) fn background_service(i: usize) -> ServiceProfile {
    let variants: Vec<ServiceProfile> = vec![
        ServiceProfile::new(
            "web-frontend",
            LoadShape::office_hours(0.15, 0.7, 9.0, 18.0),
            0.05,
            false,
        ),
        ServiceProfile::new(
            "batch-analytics",
            LoadShape::Diurnal {
                base: 0.6,
                peak: 0.85,
                peak_start_hour: 22.0,
                peak_end_hour: 4.0,
                weekend_scale: 1.0,
            },
            0.03,
            false,
        ),
        ServiceProfile::new(
            "ml-training",
            LoadShape::Constant { level: 0.82 },
            0.02,
            false,
        ),
        ServiceProfile::new(
            "search-index",
            LoadShape::office_hours(0.25, 0.6, 8.0, 20.0),
            0.06,
            false,
        ),
        ServiceProfile::new(
            "video-stream",
            LoadShape::Diurnal {
                base: 0.2,
                peak: 0.75,
                peak_start_hour: 18.0,
                peak_end_hour: 23.0,
                weekend_scale: 1.2,
            },
            0.05,
            false,
        ),
        ServiceProfile::new(
            "kv-store",
            LoadShape::office_hours(0.3, 0.55, 7.0, 22.0),
            0.04,
            false,
        ),
        ServiceProfile::new(
            "report-gen",
            LoadShape::HourlySpike {
                base: 0.1,
                peak: 0.6,
                spike_minutes: 10.0,
                at_top: true,
                at_bottom: false,
                weekend_scale: 0.2,
            },
            0.05,
            false,
        ),
        ServiceProfile::new(
            "ci-runners",
            LoadShape::office_hours(0.1, 0.65, 8.0, 19.0),
            0.09,
            false,
        ),
        ServiceProfile::new("low-idle", LoadShape::Constant { level: 0.12 }, 0.03, false),
        ServiceProfile::new(
            "apac-frontend",
            LoadShape::Diurnal {
                base: 0.15,
                peak: 0.7,
                peak_start_hour: 1.0,
                peak_end_hour: 9.0,
                weekend_scale: 0.5,
            },
            0.05,
            false,
        ),
    ];
    variants[i % variants.len()].clone()
}

/// Number of distinct background profiles before the catalog repeats.
pub(crate) fn background_catalog_len() -> usize {
    10
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{SimDuration, SimTime};

    #[test]
    fn service_a_peaks_mid_morning() {
        let p = service_a();
        let t_peak = SimTime::ZERO + SimDuration::from_days(1) + SimDuration::from_hours(11);
        let t_night = SimTime::ZERO + SimDuration::from_days(1) + SimDuration::from_hours(3);
        assert!(p.shape.utilization(t_peak) > 0.8);
        assert!(p.shape.utilization(t_night) < 0.25);
    }

    #[test]
    fn services_b_c_spike_on_the_hour() {
        for p in [service_b(), service_c()] {
            let on_hour = SimTime::ZERO + SimDuration::from_days(1) + SimDuration::from_hours(14);
            let off_peak = on_hour + SimDuration::from_minutes(15);
            assert!(
                p.shape.utilization(on_hour) > 2.0 * p.shape.utilization(off_peak),
                "{} should spike at the top of the hour",
                p.name
            );
        }
    }

    #[test]
    fn headline_services_want_overclock() {
        assert!(service_a().wants_overclock);
        assert!(service_b().wants_overclock);
        assert!(service_c().wants_overclock);
    }

    #[test]
    fn background_catalog_cycles_deterministically() {
        let a = background_service(3);
        let b = background_service(3 + background_catalog_len());
        assert_eq!(a, b);
        // Distinct entries differ.
        assert_ne!(background_service(0).name, background_service(1).name);
    }

    #[test]
    fn background_services_do_not_overclock() {
        for i in 0..background_catalog_len() {
            assert!(!background_service(i).wants_overclock);
        }
    }

    #[test]
    fn catalog_has_heterogeneous_peak_times() {
        // At 3am, night-batch services are busy while office services are not —
        // the heterogeneity that creates statistical multiplexing (§III-Q2).
        let night = SimTime::ZERO + SimDuration::from_days(1) + SimDuration::from_hours(3);
        let batch = background_service(1); // batch-analytics
        let office = background_service(0); // web-frontend
        assert!(batch.shape.utilization(night) > 0.5);
        assert!(office.shape.utilization(night) < 0.3);
    }
}
