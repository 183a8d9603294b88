//! The eight SocialNet-like microservice specifications.
//!
//! Figs. 2–3 of the paper run eight SocialNet microservices with visibly
//! different SLO sensitivity: "some services (e.g., Usr) can tolerate higher
//! CPU utilization without violating their SLO while other services (e.g.,
//! UrlShort) violate their SLO even under low CPU utilization" (§III-Q1).
//! Tail sensitivity in a queueing system is governed by service-time
//! variability, so the catalog below varies the coefficient of variation
//! (CV) from nearly deterministic (Usr) to heavy-tailed (UrlShort).

use crate::microservice::ServiceSpec;

/// Load levels used across the evaluation (fraction of a single VM's turbo
/// capacity offered as arrivals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadLevel {
    /// ~30 % of turbo capacity.
    Low,
    /// ~55 % of turbo capacity.
    Medium,
    /// ~82 % of turbo capacity.
    High,
}

impl LoadLevel {
    /// All levels, low to high.
    pub const ALL: [LoadLevel; 3] = [LoadLevel::Low, LoadLevel::Medium, LoadLevel::High];

    /// The offered load as a fraction of single-VM turbo capacity.
    pub fn fraction(self) -> f64 {
        match self {
            LoadLevel::Low => 0.30,
            LoadLevel::Medium => 0.55,
            LoadLevel::High => 0.82,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LoadLevel::Low => "Low",
            LoadLevel::Medium => "Medium",
            LoadLevel::High => "High",
        }
    }
}

impl std::fmt::Display for LoadLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The eight SocialNet microservices of Figs. 2–3.
///
/// Ordering is stable; names follow the paper's figure labels.
pub fn socialnet_services() -> Vec<ServiceSpec> {
    vec![
        // name, mean service ms at turbo, CV, cores per VM
        ServiceSpec::new("ComposePost", 24.0, 0.90, 4),
        ServiceSpec::new("HomeTimeline", 18.0, 0.80, 4),
        ServiceSpec::new("UserTimeline", 16.0, 0.75, 4),
        ServiceSpec::new("UrlShort", 6.0, 2.60, 4), // heavy tail: misses SLO at low util
        ServiceSpec::new("UserMention", 10.0, 0.85, 4),
        ServiceSpec::new("Text", 8.0, 0.70, 4),
        ServiceSpec::new("Media", 30.0, 0.85, 4),
        ServiceSpec::new("Usr", 5.0, 0.35, 4), // near-deterministic: tolerates high util
    ]
}

/// Look up a SocialNet service by name.
pub fn socialnet_service(name: &str) -> Option<ServiceSpec> {
    socialnet_services().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::RateSchedule;
    use crate::microservice::{MicroserviceSim, Traffic};
    use simcore::time::SimTime;
    use soc_power::units::MegaHertz;

    #[test]
    fn catalog_has_eight_services() {
        let services = socialnet_services();
        assert_eq!(services.len(), 8);
        let names: Vec<&str> = services.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"UrlShort"));
        assert!(names.contains(&"Usr"));
    }

    #[test]
    fn lookup_by_name() {
        assert!(socialnet_service("Media").is_some());
        assert!(socialnet_service("Nope").is_none());
    }

    #[test]
    fn load_levels_are_ordered() {
        assert!(LoadLevel::Low.fraction() < LoadLevel::Medium.fraction());
        assert!(LoadLevel::Medium.fraction() < LoadLevel::High.fraction());
    }

    #[test]
    fn urlshort_is_tail_sensitive_usr_is_not() {
        // The paper's Q1 heterogeneity: at the same moderate utilization,
        // UrlShort misses its SLO while Usr is comfortably within it.
        let turbo = MegaHertz::new(3300);
        let run = |spec: crate::microservice::ServiceSpec, load: f64| {
            let rate = RateSchedule::constant(load * spec.capacity_per_vm(1.0));
            let mut traffic = Traffic::new(&spec, rate, 31);
            let mut sim = MicroserviceSim::new(spec, turbo, 1);
            let (warm, end) = (SimTime::from_secs(60), SimTime::from_secs(300));
            let _ = sim.advance_window(warm, traffic.fill(warm), &mut Vec::new());
            sim.advance_window(end, traffic.fill(end), &mut Vec::new())
        };
        let url = run(socialnet_service("UrlShort").unwrap(), 0.55);
        let usr = run(socialnet_service("Usr").unwrap(), 0.80);
        let url_ratio = url.p99_ms / socialnet_service("UrlShort").unwrap().slo_ms();
        let usr_ratio = usr.p99_ms / socialnet_service("Usr").unwrap().slo_ms();
        assert!(
            url_ratio > 1.0,
            "UrlShort at 55% load should violate its SLO (ratio {url_ratio})"
        );
        assert!(
            usr_ratio < 1.0,
            "Usr at 80% load should meet its SLO (ratio {usr_ratio})"
        );
    }
}
