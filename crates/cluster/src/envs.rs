//! Single-service environment runners (Figs. 2, 3, 16, 17).
//!
//! "We run eight SocialNet microservices under varying loads (low, medium,
//! and high) in three environments: Baseline, Overclock, and ScaleOut.
//! Baseline and Overclock run a single VM at turbo (3.3 GHz) and overclocked
//! (4.0 GHz) frequency. ScaleOut has two VMs running at turbo." (§III-Q1)

use simcore::time::{SimDuration, SimTime};
use soc_power::freq::FrequencyPlan;
use soc_power::units::MegaHertz;
use soc_workloads::loadgen::RateSchedule;
use soc_workloads::microservice::{MicroserviceSim, ServiceSpec};
use soc_workloads::socialnet::LoadLevel;

/// The three environments of Figs. 2–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// One VM at max turbo.
    Baseline,
    /// One VM overclocked to the max overclocking frequency.
    Overclock,
    /// Two VMs at max turbo (provisioned for peak).
    ScaleOut,
}

impl Environment {
    /// All environments in figure order.
    pub const ALL: [Environment; 3] = [
        Environment::Baseline,
        Environment::Overclock,
        Environment::ScaleOut,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Environment::Baseline => "Baseline",
            Environment::Overclock => "Overclock",
            Environment::ScaleOut => "ScaleOut",
        }
    }

    /// VM count and frequency for a given plan.
    pub fn setup(self, plan: FrequencyPlan) -> (usize, MegaHertz) {
        match self {
            Environment::Baseline => (1, plan.turbo()),
            Environment::Overclock => (1, plan.max_overclock()),
            Environment::ScaleOut => (2, plan.turbo()),
        }
    }
}

impl std::fmt::Display for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of one service × load × environment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceRunResult {
    /// P99 latency, ms.
    pub p99_ms: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Mean CPU utilization of the VMs.
    pub cpu_utilization: f64,
    /// Fraction of requests above the SLO.
    pub slo_miss_frac: f64,
    /// The SLO, for normalization.
    pub slo_ms: f64,
}

impl ServiceRunResult {
    /// Whether the run kept P99 below the SLO.
    pub fn meets_slo(&self) -> bool {
        self.p99_ms <= self.slo_ms
    }
}

/// Run one service at a load level in an environment.
///
/// The offered arrival rate is `load × single-VM turbo capacity` in every
/// environment (ScaleOut spreads the *same* load over two VMs, as in the
/// paper where provisioning is for the peak).
pub fn run_environment(
    spec: &ServiceSpec,
    load: LoadLevel,
    env: Environment,
    plan: FrequencyPlan,
    measure: SimDuration,
    seed: u64,
) -> ServiceRunResult {
    let rate = load.fraction() * spec.capacity_per_vm(1.0);
    run_at_rate(spec, rate, env, plan, measure, seed)
}

/// Run one service at an explicit request rate (requests/second) — the
/// Fig. 16 sweep.
pub fn run_at_rate(
    spec: &ServiceSpec,
    rate_rps: f64,
    env: Environment,
    plan: FrequencyPlan,
    measure: SimDuration,
    seed: u64,
) -> ServiceRunResult {
    let (vms, freq) = env.setup(plan);
    let schedule = RateSchedule::constant(rate_rps);
    let mut sim = MicroserviceSim::new(spec.clone(), plan.turbo(), schedule, vms, seed);
    sim.set_all_frequencies(freq);
    // Warm-up: a quarter of the measurement interval.
    let warmup = SimTime::ZERO + measure.mul_f64(0.25);
    let _ = sim.advance_window(warmup);
    let stats = sim.advance_window(warmup + measure);
    ServiceRunResult {
        p99_ms: stats.p99_ms,
        mean_ms: stats.mean_ms,
        cpu_utilization: stats.cpu_utilization,
        slo_miss_frac: stats.slo_miss_frac,
        slo_ms: spec.slo_ms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_workloads::socialnet::socialnet_service;

    fn quick(spec_name: &str, load: LoadLevel, env: Environment) -> ServiceRunResult {
        let spec = socialnet_service(spec_name).unwrap();
        run_environment(
            &spec,
            load,
            env,
            FrequencyPlan::amd_reference(),
            SimDuration::from_secs(120),
            7,
        )
    }

    #[test]
    fn environments_set_expected_topology() {
        let plan = FrequencyPlan::amd_reference();
        assert_eq!(Environment::Baseline.setup(plan), (1, MegaHertz::new(3300)));
        assert_eq!(
            Environment::Overclock.setup(plan),
            (1, MegaHertz::new(4000))
        );
        assert_eq!(Environment::ScaleOut.setup(plan), (2, MegaHertz::new(3300)));
    }

    #[test]
    fn all_environments_fine_at_low_load() {
        for env in Environment::ALL {
            let r = quick("UserTimeline", LoadLevel::Low, env);
            assert!(
                r.meets_slo(),
                "{env} should meet SLO at low load (p99 {})",
                r.p99_ms
            );
        }
    }

    #[test]
    fn overclock_beats_baseline_at_high_load() {
        let base = quick("ComposePost", LoadLevel::High, Environment::Baseline);
        let oc = quick("ComposePost", LoadLevel::High, Environment::Overclock);
        assert!(
            oc.p99_ms < base.p99_ms,
            "overclock P99 {} should beat baseline {}",
            oc.p99_ms,
            base.p99_ms
        );
    }

    #[test]
    fn scale_out_has_lowest_utilization() {
        let base = quick("HomeTimeline", LoadLevel::Medium, Environment::Baseline);
        let scale = quick("HomeTimeline", LoadLevel::Medium, Environment::ScaleOut);
        assert!(scale.cpu_utilization < base.cpu_utilization);
    }

    #[test]
    fn overclock_lowers_cpu_utilization() {
        // Fig. 16 effect at fixed RPS.
        let base = quick("Text", LoadLevel::Medium, Environment::Baseline);
        let oc = quick("Text", LoadLevel::Medium, Environment::Overclock);
        assert!(oc.cpu_utilization < base.cpu_utilization);
    }
}
