//! The synthetic fleet generator.
//!
//! Generates per-server CPU-utilization and baseline power traces with the
//! statistical structure the paper's analysis depends on:
//!
//! * **Multi-tenancy** — "Each server hosts many small VMs (2-8 cores)"
//!   belonging to different services with different peak times (§III-Q2).
//! * **Diurnal repeatability** — "due to statistical multiplexing, the
//!   combined power consumption of the rack with heterogeneous services shows
//!   a repeatable pattern" (§III-Q3), perturbed by per-sample noise and
//!   occasional outlier days (holidays) that stress the *Weekly* template.
//! * **Server heterogeneity** — servers in the same rack differ by tens of
//!   percent and the power-dominant server changes over time (§III-Q4,
//!   Fig. 9).
//! * **Oversubscribed limits** — rack limits are provisioned below the sum
//!   of server peaks (§II), drawn per rack so the fleet reproduces the
//!   utilization spread of Fig. 5.

use crate::fleet::{CpuGeneration, FleetTrace, RackTrace, ServerTrace};
use crate::services::{
    background_catalog_len, background_service, service_a, service_b, service_c, ServiceProfile,
};
use simcore::rng::Pcg32;
use simcore::series::TimeSeries;
use simcore::time::{SimDuration, SimTime};
use soc_power::model::PowerModel;
use soc_power::units::Watts;
use std::sync::LazyLock;

/// Configuration for fleet generation.
///
/// The paper's fleet shares are fixed, not settings: 45 % of VM cores
/// request overclocking, 40 % of racks are Intel, and 5 % of VMs churn per
/// week.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Region label.
    pub region: String,
    /// Number of racks to generate.
    pub racks: usize,
    /// Minimum servers per rack (inclusive). Paper: "each rack has 24-32
    /// servers".
    pub servers_per_rack_min: usize,
    /// Maximum servers per rack (inclusive).
    pub servers_per_rack_max: usize,
    /// Trace span.
    pub span: SimDuration,
    /// Sampling step (paper: 5 minutes).
    pub step: SimDuration,
    /// Nameplate oversubscription range `(lo, hi)`: the rack limit is the
    /// servers' combined full-load (nameplate) power divided by a ratio
    /// drawn uniformly from this range — how providers actually size rack
    /// budgets (§II). The default range reproduces the Fig. 5 spread
    /// (paper: 50 %/90 % of racks have P99 utilization below 0.73/0.89).
    pub oversubscription: (f64, f64),
    /// Probability that any given day is an outlier (holiday) for a rack,
    /// scaling that day's utilization down.
    pub outlier_day_prob: f64,
    /// Whether to retain per-server series (memory heavy for large fleets).
    pub keep_server_series: bool,
}

impl FleetConfig {
    /// A small config suitable for unit tests: 2 racks, 1 week, 15-minute
    /// sampling.
    pub fn small_test() -> FleetConfig {
        FleetConfig {
            region: "test".into(),
            racks: 2,
            servers_per_rack_min: 4,
            servers_per_rack_max: 6,
            span: SimDuration::WEEK,
            step: SimDuration::from_minutes(15),
            oversubscription: (1.30, 1.80),
            outlier_day_prob: 0.05,
            keep_server_series: true,
        }
    }

    /// The paper-shaped config: 24-32 servers per rack, 5-minute sampling,
    /// six weeks. Rack count is a parameter because the experiments scale it.
    pub fn paper_reference(racks: usize) -> FleetConfig {
        FleetConfig {
            region: "region-1".into(),
            racks,
            servers_per_rack_min: 24,
            servers_per_rack_max: 32,
            span: SimDuration::WEEK * 6,
            step: SimDuration::from_minutes(5),
            oversubscription: (1.30, 1.80),
            outlier_day_prob: 0.04,
            keep_server_series: false,
        }
    }

    /// Number of samples in a trace: one per tick in `[0, span)`.
    fn samples(&self) -> usize {
        self.span.as_micros().div_ceil(self.step.as_micros()) as usize
    }

    fn validate(&self) {
        assert!(self.racks > 0, "need at least one rack");
        assert!(
            self.servers_per_rack_min >= 1
                && self.servers_per_rack_min <= self.servers_per_rack_max,
            "invalid servers-per-rack range"
        );
        assert!(
            !self.span.is_zero() && !self.step.is_zero(),
            "span and step must be non-zero"
        );
        assert!(
            self.step
                .as_micros()
                .is_multiple_of(SimDuration::MINUTE.as_micros()),
            "step must be a whole number of minutes"
        );
        assert!(
            self.oversubscription.0 >= 1.0 && self.oversubscription.0 <= self.oversubscription.1,
            "invalid oversubscription range"
        );
        assert!(
            (0.0..=1.0).contains(&self.outlier_day_prob),
            "outlier probability must be in [0, 1]"
        );
    }
}

/// Fraction of VM cores belonging to overclock-requesting services
/// (paper: "45% of deployed cores" for the first-party customer).
const OC_CORE_FRACTION: f64 = 0.45;

/// Fraction of racks with Intel-generation servers (§V-B: datacenters hold
/// "servers with either Intel or AMD CPUs").
const INTEL_FRACTION: f64 = 0.4;

/// Weekly probability that a VM is retired and replaced by a fresh VM of a
/// (possibly different) service — the "dynamicity of cloud platforms (e.g.,
/// VM churn)" the paper's dataset reflects (§III-Q3). Long-lived VMs
/// dominate in production ("long-lived VMs account for >95% of allocated
/// resources"), so it is low.
const VM_CHURN_WEEKLY: f64 = 0.05;

/// Minutes in a week, the period of every load shape.
const MINUTES_PER_WEEK: usize =
    (SimDuration::WEEK.as_micros() / SimDuration::MINUTE.as_micros()) as usize;

/// Number of catalog services that request overclocking: A, B and C.
const OC_SERVICES: usize = 3;

/// One catalog service, with its load shape tabulated once per minute of
/// the week.
#[derive(Debug)]
struct Service {
    noise_sigma: f64,
    wants_overclock: bool,
    /// `shape.weekday_peak()`.
    weekday_peak: f64,
    /// `shape.utilization` at every minute of the week. A shape reads only
    /// the time of day and the weekday of its instant, so entry `m` is
    /// exact at minute `m` of any week.
    week: Vec<f64>,
}

impl Service {
    fn new(profile: &ServiceProfile) -> Service {
        let week = (0..MINUTES_PER_WEEK as u64)
            .map(|m| {
                profile
                    .shape
                    .utilization(SimTime::ZERO + SimDuration::from_minutes(m))
            })
            .collect();
        Service {
            noise_sigma: profile.noise_sigma,
            wants_overclock: profile.wants_overclock,
            weekday_peak: profile.shape.weekday_peak(),
            week,
        }
    }

    /// Base utilization `phase` minutes after minute `minute` of the week:
    /// `shape.utilization(t + phase)` for any `t` at that minute. The index
    /// is reduced modulo `MINUTES_PER_WEEK`, the length `Service::new` gives
    /// `week`, so the `0.0` fallback is never taken.
    fn at_minute(&self, minute: usize, phase: usize) -> f64 {
        self.week
            .get((minute + phase) % MINUTES_PER_WEEK)
            .copied()
            .unwrap_or(0.0)
    }
}

/// The services VMs are drawn from, in draw order: A, B, C, then
/// [`background_service`]`(0..background_catalog_len())`.
#[derive(Debug)]
struct Catalog {
    services: Vec<Service>,
}

impl Catalog {
    fn new() -> Catalog {
        let services = [service_a(), service_b(), service_c()]
            .into_iter()
            .chain((0..background_catalog_len()).map(background_service))
            .map(|profile| Service::new(&profile))
            .collect();
        Catalog { services }
    }

    /// The service at catalog index `index`.
    ///
    /// # Panics
    /// Panics if `index` is past the end of the catalog.
    fn service(&self, index: usize) -> &Service {
        &self.services[index]
    }

    /// The catalog index of background service `i`.
    fn background(i: usize) -> usize {
        OC_SERVICES + i
    }
}

/// The catalog every generator draws from. It depends on no input, so it is
/// built once per process, on first use.
static CATALOG: LazyLock<Catalog> = LazyLock::new(Catalog::new);

/// One VM placed on a generated server.
#[derive(Debug, Clone)]
struct VmSpec {
    cores: usize,
    /// Index of the VM's service in the [`Catalog`].
    service: usize,
    /// Per-VM load multiplier (instances of the same service differ).
    load_scale: f64,
    /// Phase offset applied to the shape, in minutes — different tenants of
    /// the same service are not perfectly synchronized.
    phase: usize,
    /// Trigger utilization above which this VM requests overclocking.
    oc_trigger: f64,
    /// When this VM is retired and replaced (churn), if ever.
    replaced_at: Option<SimTime>,
    /// The replacement VM's behaviour after churn (boxed to keep the spec
    /// small; at most one replacement per slot per trace).
    replacement: Option<Box<VmSpec>>,
}

/// Deterministic synthetic trace generator.
///
/// ```
/// use soc_traces::gen::{FleetConfig, TraceGenerator};
///
/// let fleet = TraceGenerator::new(42).generate(&FleetConfig::small_test());
/// assert_eq!(fleet.racks.len(), 2);
/// let rack = &fleet.racks[0];
/// assert!(rack.mean_utilization() > 0.2 && rack.mean_utilization() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    seed: u64,
    model: PowerModel,
}

impl TraceGenerator {
    /// Create a generator with the reference server power model (used for
    /// AMD-generation racks; Intel racks use
    /// [`PowerModel::intel_reference_server`]).
    pub fn new(seed: u64) -> TraceGenerator {
        TraceGenerator {
            seed,
            model: PowerModel::reference_server(),
        }
    }

    /// The power model AMD-generation servers are generated with.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// The power model used for racks of the given generation.
    pub fn model_for(&self, generation: CpuGeneration) -> PowerModel {
        match generation {
            CpuGeneration::Amd => self.model,
            CpuGeneration::Intel => PowerModel::intel_reference_server(),
        }
    }

    /// Generate a whole fleet.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn generate(&self, config: &FleetConfig) -> FleetTrace {
        config.validate();
        let mut rng = Pcg32::new(self.seed, region_stream(&config.region));
        let racks = (0..config.racks)
            .map(|rack_idx| self.generate_rack_inner(config, rack_idx, &mut rng))
            .collect();
        FleetTrace {
            region: config.region.clone(),
            racks,
        }
    }

    /// Generate a single rack (rack `rack_idx` of the fleet `config`
    /// describes). Deterministic: the same `(seed, region, rack_idx)` always
    /// produces the same rack regardless of which other racks are generated.
    pub fn generate_rack(&self, config: &FleetConfig, rack_idx: usize) -> RackTrace {
        config.validate();
        let mut rng = Pcg32::new(
            self.seed ^ (rack_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            region_stream(&config.region),
        );
        self.generate_rack_inner(config, rack_idx, &mut rng)
    }

    fn generate_rack_inner(
        &self,
        config: &FleetConfig,
        rack_idx: usize,
        rng: &mut Pcg32,
    ) -> RackTrace {
        let mut rack_rng = rng.fork(rack_idx as u64 + 1);
        let generation = if rack_rng.gen_bool(INTEL_FRACTION) {
            CpuGeneration::Intel
        } else {
            CpuGeneration::Amd
        };
        let model = self.model_for(generation);
        let n_servers = rack_rng.gen_range_u64(
            config.servers_per_rack_min as u64,
            config.servers_per_rack_max as u64 + 1,
        ) as usize;

        // Pick this rack's outlier (holiday) days up front.
        let days = (config.span.as_days_f64().ceil() as u64).max(1);
        let outlier_days: Vec<bool> = (0..days)
            .map(|_| rack_rng.gen_bool(config.outlier_day_prob))
            .collect();

        let mut server_traces = Vec::with_capacity(n_servers);
        // Starting the sum at zero is exact: `0.0 + p == p` for the first
        // server's (positive) draw.
        let mut rack_power = vec![0.0; config.samples()];

        for server_idx in 0..n_servers {
            let mut srv_rng = rack_rng.fork(server_idx as u64 + 101);
            let vms = self.place_vms(&model, config, &mut srv_rng);
            let (util, power, oc_cores) =
                self.simulate_server(&model, config, &vms, &outlier_days, &mut srv_rng);

            for (a, p) in rack_power.iter_mut().zip(power.values()) {
                *a += p;
            }
            if config.keep_server_series {
                server_traces.push(ServerTrace {
                    index: server_idx,
                    utilization: util,
                    power,
                    oc_demand_cores: oc_cores,
                });
            }
        }

        let oversub = rack_rng.gen_range_f64(config.oversubscription.0, config.oversubscription.1);
        let power = TimeSeries::from_values(SimTime::ZERO, config.step, rack_power);
        // The limit is the nameplate (full-load) capacity divided by the
        // oversubscription ratio, floored a hair above the observed baseline
        // peak: the baseline (non-overclocked) rack never caps on its own —
        // in the paper capping only appears once overclocking is added
        // (Fig. 6).
        let nameplate = model.server_power_uniform(1.0, model.plan().turbo()) * n_servers as f64;
        let limit = (nameplate / oversub).max(Watts::new(power.max() * 1.02));
        RackTrace {
            index: rack_idx,
            generation,
            limit,
            power,
            servers: server_traces,
        }
    }

    /// Fill a server with VMs (2-8 cores each) up to 55-95 % of its cores.
    fn place_vms(&self, model: &PowerModel, config: &FleetConfig, rng: &mut Pcg32) -> Vec<VmSpec> {
        let total_cores = model.cores();
        let fill_target = (total_cores as f64 * rng.gen_range_f64(0.55, 0.95)) as usize;
        let mut allocated = 0;
        let mut vms = Vec::new();
        while allocated < fill_target {
            let cores = rng.gen_range_u64(2, 9) as usize;
            let cores = cores.min(total_cores - allocated);
            let wants_oc = rng.gen_bool(OC_CORE_FRACTION);
            let service = if wants_oc {
                rng.gen_index(OC_SERVICES)
            } else {
                Catalog::background(rng.gen_index(background_catalog_len()))
            };
            vms.push(self.make_vm(config, cores, service, rng));
            allocated += cores;
        }
        vms
    }

    fn make_vm(
        &self,
        config: &FleetConfig,
        cores: usize,
        service: usize,
        rng: &mut Pcg32,
    ) -> VmSpec {
        let peak = CATALOG.service(service).weekday_peak.max(1e-6);
        let load_scale = rng.gen_range_f64(0.55, 1.15);
        // VM churn: with weekly probability `VM_CHURN_WEEKLY`, this VM is
        // retired at a uniformly random instant and replaced by a fresh VM
        // running a background service.
        let weeks = config.span.as_days_f64() / 7.0;
        let churns = rng.gen_bool(1.0 - (1.0 - VM_CHURN_WEEKLY).powf(weeks));
        let (replaced_at, replacement) = if churns {
            let at = SimTime::from_micros(rng.gen_range_u64(1, config.span.as_micros().max(2)));
            let new_service = Catalog::background(rng.gen_index(background_catalog_len()));
            let new_peak = CATALOG.service(new_service).weekday_peak.max(1e-6);
            let new_scale = rng.gen_range_f64(0.55, 1.15);
            let repl = VmSpec {
                cores,
                oc_trigger: 0.75 * new_peak * new_scale.min(1.0),
                service: new_service,
                load_scale: new_scale,
                phase: rng.gen_range_u64(0, 30) as usize,
                replaced_at: None,
                replacement: None,
            };
            (Some(at), Some(Box::new(repl)))
        } else {
            (None, None)
        };
        VmSpec {
            cores,
            // Request overclocking once above ~75% of this VM's own peak
            // (trigger thresholds are tuned per deployment, §IV-A).
            oc_trigger: 0.75 * peak * load_scale.min(1.0),
            service,
            load_scale,
            phase: rng.gen_range_u64(0, 30) as usize,
            replaced_at,
            replacement,
        }
    }

    fn simulate_server(
        &self,
        model: &PowerModel,
        config: &FleetConfig,
        vms: &[VmSpec],
        outlier_days: &[bool],
        rng: &mut Pcg32,
    ) -> (TimeSeries, TimeSeries, TimeSeries) {
        let catalog: &Catalog = &CATALOG;
        let total_cores = model.cores() as f64;
        let turbo = model.plan().turbo();
        let end = SimTime::ZERO + config.span;
        let slots: Vec<Slot> = vms
            .iter()
            .map(|vm| {
                let before = (catalog.service(vm.service), vm);
                match (vm.replaced_at, &vm.replacement) {
                    // Sample `k` falls at `k · step`, so the replacement
                    // runs from the first sample at or after `at`.
                    (Some(at), Some(repl)) => Slot {
                        before,
                        after: (catalog.service(repl.service), repl),
                        switch: at.as_micros().div_ceil(config.step.as_micros()) as usize,
                    },
                    _ => Slot {
                        before,
                        after: before,
                        switch: usize::MAX,
                    },
                }
            })
            .collect();
        let n = config.samples();
        let mut util = Vec::with_capacity(n);
        let mut power = Vec::with_capacity(n);
        let mut oc_cores = Vec::with_capacity(n);

        for (k, t) in simcore::time::ticks(SimTime::ZERO, end, config.step).enumerate() {
            let day = t.day_index() as usize;
            let outlier_scale = if outlier_days.get(day).copied().unwrap_or(false) {
                0.5
            } else {
                1.0
            };
            // `step` is whole minutes (validated), so `t` is too.
            let minute = (t.time_of_week().as_micros() / SimDuration::MINUTE.as_micros()) as usize;
            let mut busy_cores = 0.0;
            let mut oc_demand = 0.0;
            for slot in &slots {
                let (service, vm) = if k >= slot.switch {
                    slot.after
                } else {
                    slot.before
                };
                let base = service.at_minute(minute, vm.phase);
                let noise = 1.0 + service.noise_sigma * rng.sample_standard_normal();
                let u = (base * vm.load_scale * noise * outlier_scale).clamp(0.0, 1.0);
                busy_cores += u * vm.cores as f64;
                if service.wants_overclock && u >= vm.oc_trigger {
                    oc_demand += vm.cores as f64;
                }
            }
            let server_util = (busy_cores / total_cores).clamp(0.0, 1.0);
            util.push(server_util);
            power.push(model.server_power_uniform(server_util, turbo).get());
            oc_cores.push(oc_demand);
        }
        let series = |values| TimeSeries::from_values(SimTime::ZERO, config.step, values);
        (series(util), series(power), series(oc_cores))
    }
}

/// One VM slot resolved for a server's sample loop: the VM that runs before
/// churn and the one after it, each with its catalog service, and the first
/// sample the replacement runs (`usize::MAX` when the slot never churns).
struct Slot<'a> {
    before: (&'a Service, &'a VmSpec),
    after: (&'a Service, &'a VmSpec),
    switch: usize,
}

fn region_stream(region: &str) -> u64 {
    // FNV-1a over the region name: regions get independent RNG streams.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in region.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::stats::rmse;

    fn small_fleet(seed: u64) -> FleetTrace {
        TraceGenerator::new(seed).generate(&FleetConfig::small_test())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_fleet(7);
        let b = small_fleet(7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_fleet(1);
        let b = small_fleet(2);
        assert_ne!(a.racks[0].power.values(), b.racks[0].power.values());
    }

    #[test]
    fn rack_power_is_sum_of_servers() {
        let fleet = small_fleet(3);
        let rack = &fleet.racks[0];
        let sum: Vec<f64> = (0..rack.power.len())
            .map(|i| rack.servers.iter().map(|s| s.power.values()[i]).sum())
            .collect();
        for (a, b) in rack.power.values().iter().zip(&sum) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn limits_are_oversubscribed_but_never_cap_baseline() {
        let fleet = small_fleet(4);
        let model = soc_power::model::PowerModel::reference_server();
        for rack in &fleet.racks {
            // The baseline never exceeds the limit.
            assert!(rack.power.max() <= rack.limit.get() + 1e-6);
            // The limit never exceeds the nameplate of the rack (otherwise
            // there would be no oversubscription at all).
            let nameplate = model.server_power_uniform(1.0, model.plan().turbo()).get()
                * rack.servers.len() as f64;
            assert!(
                rack.limit.get() <= nameplate / 1.30 + 1e-6
                    || (rack.limit.get() - rack.power.max() * 1.02).abs() < 1e-6,
                "limit {} vs nameplate {nameplate}",
                rack.limit.get()
            );
        }
    }

    #[test]
    fn utilizations_are_plausible() {
        let fleet = small_fleet(5);
        for rack in &fleet.racks {
            let mean = rack.mean_utilization();
            assert!(mean > 0.2 && mean < 1.0, "rack mean utilization {mean}");
            for s in &rack.servers {
                let u = s.utilization.mean();
                assert!(u > 0.0 && u < 1.0, "server mean utilization {u}");
            }
        }
    }

    #[test]
    fn some_servers_request_overclocking() {
        let fleet = small_fleet(6);
        let wanting: usize = fleet
            .racks
            .iter()
            .flat_map(|r| &r.servers)
            .filter(|s| s.wants_overclock())
            .count();
        assert!(wanting > 0, "no server ever requested overclocking");
    }

    #[test]
    fn weekday_pattern_repeats() {
        // The same weekday a week apart should look similar (modulo noise) —
        // the predictability the paper's Q3 establishes.
        let mut cfg = FleetConfig::small_test();
        cfg.span = SimDuration::WEEK * 2;
        cfg.outlier_day_prob = 0.0;
        let fleet = TraceGenerator::new(11).generate(&cfg);
        let rack = &fleet.racks[0];
        let samples_per_week = (SimDuration::WEEK.as_micros() / cfg.step.as_micros()) as usize;
        let week1 = &rack.power.values()[..samples_per_week];
        let week2 = &rack.power.values()[samples_per_week..2 * samples_per_week];
        let err = rmse(week1, week2);
        let mean_power = rack.power.mean();
        assert!(
            err / mean_power < 0.12,
            "week-over-week RMSE {err:.1}W is too large vs mean {mean_power:.1}W"
        );
    }

    #[test]
    fn servers_within_rack_are_heterogeneous() {
        // Fig. 9: servers in a rack differ substantially in power.
        let fleet = small_fleet(12);
        let rack = &fleet.racks[0];
        let means: Vec<f64> = rack.servers.iter().map(|s| s.power.mean()).collect();
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max / min > 1.05,
            "servers too homogeneous: {min:.1}..{max:.1}"
        );
    }

    #[test]
    fn generate_rack_matches_fleet_shape() {
        let cfg = FleetConfig::small_test();
        let generator = TraceGenerator::new(9);
        let rack = generator.generate_rack(&cfg, 0);
        assert_eq!(rack.index, 0);
        assert!(!rack.power.is_empty());
        assert!(rack.limit.get() > 0.0);
    }

    #[test]
    fn fleet_mixes_cpu_generations() {
        use crate::fleet::CpuGeneration;
        let mut cfg = FleetConfig::small_test();
        cfg.racks = 12;
        let fleet = TraceGenerator::new(21).generate(&cfg);
        let intel = fleet
            .racks
            .iter()
            .filter(|r| r.generation == CpuGeneration::Intel)
            .count();
        assert!(intel > 0, "some racks should be Intel");
        assert!(intel < fleet.racks.len(), "some racks should be AMD");
    }

    #[test]
    fn dropping_server_series_keeps_rack_power() {
        let mut cfg = FleetConfig::small_test();
        cfg.keep_server_series = false;
        let fleet = TraceGenerator::new(13).generate(&cfg);
        assert!(fleet.racks[0].servers.is_empty());
        assert!(!fleet.racks[0].power.is_empty());
    }

    /// The catalog profiles in draw order, as `Catalog::new` lists them.
    fn catalog_profiles() -> Vec<ServiceProfile> {
        [service_a(), service_b(), service_c()]
            .into_iter()
            .chain((0..background_catalog_len()).map(background_service))
            .collect()
    }

    #[test]
    fn catalog_table_is_exact_at_every_minute_of_the_week() {
        let catalog: &Catalog = &CATALOG;
        let profiles = catalog_profiles();
        assert_eq!(catalog.services.len(), profiles.len());
        for (index, profile) in profiles.iter().enumerate() {
            let service = catalog.service(index);
            assert_eq!(service.noise_sigma, profile.noise_sigma, "{}", profile.name);
            assert_eq!(service.wants_overclock, profile.wants_overclock);
            assert_eq!(
                service.weekday_peak.to_bits(),
                profile.shape.weekday_peak().to_bits()
            );
            for minute in 0..MINUTES_PER_WEEK {
                let t = SimTime::ZERO + SimDuration::from_minutes(minute as u64);
                assert_eq!(
                    service.at_minute(minute, 0).to_bits(),
                    profile.shape.utilization(t).to_bits(),
                    "{} at minute {minute}",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn catalog_lookup_matches_shape_across_six_weeks_with_phase() {
        let catalog: &Catalog = &CATALOG;
        let profiles = catalog_profiles();
        let mut rng = Pcg32::seed_from_u64(19);
        let six_weeks = 6 * MINUTES_PER_WEEK as u64;
        for case in 0..20_000 {
            let index = rng.gen_index(profiles.len());
            let shape = &profiles[index].shape;
            let t = SimTime::ZERO + SimDuration::from_minutes(rng.gen_range_u64(0, six_weeks));
            let phase = rng.gen_range_u64(0, 30);
            let shifted = t + SimDuration::from_minutes(phase);
            // A shape repeats every week, bit for bit.
            let in_first_week = SimTime::ZERO + shifted.time_of_week();
            assert_eq!(
                shape.utilization(shifted).to_bits(),
                shape.utilization(in_first_week).to_bits(),
                "case {case}: {shifted}"
            );
            let minute = (t.time_of_week().as_micros() / SimDuration::MINUTE.as_micros()) as usize;
            assert_eq!(
                catalog
                    .service(index)
                    .at_minute(minute, phase as usize)
                    .to_bits(),
                shape.utilization(shifted).to_bits(),
                "case {case}: service {index} at {t} + {phase} min"
            );
        }
    }

    #[test]
    #[should_panic(expected = "step must be a whole number of minutes")]
    fn rejects_sub_minute_step() {
        let mut cfg = FleetConfig::small_test();
        cfg.step = SimDuration::from_secs(30);
        let _ = TraceGenerator::new(1).generate_rack(&cfg, 0);
    }

    #[test]
    #[should_panic(expected = "need at least one rack")]
    fn rejects_empty_config() {
        let mut cfg = FleetConfig::small_test();
        cfg.racks = 0;
        let _ = TraceGenerator::new(1).generate(&cfg);
    }
}
