//! The closed-loop cluster simulation (paper §V-A, Figs. 12–14).
//!
//! Stands in for the paper's 36-server overclockable cluster: 14 servers run
//! latency-critical SocialNet instances (the overclocking candidates), 14
//! run power-hungry MLTrain jobs (never overclocked), and a spare pool
//! absorbs scale-out. The rack manager monitors aggregate power against the
//! provisioned limit, emits warnings at 95 %, and performs prioritized
//! capping when the limit is hit.
//!
//! Five systems are compared: *Baseline* (no scaling at all), *ScaleOut*
//! (horizontal autoscaling on tail latency, with a VM boot delay),
//! *ScaleUp* (frequency-only scaling with no power management),
//! *NaiveOClock* (grant-everything overclocking), and *SmartOClock* (the
//! full platform: workload-intelligent triggers, prediction-based admission,
//! heterogeneous budgets, decentralized enforcement, and proactive
//! scale-out).

use crate::probe::NoopProbe;
use simcore::faults::{FaultPlan, FaultPlanConfig};
use simcore::time::{SimDuration, SimTime};
use smartoclock::goa::GlobalOverclockAgent;
use smartoclock::messages::{ExhaustedResource, GrantId, OverclockRequest, SoaEvent};
use smartoclock::policy::PolicyKind;
use smartoclock::soa::ServerOverclockAgent;
use smartoclock::wi::{GlobalWiAgent, LocalWiAgent, OverclockPolicy, VmMetrics};
use soc_power::hierarchy::DemandProfile;
use soc_power::model::PowerModel;
use soc_power::rack::{prioritized_shed, CapCandidate, RackMonitor, RackSignal};
use soc_power::units::{MegaHertz, Watts};
use soc_reliability::binning::BinningConfig;
use soc_telemetry::{tm_event, Component, Severity, Telemetry};
use soc_workloads::loadgen::RateSchedule;
use soc_workloads::microservice::{MicroserviceSim, Traffic, WindowStats};
use soc_workloads::mltrain::MlTrain;
use soc_workloads::socialnet::{socialnet_services, LoadLevel};
use std::collections::BTreeMap;

/// Which control system manages the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// No scaling of any kind.
    Baseline,
    /// Horizontal autoscaling on tail latency (VM boot delay applies).
    ScaleOut,
    /// Frequency-only scaling with no power coordination.
    ScaleUp,
    /// Overclocking that grants every request (even budget split).
    NaiveOClock,
    /// The full SmartOClock platform.
    SmartOClock,
}

impl SystemKind {
    /// All systems in Fig. 12's order plus NaiveOClock.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::Baseline,
        SystemKind::ScaleOut,
        SystemKind::ScaleUp,
        SystemKind::NaiveOClock,
        SystemKind::SmartOClock,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Baseline => "Baseline",
            SystemKind::ScaleOut => "ScaleOut",
            SystemKind::ScaleUp => "ScaleUp",
            SystemKind::NaiveOClock => "NaiveOClock",
            SystemKind::SmartOClock => "SmartOClock",
        }
    }

    fn overclocks(self) -> bool {
        matches!(
            self,
            SystemKind::ScaleUp | SystemKind::NaiveOClock | SystemKind::SmartOClock
        )
    }

    fn scales_out(self) -> bool {
        matches!(self, SystemKind::ScaleOut | SystemKind::SmartOClock)
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cluster experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// The control system under test.
    pub system: SystemKind,
    /// Servers hosting SocialNet instances (one instance starts per server).
    pub socialnet_servers: usize,
    /// Servers running MLTrain (constant high power, never overclocked).
    pub mltrain_servers: usize,
    /// Spare servers available for scale-out.
    pub spare_servers: usize,
    /// Experiment duration.
    pub duration: SimDuration,
    /// Control period (observation window).
    pub tick: SimDuration,
    /// Rack limit as a fraction of its normal provisioning (1.0 = normal,
    /// lower values create the power-constrained scenario of §V-A).
    pub rack_limit_scale: f64,
    /// Scale on the overclocking lifetime budget (1.0 = the 10 % reference;
    /// 0.75/0.5/0.25 for the overclocking-constrained experiments).
    pub oc_budget_scale: f64,
    /// Whether SmartOClock performs proactive scale-out on exhaustion
    /// warnings (§IV-D); disable to reproduce the reactive baseline.
    pub proactive_scaleout: bool,
    /// VM boot delay for scale-out (minutes in the paper's motivation).
    pub boot_delay: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Control-plane fault schedule (default: no faults).
    pub faults: FaultPlanConfig,
    /// Per-part silicon heterogeneity (default: uniform fleet). Each
    /// overclockable server draws its part from the shared seed; its sOA
    /// enforces the drawn bin and `risk_budget` at admission.
    pub binning: BinningConfig,
}

impl ClusterConfig {
    /// The paper-shaped configuration: 14 + 14 + 8 servers.
    pub fn paper_reference(system: SystemKind) -> ClusterConfig {
        ClusterConfig {
            system,
            socialnet_servers: 14,
            mltrain_servers: 14,
            spare_servers: 8,
            duration: SimDuration::from_minutes(30),
            tick: SimDuration::from_secs(5),
            rack_limit_scale: 1.0,
            oc_budget_scale: 1.0,
            proactive_scaleout: true,
            boot_delay: SimDuration::from_secs(90),
            seed: 42,
            faults: FaultPlanConfig::none(),
            binning: BinningConfig::uniform(),
        }
    }

    /// A small configuration for unit tests.
    pub fn small_test(system: SystemKind) -> ClusterConfig {
        ClusterConfig {
            system,
            socialnet_servers: 3,
            mltrain_servers: 2,
            spare_servers: 1,
            duration: SimDuration::from_minutes(4),
            tick: SimDuration::from_secs(5),
            rack_limit_scale: 1.0,
            oc_budget_scale: 1.0,
            proactive_scaleout: true,
            boot_delay: SimDuration::from_secs(30),
            seed: 42,
            faults: FaultPlanConfig::none(),
            binning: BinningConfig::uniform(),
        }
    }
}

/// Result for one SocialNet instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceResult {
    /// Service name.
    pub name: String,
    /// Offered load class.
    pub load: LoadLevel,
    /// P99 latency over the whole run (ms).
    pub p99_ms: f64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// The SLO (ms).
    pub slo_ms: f64,
    /// Requests that exceeded the SLO.
    pub missed: u64,
    /// Completed requests.
    pub completed: u64,
    /// Fraction of observation windows whose P99 violated the SLO.
    pub violation_window_frac: f64,
}

/// Aggregate outcome of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResult {
    /// Which system ran.
    pub system: SystemKind,
    /// Per-instance results.
    pub instances: Vec<InstanceResult>,
    /// Mean number of concurrently active VM instances (cost, Fig. 13).
    pub avg_active_vms: f64,
    /// Total cluster energy (J), Fig. 14.
    pub total_energy_j: f64,
    /// Energy of the SocialNet servers only (J).
    pub socialnet_energy_j: f64,
    /// Mean per-SocialNet-server energy by load class `[low, med, high]`.
    pub per_server_energy_by_load: [f64; 3],
    /// MLTrain throughput relative to uncapped turbo.
    pub mltrain_relative_throughput: f64,
    /// Rack power-capping ticks observed (control intervals at or over the
    /// limit; a long excursion counts once per tick so severities compare
    /// across systems).
    pub capping_events: u64,
    /// Overclocking requests (granted, total). Zero for non-OC systems.
    pub oc_requests: (u64, u64),
}

impl ClusterResult {
    /// Mean P99 across instances of a load class (NaN if none).
    pub fn p99_by_load(&self, load: LoadLevel) -> f64 {
        mean_by(&self.instances, load, |i| i.p99_ms)
    }

    /// Mean latency across instances of a load class (NaN if none).
    pub fn mean_by_load(&self, load: LoadLevel) -> f64 {
        mean_by(&self.instances, load, |i| i.mean_ms)
    }

    /// Total missed SLOs across instances of a load class.
    pub fn missed_by_load(&self, load: LoadLevel) -> u64 {
        self.instances
            .iter()
            .filter(|i| i.load == load)
            .map(|i| i.missed)
            .sum()
    }

    /// Fraction of observation windows violating the SLO, averaged over all
    /// instances (the §V-A overclocking-constrained metric).
    pub fn violation_window_frac(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances
            .iter()
            .map(|i| i.violation_window_frac)
            .sum::<f64>()
            / self.instances.len() as f64
    }
}

fn mean_by(
    instances: &[InstanceResult],
    load: LoadLevel,
    f: impl Fn(&InstanceResult) -> f64,
) -> f64 {
    let vals: Vec<f64> = instances
        .iter()
        .filter(|i| i.load == load)
        .map(f)
        .filter(|v| !v.is_nan())
        .collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// A VM placement: which server and cores it occupies.
#[derive(Debug, Clone, Copy)]
struct VmSlot {
    server: usize,
    first_core: usize,
    cores: usize,
}

struct Instance {
    sim: MicroserviceSim,
    load: LoadLevel,
    wi: GlobalWiAgent,
    local: LocalWiAgent,
    slots: Vec<VmSlot>,
    grants: Vec<Option<GrantId>>,
    /// Scale-outs in flight: (ready_at).
    pending_boots: Vec<SimTime>,
    latencies: Vec<f64>,
    missed: u64,
    completed: u64,
    violation_windows: u64,
    windows: u64,
    scale_cooldown_until: SimTime,
    /// ScaleUp's current frequency.
    scaleup_freq: MegaHertz,
    /// Consecutive windows over SLO while fully overclocked (SmartOClock's
    /// own scale-out trigger).
    saturated_windows: u32,
    /// Causal decision id of the most recent `oc_deny` this instance
    /// received, and when; used to attribute subsequent SLO misses to
    /// admission denial. Tracing-only: never feeds back into control.
    last_deny_decision: u64,
    last_deny_at: SimTime,
}

/// The cluster simulator. Construct with [`ClusterSim::new`] and call
/// [`run`](ClusterSim::run).
pub struct ClusterSim {
    config: ClusterConfig,
    model: PowerModel,
    instances: Vec<Instance>,
    /// Each instance's arrival stream, fresh, until [`ClusterSim::start`]
    /// hands them to the tick loop.
    traffic: Vec<Traffic>,
    /// Ticks since the last heterogeneous-budget refresh.
    ticks_since_refresh: u128,
    mltrain: Vec<MlTrain>,
    /// Per-server agents (SocialNet + spare servers only).
    soas: Vec<ServerOverclockAgent>,
    grant_owner: BTreeMap<(usize, GrantId), (usize, usize)>,
    /// Per-server next free core index.
    free_core: Vec<usize>,
    rack: RackMonitor,
    /// Rack 1's budget splitter (gOA role, §IV-C).
    goa: GlobalOverclockAgent,
    /// Frequency caps from prioritized capping, per server (socialnet+spare
    /// then mltrain).
    caps: Vec<Option<MegaHertz>>,
    /// Causal decision id of the `cap_set` that imposed each server's cap
    /// (`0` when uncapped or telemetry is off). Parallel to `caps`.
    cap_decisions: Vec<u64>,
    last_signal: Option<RackSignal>,
    /// Causal decision id of the `rack_warning`/`rack_capping` event behind
    /// `last_signal` (`0` for `Normal` or when telemetry is off).
    last_signal_decision: u64,
    total_energy_j: f64,
    socialnet_energy_j: f64,
    per_server_energy: Vec<f64>,
    vm_count_samples: Vec<f64>,
    capped_ticks: u64,
    telemetry: Telemetry,
    /// Deterministic fault schedule generated from `config.faults` over the
    /// run horizon. A no-op plan leaves every trace byte-identical to a
    /// build without fault injection.
    faults: FaultPlan,
    /// Whether the previous tick fell inside a gOA outage window (edge
    /// detection for `degraded_enter` / `degraded_exit` events).
    goa_was_down: bool,
    /// Causal decision id of the harness `degraded_enter` event (0 outside
    /// outages or when telemetry is off).
    goa_degraded_decision: u64,
}

impl ClusterSim {
    /// Build the cluster.
    ///
    /// # Panics
    /// Panics if the configuration has no SocialNet servers.
    pub fn new(config: ClusterConfig) -> ClusterSim {
        assert!(
            config.socialnet_servers > 0,
            "need at least one SocialNet server"
        );
        let model = PowerModel::reference_server();
        let plan = model.plan();
        let specs = socialnet_services();
        let loads = [LoadLevel::Low, LoadLevel::Medium, LoadLevel::High];

        let policy_kind = match config.system {
            SystemKind::NaiveOClock => PolicyKind::NaiveOClock,
            _ => PolicyKind::SmartOClock,
        };

        let oc_server_count = config.socialnet_servers + config.spare_servers;
        config.binning.validate();
        let mut soas: Vec<ServerOverclockAgent> = (0..oc_server_count)
            .map(|s| {
                let mut soa = ServerOverclockAgent::new(model, policy_kind);
                if config.oc_budget_scale < 1.0 {
                    soa.scale_lifetime_budget(config.oc_budget_scale);
                }
                // Silicon lottery: each overclockable server realizes its
                // part from the shared seed. Uniform fleets skip this so the
                // agents stay byte-identical to a pre-binning build.
                if !config.binning.is_uniform() {
                    let part = config.binning.part(&plan, FaultPlan::entity_id(0, s));
                    soa.set_silicon(part, config.binning.risk_budget);
                }
                soa
            })
            .collect();

        // Per-tick histories hold exactly one sample per tick.
        let ticks = config
            .duration
            .as_micros()
            .checked_div(config.tick.as_micros())
            .and_then(|t| usize::try_from(t).ok())
            .unwrap_or(0);
        let mut instances = Vec::new();
        let mut traffic = Vec::new();
        for i in 0..config.socialnet_servers {
            let spec = specs[i % specs.len()].clone();
            let load = loads[i % loads.len()];
            // Offered load: steady level with periodic bursts (the transient
            // spikes the paper motivates overclocking with).
            let base = load.fraction() * spec.capacity_per_vm(1.0);
            let schedule = RateSchedule::bursty(
                base,
                base * 1.15,
                SimDuration::from_minutes(10),
                SimDuration::from_minutes(2),
                config.duration,
            );
            traffic.push(Traffic::new(
                &spec,
                schedule,
                config.seed.wrapping_add(i as u64),
            ));
            let sim = MicroserviceSim::new(spec.clone(), plan.turbo(), 1);
            let slo = spec.slo_ms();
            // Overclock trigger before the scale-out threshold (§IV-D).
            let wi = GlobalWiAgent::new(OverclockPolicy::latency(0.9 * slo, 0.45 * slo));
            instances.push(Instance {
                sim,
                load,
                wi,
                local: LocalWiAgent::new(0.5),
                slots: vec![VmSlot {
                    server: i,
                    first_core: 0,
                    cores: spec.cores_per_vm,
                }],
                grants: vec![None],
                pending_boots: Vec::new(),
                latencies: Vec::with_capacity(ticks),
                missed: 0,
                completed: 0,
                violation_windows: 0,
                windows: 0,
                scale_cooldown_until: SimTime::ZERO,
                scaleup_freq: plan.turbo(),
                saturated_windows: 0,
                last_deny_decision: 0,
                last_deny_at: SimTime::ZERO,
            });
        }
        let mut free_core = vec![0usize; oc_server_count];
        for (i, inst) in instances.iter().enumerate() {
            free_core[i] = inst.slots[0].cores;
        }

        let mltrain: Vec<MlTrain> = (0..config.mltrain_servers)
            .map(|_| MlTrain::new(plan.turbo(), 0.85))
            .collect();

        // Rack provisioning: the paper's cluster is "all 28 from one rack,
        // and 8 from another during scale-out" (§V-A) — the monitored rack
        // holds the SocialNet and MLTrain servers, while the spare pool
        // lives in a second, adequately-provisioned rack. Operators
        // "provisioned adequate power to avoid capping; the limits are
        // lowered for power management evaluations" (§VI): the limit is
        // 25 % above the estimated steady draw of rack 1, scaled down for
        // the power-constrained scenarios.
        let total_servers = oc_server_count + config.mltrain_servers;
        let ml_draw = model.server_power_uniform(0.85, plan.turbo());
        let sn_draw: Watts = instances
            .iter()
            .map(|inst| {
                let cores = inst.sim.spec().cores_per_vm;
                model.idle() + model.core_power(0.5, plan.turbo()) * cores as f64
            })
            .sum();
        let estimated = sn_draw + ml_draw * config.mltrain_servers as f64;
        let limit = estimated * 1.25 * config.rack_limit_scale;
        // Warning band at 97%: the per-server overclocking amplitudes in
        // this cluster are a few percent of rack draw, so the warning must
        // sit close to the limit to be an early signal rather than a
        // constant alarm.
        let rack = RackMonitor::new(limit, 0.97);
        // Rack 1's gOA splits the same limit the monitor enforces.
        let goa = GlobalOverclockAgent::new(limit, policy_kind);

        // Initial budgets: even split of rack 1 across its servers; spares
        // (second rack) get an ample budget.
        let rack1_servers = config.socialnet_servers + config.mltrain_servers;
        let even = limit / rack1_servers as f64;
        let ample = model.server_power_uniform(1.0, plan.turbo()) * 1.2;
        for (s, soa) in soas.iter_mut().enumerate() {
            if s < config.socialnet_servers {
                soa.set_power_budget(even);
            } else {
                soa.set_power_budget(ample);
            }
        }

        let faults = FaultPlan::generate(
            &config.faults,
            SimTime::ZERO,
            SimTime::ZERO + config.duration,
        );

        ClusterSim {
            caps: vec![None; total_servers],
            cap_decisions: vec![0; total_servers],
            per_server_energy: vec![0.0; total_servers],
            config,
            model,
            instances,
            traffic,
            ticks_since_refresh: 0,
            mltrain,
            soas,
            grant_owner: BTreeMap::new(),
            free_core,
            rack,
            goa,
            last_signal: None,
            last_signal_decision: 0,
            total_energy_j: 0.0,
            socialnet_energy_j: 0.0,
            vm_count_samples: Vec::with_capacity(ticks),
            capped_ticks: 0,
            telemetry: Telemetry::disabled(),
            faults,
            goa_was_down: false,
            goa_degraded_decision: 0,
        }
    }

    /// Build the cluster with a telemetry handle. Every sOA is wired to the
    /// same handle (labelled by server index) and the harness itself emits
    /// capping, budget, and run-lifecycle events under
    /// [`Component::Harness`].
    ///
    /// # Panics
    /// Panics if the configuration has no SocialNet servers.
    pub fn with_telemetry(config: ClusterConfig, telemetry: Telemetry) -> ClusterSim {
        let mut sim = ClusterSim::new(config);
        sim.set_telemetry(telemetry);
        sim
    }

    /// Install (or replace) the telemetry handle on the harness and its
    /// agents: sOAs are labelled by server index, WI agents by service
    /// (instance) index.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for (s, soa) in self.soas.iter_mut().enumerate() {
            soa.set_telemetry(telemetry.clone(), s);
        }
        for (idx, inst) in self.instances.iter_mut().enumerate() {
            inst.wi.set_telemetry(telemetry.clone(), idx);
            inst.local.set_telemetry(telemetry.clone(), idx);
        }
        self.telemetry = telemetry;
    }

    /// Run to completion and report: the one-config case of the tick loop
    /// behind [`crate::shard::run_cluster_sims_probed`].
    ///
    /// # Panics
    /// Panics if the configuration's `tick` is zero.
    pub fn run(self) -> ClusterResult {
        let mut results = crate::shard::lockstep(vec![self], 1, &NoopProbe);
        results.remove(0)
    }

    /// Number of control ticks in the run.
    pub(crate) fn ticks(&self) -> u64 {
        self.config.duration.as_micros() / self.config.tick.as_micros()
    }

    /// When tick `k` ends.
    pub(crate) fn tick_end(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.config.tick * k
    }

    /// Arrivals instance `i` has consumed from its stream.
    pub(crate) fn consumed(&self, i: usize) -> u64 {
        self.instances[i].sim.total_arrivals()
    }

    /// Open the run, and hand over each instance's arrival stream, in
    /// instance order, for the caller to fill ahead of every tick.
    pub(crate) fn start(&mut self) -> Vec<Traffic> {
        let tm = self.telemetry.clone();
        tm_event!(tm, SimTime::ZERO, Component::Harness, Severity::Info, "run_start",
            "system" => self.config.system.name(),
            "socialnet_servers" => self.config.socialnet_servers,
            "mltrain_servers" => self.config.mltrain_servers,
            "spare_servers" => self.config.spare_servers,
            "ticks" => self.ticks());
        // Heterogeneous budgets apply from the start (the gOA computed them
        // from last week's profiles before this experiment began).
        if self.config.system == SystemKind::SmartOClock {
            self.refresh_budgets(SimTime::ZERO);
        }
        std::mem::take(&mut self.traffic)
    }

    /// Open control tick `k` (from 1): inject its scheduled faults and bring
    /// finished boots online. The driver then advances every queueing sim
    /// ([`queues_mut`](ClusterSim::queues_mut)) to
    /// [`tick_end`](ClusterSim::tick_end)`(k)` and closes the tick with
    /// [`end_tick`](ClusterSim::end_tick).
    pub(crate) fn begin_tick(&mut self, k: u64) {
        let now = self.tick_end(k);
        self.inject_faults(now);
        self.activate_boots(now);
    }

    /// Each instance's queueing sim, in instance order.
    pub(crate) fn queues_mut(&mut self) -> impl Iterator<Item = &mut MicroserviceSim> {
        self.instances.iter_mut().map(|inst| &mut inst.sim)
    }

    /// Close control tick `k` from the window each instance's queueing sim
    /// reported on reaching the tick's end (`stats[i]` for instance `i`):
    /// control decisions, power, capping, MLTrain, and the budget refresh.
    pub(crate) fn end_tick(&mut self, k: u64, stats: &[WindowStats]) {
        let now = self.tick_end(k);
        self.step(now, stats);
        // Refresh heterogeneous budgets periodically (the paper does this
        // weekly from templates; at cluster-experiment timescales we use
        // the latest observed demand every two minutes). While the gOA is
        // unreachable no refresh happens; `ticks_since_refresh` keeps
        // accumulating so the first healthy tick refreshes immediately.
        self.ticks_since_refresh += 1;
        let goa_down = self.faults.goa_unreachable(now);
        self.note_goa_state(now, goa_down);
        if self.config.system == SystemKind::SmartOClock
            && !goa_down
            && self.ticks_since_refresh * u128::from(self.config.tick.as_micros())
                >= u128::from(SimDuration::from_minutes(2).as_micros())
        {
            self.ticks_since_refresh = 0;
            self.refresh_budgets(now);
        }
    }

    /// Close the run and report.
    pub(crate) fn finish(self) -> ClusterResult {
        let ticks = self.ticks();
        let end = self.tick_end(ticks);
        let tm = self.telemetry.clone();
        tm_event!(tm, end, Component::Harness, Severity::Info, "run_end",
            "system" => self.config.system.name(),
            "capping_ticks" => self.capped_ticks,
            "total_energy_j" => self.total_energy_j);
        tm.span(SimTime::ZERO, Component::Harness, "cluster_run")
            .field("ticks", ticks)
            .end(end);
        // Observation only: the owner of the trace reports a failed write.
        let _ = tm.flush();
        self.report()
    }

    /// Inject scheduled point faults for this tick: sOA restarts lose all
    /// in-flight grants and re-join conservatively at default frequency.
    fn inject_faults(&mut self, now: SimTime) {
        let faults = self.faults.at(now);
        if !faults.any_soa_restarts() {
            return;
        }
        let oc_server_count = self.config.socialnet_servers + self.config.spare_servers;
        for s in 0..oc_server_count {
            if faults.soa_restarts(FaultPlan::entity_id(0, s)) {
                let events = self.soas[s].restart(now);
                self.apply_soa_events(now, s, &events);
            }
        }
    }

    /// Edge-detect gOA outage windows and emit `degraded_enter` /
    /// `degraded_exit` transition events. No events (and no telemetry ids)
    /// are produced when the plan schedules no outages.
    fn note_goa_state(&mut self, now: SimTime, goa_down: bool) {
        if goa_down == self.goa_was_down {
            return;
        }
        self.goa_was_down = goa_down;
        let tm = self.telemetry.clone();
        if goa_down {
            let decision = tm.next_id();
            self.goa_degraded_decision = decision;
            tm_event!(tm, now, Component::Fault, Severity::Warn, "degraded_enter",
                "kind" => simcore::faults::FaultKind::GoaOutage.label(),
                "decision_id" => decision);
        } else {
            tm_event!(tm, now, Component::Fault, Severity::Info, "degraded_exit",
                "kind" => simcore::faults::FaultKind::GoaOutage.label(),
                "cause_id" => self.goa_degraded_decision);
            self.goa_degraded_decision = 0;
        }
    }

    /// 1. Activate finished boots (the rest of a tick is [`step`](ClusterSim::step)).
    fn activate_boots(&mut self, now: SimTime) {
        for idx in 0..self.instances.len() {
            let ready: Vec<SimTime> = self.instances[idx]
                .pending_boots
                .iter()
                .copied()
                .filter(|&t| t <= now)
                .collect();
            if !ready.is_empty() {
                self.instances[idx].pending_boots.retain(|&t| t > now);
                for _ in ready {
                    self.add_vm(idx);
                }
            }
        }
    }

    fn step(&mut self, now: SimTime, stats: &[WindowStats]) {
        assert_eq!(stats.len(), self.instances.len(), "one window per instance");
        let plan = self.model.plan();
        let system = self.config.system;

        // 2. Gather the window stats of the queueing sims, which the driver
        // advanced to `now`.
        let tm = self.telemetry.clone();
        // Per-server cap state snapshot for SLO-miss attribution (the
        // instance loop below holds a mutable borrow of `self.instances`).
        let cap_decisions = self.cap_decisions.clone();
        let capped: Vec<bool> = self.caps.iter().map(Option::is_some).collect();
        let deny_window = SimDuration::from_secs(30);
        let mut metrics: Vec<VmMetrics> = Vec::with_capacity(self.instances.len());
        for (idx, (inst, stats)) in self.instances.iter_mut().zip(stats).enumerate() {
            inst.windows += 1;
            if !stats.p99_ms.is_nan() {
                inst.latencies.push(stats.p99_ms);
                if stats.p99_ms > inst.sim.spec().slo_ms() {
                    inst.violation_windows += 1;
                    if tm.is_enabled() {
                        // Attribute the miss: a frequency cap on a hosting
                        // server dominates, then a recent admission denial,
                        // otherwise plain queueing under load.
                        let cap_cause = inst
                            .slots
                            .iter()
                            .take(inst.sim.active_vms())
                            .find(|slot| capped[slot.server])
                            .map(|slot| cap_decisions[slot.server]);
                        let recent_deny =
                            inst.last_deny_decision != 0 && now <= inst.last_deny_at + deny_window;
                        let (attribution, cause) = match cap_cause {
                            Some(c) => ("cap", c),
                            None if recent_deny => ("admission_denied", inst.last_deny_decision),
                            None => ("queueing", 0),
                        };
                        tm_event!(tm, now, Component::Harness, Severity::Warn, "slo_miss",
                            "service" => idx,
                            "load" => inst.load.name(),
                            "p99_ms" => stats.p99_ms,
                            "slo_ms" => inst.sim.spec().slo_ms(),
                            "attribution" => attribution,
                            "decision_id" => tm.next_id(),
                            "cause_id" => cause);
                        tm.metrics(|m| {
                            m.inc_counter(
                                "slo_miss_windows",
                                &[("attribution", attribution.into())],
                            );
                        });
                    }
                }
            }
            inst.completed += stats.completions;
            inst.missed += (stats.completions as f64 * stats.slo_miss_frac).round() as u64;
            let raw = VmMetrics {
                tail_latency_ms: stats.p99_ms,
                cpu_utilization: stats.cpu_utilization,
                queue_length: inst.sim.in_system() as f64,
            };
            metrics.push(inst.local.observe(now, raw));
        }

        // 3. Control decisions.
        match system {
            SystemKind::Baseline => {}
            SystemKind::ScaleOut => self.autoscale_horizontal(now, &metrics),
            SystemKind::ScaleUp => self.scale_up_frequencies(now, &metrics),
            SystemKind::NaiveOClock | SystemKind::SmartOClock => {
                self.smartoclock_control(now, &metrics)
            }
        }

        // 4. Compute server powers.
        let powers = self.server_powers(&metrics);

        // 5. sOA control ticks (overclocking systems only). The previous
        // tick's rack signal rides in with its decision id so agent-side
        // corrective events chain back to the rack monitor's alarm.
        if system.overclocks() && system != SystemKind::ScaleUp {
            for (s, &power) in powers.iter().enumerate().take(self.soas.len()) {
                let events = self.soas[s].control_tick(
                    now,
                    power,
                    self.last_signal,
                    self.last_signal_decision,
                );
                self.apply_soa_events(now, s, &events);
            }
        }

        // 6. Energy accounting and rack observation (with caps applied).
        let oc_server_count = self.config.socialnet_servers + self.config.spare_servers;
        let powers = self.server_powers(&metrics);
        let dt_s = self.config.tick.as_secs_f64();
        for (s, p) in powers.iter().enumerate() {
            let joules = p.get() * dt_s;
            self.per_server_energy[s] += joules;
            self.total_energy_j += joules;
            if s < oc_server_count {
                // SocialNet home servers plus any spares hosting scaled-out
                // SocialNet VMs: the latency-critical side of the cluster.
                self.socialnet_energy_j += joules;
            }
        }
        // Only rack 1 (SocialNet homes + MLTrain) is monitored; spares are
        // in the second rack with adequate power.
        let rack1_total: Watts = powers
            .iter()
            .enumerate()
            .filter(|(s, _)| !self.is_spare(*s))
            .map(|(_, p)| *p)
            .sum();
        let signal = self.rack.observe(rack1_total);
        if signal == RackSignal::Capping {
            self.capped_ticks += 1;
        }
        if self.telemetry.is_enabled() {
            self.telemetry.metrics(|m| {
                m.set_gauge(
                    "rack_power_w",
                    &[("rack", 0usize.into())],
                    rack1_total.get(),
                );
                m.inc_counter("harness_ticks", &[]);
            });
            match signal {
                RackSignal::Capping => {
                    self.last_signal_decision = self.telemetry.next_id();
                    tm_event!(self.telemetry, now, Component::Harness, Severity::Error,
                        "rack_capping",
                        "rack_power_w" => rack1_total.get(),
                        "limit_w" => self.rack.limit().get(),
                        "decision_id" => self.last_signal_decision);
                }
                RackSignal::Warning => {
                    self.last_signal_decision = self.telemetry.next_id();
                    tm_event!(self.telemetry, now, Component::Harness, Severity::Warn,
                        "rack_warning",
                        "rack_power_w" => rack1_total.get(),
                        "limit_w" => self.rack.limit().get(),
                        "decision_id" => self.last_signal_decision);
                }
                RackSignal::Normal => self.last_signal_decision = 0,
            }
        }
        self.last_signal = Some(signal);
        self.apply_capping(now, signal, &powers, &metrics);

        // 7. Advance MLTrain with its effective frequency.
        for (j, job) in self.mltrain.iter_mut().enumerate() {
            let cap = self.caps[oc_server_count + j];
            let f = cap.unwrap_or(plan.turbo()).min(plan.turbo());
            job.run_for(self.config.tick, f);
        }

        // 8. Cost sample.
        let active: usize = self.instances.iter().map(|i| i.sim.active_vms()).sum();
        self.vm_count_samples.push(active as f64);
    }

    /// Horizontal autoscaler (the ScaleOut system): add a VM when the
    /// (smoothed) tail exceeds the SLO, remove one when far below.
    fn autoscale_horizontal(&mut self, now: SimTime, metrics: &[VmMetrics]) {
        for (idx, &m) in metrics.iter().enumerate().take(self.instances.len()) {
            let slo = self.instances[idx].sim.spec().slo_ms();
            let inst = &mut self.instances[idx];
            if now < inst.scale_cooldown_until || m.tail_latency_ms.is_nan() {
                continue;
            }
            if m.tail_latency_ms > slo {
                inst.pending_boots.push(now + self.config.boot_delay);
                inst.scale_cooldown_until = now + SimDuration::from_secs(60);
            } else if m.tail_latency_ms < 0.25 * slo && inst.sim.active_vms() > 1 {
                self.remove_vm(idx);
                self.instances[idx].scale_cooldown_until = now + SimDuration::from_secs(60);
            }
        }
    }

    /// Frequency-only scaling (the ScaleUp system) — no power coordination.
    fn scale_up_frequencies(&mut self, now: SimTime, metrics: &[VmMetrics]) {
        let plan = self.model.plan();
        for (idx, m) in metrics.iter().enumerate() {
            let inst = &mut self.instances[idx];
            if m.tail_latency_ms.is_nan() || now < inst.scale_cooldown_until {
                continue;
            }
            let slo = inst.sim.spec().slo_ms();
            if m.tail_latency_ms > 0.9 * slo {
                inst.scaleup_freq = plan.step_up(inst.scaleup_freq);
            } else if m.tail_latency_ms < 0.45 * slo {
                inst.scaleup_freq = plan.step_down(inst.scaleup_freq).max(plan.turbo());
            }
            let f = inst.scaleup_freq;
            let cap = inst.slots.first().and_then(|s| self.caps[s.server]);
            let eff = cap.map_or(f, |c| f.min(c));
            inst.sim.set_all_frequencies(eff);
        }
    }

    /// SmartOClock / NaiveOClock control: WI decisions → sOA requests.
    fn smartoclock_control(&mut self, now: SimTime, metrics: &[VmMetrics]) {
        let plan = self.model.plan();
        for (idx, &m) in metrics.iter().enumerate().take(self.instances.len()) {
            self.instances[idx].wi.report(vec![m]);
            let decision = self.instances[idx].wi.decide(now);
            let spec_cores = self.instances[idx].sim.spec().cores_per_vm;
            if decision.overclock {
                // Request a grant for every VM that lacks one.
                for vm in 0..self.instances[idx].slots.len() {
                    if self.instances[idx].grants[vm].is_some() {
                        continue;
                    }
                    let server = self.instances[idx].slots[vm].server;
                    let req = OverclockRequest {
                        vm: format!("svc{idx}-vm{vm}"),
                        cores: spec_cores,
                        target: plan.max_overclock(),
                        expected_utilization: m.cpu_utilization.clamp(0.0, 1.0),
                        duration: None,
                        priority: 1 + self.instances[idx].load as u32,
                        cause: self.instances[idx].wi.current_decision(),
                    };
                    match self.soas[server].request_overclock(now, req) {
                        Ok(id) => {
                            self.instances[idx].grants[vm] = Some(id);
                            self.grant_owner.insert((server, id), (idx, vm));
                        }
                        Err(_) => {
                            let deny = self.soas[server].last_admission_decision();
                            self.instances[idx].wi.notify_rejection(deny);
                            self.instances[idx].last_deny_decision = deny;
                            self.instances[idx].last_deny_at = now;
                        }
                    }
                }
                // Escalate to scale-out when overclocking alone cannot hold
                // the SLO ("a combination of ScaleUp and ScaleOut via
                // SmartOClock provides the best performance").
                let fully_oc = self.instances[idx].grants.iter().all(Option::is_some);
                let slo = self.instances[idx].sim.spec().slo_ms();
                if fully_oc && m.tail_latency_ms > slo {
                    self.instances[idx].saturated_windows += 1;
                } else {
                    self.instances[idx].saturated_windows = 0;
                }
                if self.config.system.scales_out()
                    && self.instances[idx].saturated_windows >= 5
                    && now >= self.instances[idx].scale_cooldown_until
                {
                    self.instances[idx]
                        .pending_boots
                        .push(now + self.config.boot_delay);
                    self.instances[idx].scale_cooldown_until = now + SimDuration::from_secs(60);
                    self.instances[idx].saturated_windows = 0;
                }
            } else {
                // Stop overclocking.
                for vm in 0..self.instances[idx].slots.len() {
                    if let Some(id) = self.instances[idx].grants[vm].take() {
                        let server = self.instances[idx].slots[vm].server;
                        self.soas[server].end_overclock(now, id);
                        self.grant_owner.remove(&(server, id));
                        let cap = self.caps[server];
                        let f = cap.map_or(plan.turbo(), |c| plan.turbo().min(c));
                        self.instances[idx].sim.set_vm_frequency(vm, f);
                    }
                }
                if decision.scale_in
                    && self.instances[idx].sim.active_vms() > 1
                    && now >= self.instances[idx].scale_cooldown_until
                {
                    self.remove_vm(idx);
                    self.instances[idx].scale_cooldown_until = now + SimDuration::from_secs(60);
                }
            }
            // Corrective / proactive scale-out from the WI agent.
            if decision.scale_out > 0
                && self.config.system.scales_out()
                && now >= self.instances[idx].scale_cooldown_until
            {
                for _ in 0..decision.scale_out {
                    self.instances[idx]
                        .pending_boots
                        .push(now + self.config.boot_delay);
                }
                self.instances[idx].scale_cooldown_until = now + SimDuration::from_secs(60);
            }
        }
    }

    fn apply_soa_events(&mut self, _now: SimTime, server: usize, events: &[SoaEvent]) {
        let plan = self.model.plan();
        for event in events {
            match event {
                SoaEvent::SetFrequency { grant, frequency } => {
                    if let Some(&(idx, vm)) = self.grant_owner.get(&(server, *grant)) {
                        let cap = self.caps[server];
                        let f = cap.map_or(*frequency, |c| (*frequency).min(c));
                        if vm < self.instances[idx].sim.active_vms() {
                            self.instances[idx].sim.set_vm_frequency(vm, f);
                        }
                    }
                }
                SoaEvent::GrantEnded { grant, .. } => {
                    if let Some((idx, vm)) = self.grant_owner.remove(&(server, *grant)) {
                        if vm < self.instances[idx].grants.len() {
                            self.instances[idx].grants[vm] = None;
                            if vm < self.instances[idx].sim.active_vms() {
                                self.instances[idx].sim.set_vm_frequency(vm, plan.turbo());
                            }
                        }
                    }
                }
                SoaEvent::ExhaustionWarning {
                    resource, decision, ..
                } => {
                    if self.config.proactive_scaleout
                        && self.config.system == SystemKind::SmartOClock
                        && *resource == ExhaustedResource::Lifetime
                    {
                        // Tell every instance with a grant on this server.
                        let owners: Vec<usize> = self
                            .grant_owner
                            .iter()
                            .filter(|((s, _), _)| *s == server)
                            .map(|(_, &(idx, _))| idx)
                            .collect();
                        for idx in owners {
                            self.instances[idx].wi.notify_exhaustion(*decision);
                        }
                    }
                }
            }
        }
    }

    /// Per-server power with current VM placements, frequencies, and caps.
    fn server_powers(&self, metrics: &[VmMetrics]) -> Vec<Watts> {
        let plan = self.model.plan();
        let oc_server_count = self.config.socialnet_servers + self.config.spare_servers;
        let total_servers = oc_server_count + self.config.mltrain_servers;
        // Per server: cores placed, and the dynamic power of the first
        // `model.cores()` of them summed in placement order; a server draws
        // its idle power plus that sum.
        let mut placed = vec![(0usize, Watts::ZERO); total_servers];
        for (idx, inst) in self.instances.iter().enumerate() {
            let util = metrics
                .get(idx)
                .map_or(0.0, |m| m.cpu_utilization.clamp(0.0, 1.0));
            let active = inst.sim.active_vms();
            for (vm, slot) in inst.slots.iter().enumerate().take(active) {
                let f = inst.sim.vm_frequency(vm);
                let f = self.caps[slot.server].map_or(f, |c| f.min(c));
                let (cores, dynamic) = &mut placed[slot.server];
                for _ in 0..slot.cores {
                    if *cores < self.model.cores() {
                        *dynamic += self.model.core_power(util, f);
                    }
                    *cores += 1;
                }
            }
        }
        placed
            .into_iter()
            .enumerate()
            .map(|(s, (cores, dynamic))| {
                if s >= oc_server_count {
                    // MLTrain server: uniform high utilization.
                    let j = s - oc_server_count;
                    let f = self.caps[s].unwrap_or(plan.turbo()).min(plan.turbo());
                    self.model
                        .server_power_uniform(self.mltrain[j].utilization(), f)
                } else if cores == 0 && s >= self.config.socialnet_servers {
                    // An unallocated spare server is power-gated (its
                    // capacity is accounted to other tenants until used).
                    Watts::ZERO
                } else {
                    self.model.idle() + dynamic
                }
            })
            .collect()
    }

    /// Prioritized capping: when the rack hits its limit, shed power from
    /// low-priority servers first by imposing frequency caps; clear caps
    /// once the rack is healthy again.
    fn apply_capping(
        &mut self,
        now: SimTime,
        signal: RackSignal,
        powers: &[Watts],
        metrics: &[VmMetrics],
    ) {
        let plan = self.model.plan();
        if signal != RackSignal::Capping {
            if !self.rack.is_capping() && self.caps.iter().any(Option::is_some) {
                let cleared = self.caps.iter().filter(|c| c.is_some()).count();
                for c in &mut self.caps {
                    *c = None;
                }
                for d in &mut self.cap_decisions {
                    *d = 0;
                }
                tm_event!(self.telemetry, now, Component::Harness, Severity::Info,
                    "caps_cleared", "servers" => cleared);
                // Restore throttled VMs: grants recover via the sOA feedback
                // loop; everyone else returns to turbo immediately.
                for idx in 0..self.instances.len() {
                    for vm in 0..self.instances[idx].slots.len() {
                        if vm < self.instances[idx].sim.active_vms()
                            && self.instances[idx].grants[vm].is_none()
                        {
                            self.instances[idx].sim.set_vm_frequency(vm, plan.turbo());
                        }
                    }
                }
            }
            return;
        }
        let oc_server_count = self.config.socialnet_servers + self.config.spare_servers;
        if self.config.system == SystemKind::NaiveOClock {
            // NaiveOClock "on a power capping event splits the rack's budget
            // equally among the servers" (§V-A): an unprioritized slam that
            // degrades every workload on the rack, latency-critical or not —
            // the 30-50 % frequency hits §III describes.
            let slam = MegaHertz::new((plan.base().get() + plan.turbo().get()) / 2);
            let mut capped = Vec::new();
            for s in 0..powers.len() {
                if self.is_spare(s) {
                    continue;
                }
                self.caps[s] = Some(slam);
                capped.push(s);
            }
            self.trace_capping(now, &capped);
        } else {
            let candidates: Vec<CapCandidate> = powers
                .iter()
                .enumerate()
                .filter(|(s, _)| !self.is_spare(*s))
                .map(|(s, &draw)| CapCandidate {
                    index: s,
                    // Latency-critical servers are protected; MLTrain sheds
                    // first (prioritized capping, §II).
                    priority: if s < oc_server_count { 2 } else { 1 },
                    draw,
                    min_draw: self.model.idle().min(draw),
                })
                .collect();
            let sheds = prioritized_shed(&candidates, self.rack.limit() * 0.98);
            let mut capped = Vec::new();
            for (s, shed) in sheds {
                let target = powers[s] - shed;
                self.caps[s] = Some(self.cap_frequency_for(s, target, metrics));
                capped.push(s);
            }
            self.trace_capping(now, &capped);
        }
        // Apply caps to the queueing sims immediately.
        for idx in 0..self.instances.len() {
            for vm in 0..self.instances[idx].slots.len() {
                if vm >= self.instances[idx].sim.active_vms() {
                    continue;
                }
                let server = self.instances[idx].slots[vm].server;
                if let Some(cap) = self.caps[server] {
                    let f = self.instances[idx]
                        .sim
                        .vm_frequency(vm)
                        .min(cap)
                        .max(plan.base());
                    self.instances[idx].sim.set_vm_frequency(vm, f);
                }
            }
        }
    }

    /// Telemetry for a capping pass: one `cap_set` per newly capped server,
    /// and one `revoke` (reason `cap`) per overclocking grant on a capped
    /// server — a frequency cap below the granted target effectively revokes
    /// the grant until the rack recovers. Each `cap_set` gets a fresh
    /// decision id (remembered in `cap_decisions` for later SLO-miss
    /// attribution) caused by the tick's `rack_capping` alarm, and each
    /// `revoke` chains to the `cap_set` of its server.
    fn trace_capping(&mut self, now: SimTime, capped: &[usize]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let signal_cause = self.last_signal_decision;
        let mut newly_capped = vec![false; self.caps.len()];
        for &s in capped {
            newly_capped[s] = true;
            let cap = self.caps[s].map_or(0, MegaHertz::get);
            let cap_decision = self.telemetry.next_id();
            self.cap_decisions[s] = cap_decision;
            tm_event!(self.telemetry, now, Component::Harness, Severity::Error, "cap_set",
                "server" => s, "cap_mhz" => cap,
                "decision_id" => cap_decision, "cause_id" => signal_cause);
        }
        // One ordered pass over the grant map: BTreeMap iteration is sorted
        // by (server, grant), so the revoke order is deterministic by
        // construction — no post-hoc sort needed.
        let revoked: Vec<(usize, u64, usize, usize)> = self
            .grant_owner
            .iter()
            .filter(|((srv, _), _)| newly_capped[*srv])
            .map(|(&(srv, grant), &(idx, vm))| (srv, grant.0, idx, vm))
            .collect();
        for (server, grant, idx, vm) in revoked {
            tm_event!(self.telemetry, now, Component::Harness, Severity::Error, "revoke",
                "server" => server, "grant" => grant, "service" => idx, "vm" => vm,
                "reason" => "cap",
                "decision_id" => self.telemetry.next_id(),
                "cause_id" => self.cap_decisions[server]);
            self.telemetry
                .metrics(|m| m.inc_counter("harness_revokes", &[("reason", "cap".into())]));
        }
    }

    /// Highest frequency that keeps server `s` at or below `target` watts,
    /// modelling only the cores actually allocated on that server.
    fn cap_frequency_for(&self, s: usize, target: Watts, metrics: &[VmMetrics]) -> MegaHertz {
        let plan = self.model.plan();
        let oc_server_count = self.config.socialnet_servers + self.config.spare_servers;
        // Busy-core equivalent: sum of (VM utilization x VM cores).
        let busy_cores = if s < oc_server_count {
            let mut total = 0.0;
            for (idx, inst) in self.instances.iter().enumerate() {
                for (vm, slot) in inst.slots.iter().enumerate() {
                    if slot.server == s && vm < inst.sim.active_vms() {
                        total +=
                            metrics.get(idx).map_or(0.0, |m| m.cpu_utilization) * slot.cores as f64;
                    }
                }
            }
            total
        } else {
            self.mltrain[s - oc_server_count].utilization() * self.model.cores() as f64
        };
        let mut levels = plan.levels();
        levels.reverse();
        for f in levels {
            let p = self.model.idle() + self.model.core_power(1.0, f) * busy_cores;
            if p <= target {
                return f;
            }
        }
        plan.base()
    }

    /// Recompute heterogeneous budgets from current demand (gOA role).
    fn refresh_budgets(&mut self, now: SimTime) {
        let oc_server_count = self.config.socialnet_servers + self.config.spare_servers;
        let total_servers = oc_server_count + self.config.mltrain_servers;
        // MLTrain servers keep their regular draw; they never overclock.
        let plan = self.model.plan();
        let ml_power = self.model.server_power_uniform(0.85, plan.turbo());
        let mut demands = Vec::with_capacity(total_servers);
        for s in 0..oc_server_count {
            // Regular draw estimate: idle plus the allocated cores at a
            // typical utilization (tracks actual multi-tenant occupancy far
            // better than assuming the whole socket is busy).
            let allocated = self.free_core[s] as f64;
            let regular = if s >= self.config.socialnet_servers && allocated == 0.0 {
                Watts::ZERO // power-gated spare
            } else {
                self.model.idle() + self.model.core_power(0.5, plan.turbo()) * allocated
            };
            demands.push(DemandProfile {
                regular,
                overclock_demand: self.soas[s].overclock_demand().max(Watts::new(1.0)),
            });
        }
        for _ in 0..self.config.mltrain_servers {
            demands.push(DemandProfile {
                regular: ml_power,
                overclock_demand: Watts::ZERO,
            });
        }
        // Spares live in the adequately-provisioned second rack: their sOAs
        // get a fixed ample budget and do not participate in the rack-1
        // split.
        let rack1: Vec<usize> = (0..total_servers).filter(|&s| !self.is_spare(s)).collect();
        let rack1_demands: Vec<DemandProfile> = rack1.iter().map(|&s| demands[s]).collect();
        let mut budgets = Vec::with_capacity(rack1_demands.len());
        self.goa.budgets_for(&rack1_demands, &mut budgets);
        if self.telemetry.is_enabled() {
            let allocated: f64 = budgets.iter().map(|b| b.get()).sum();
            tm_event!(self.telemetry, now, Component::Goa, Severity::Info, "budget_split",
                "rack" => 0usize,
                "servers" => budgets.len(),
                "rack_limit_w" => self.rack.limit().get(),
                "allocated_w" => allocated,
                "decision_id" => self.telemetry.next_id());
            self.telemetry
                .metrics(|m| m.inc_counter("goa_budget_splits", &[("rack", 0usize.into())]));
        }
        let faults = self.faults.at(now);
        for (&s, &b) in rack1.iter().zip(&budgets) {
            if s < oc_server_count {
                // A dropped budget-update message leaves the sOA on its
                // previous (stale) budget until the next refresh cycle.
                if faults.drops_budget_update(FaultPlan::entity_id(0, s)) {
                    continue;
                }
                self.soas[s].set_power_budget_at(now, b);
            }
        }
        let ample = self.model.server_power_uniform(1.0, plan.turbo()) * 1.2;
        for s in 0..oc_server_count {
            if self.is_spare(s) && !faults.drops_budget_update(FaultPlan::entity_id(0, s)) {
                self.soas[s].set_power_budget_at(now, ample);
            }
        }
    }

    /// Whether server index `s` is in the spare pool (the second rack).
    fn is_spare(&self, s: usize) -> bool {
        let oc_server_count = self.config.socialnet_servers + self.config.spare_servers;
        (self.config.socialnet_servers..oc_server_count).contains(&s)
    }

    fn add_vm(&mut self, idx: usize) {
        // Autoscaler max-replica guard (also bounds simulation memory).
        if self.instances[idx].slots.len() >= 4 {
            return;
        }
        let cores = self.instances[idx].sim.spec().cores_per_vm;
        let home = self.instances[idx].slots[0].server;
        let oc_server_count = self.config.socialnet_servers + self.config.spare_servers;
        // Scale-out targets spare servers first, consolidating (first-fit)
        // so unused spares stay power-gated; then other SocialNet servers,
        // then the home server as a last resort.
        // Spare servers take at most two VMs each (anti-affinity for burst
        // capacity, as production placement spreads VMs for resiliency);
        // SocialNet servers can be filled.
        let socialnet_servers = self.config.socialnet_servers;
        let fits = |s: &usize| {
            let cap = if *s >= socialnet_servers {
                2 * cores
            } else {
                self.model.cores()
            };
            self.free_core[*s] + cores <= cap
        };
        let first_fit = |pool: Vec<usize>| -> Option<usize> { pool.into_iter().find(|s| fits(s)) };
        let spare: Vec<usize> = (self.config.socialnet_servers..oc_server_count).collect();
        let social: Vec<usize> = (0..self.config.socialnet_servers)
            .filter(|&s| s != home)
            .collect();
        let Some(server) = first_fit(spare).or_else(|| first_fit(social)).or_else(|| {
            if fits(&home) {
                Some(home)
            } else {
                None
            }
        }) else {
            return; // No capacity anywhere: drop the scale-out.
        };
        let first_core = self.free_core[server];
        self.free_core[server] += cores;
        self.instances[idx].slots.push(VmSlot {
            server,
            first_core,
            cores,
        });
        self.instances[idx].grants.push(None);
        let n = self.instances[idx].slots.len();
        self.instances[idx].sim.set_active_vm_count(n);
    }

    fn remove_vm(&mut self, idx: usize) {
        // Keep at least one VM per instance; `pop` then always succeeds.
        if self.instances[idx].slots.len() <= 1 {
            return;
        }
        let Some(slot) = self.instances[idx].slots.pop() else {
            return;
        };
        if let Some(id) = self.instances[idx].grants.pop().flatten() {
            self.soas[slot.server].end_overclock(SimTime::ZERO, id);
            self.grant_owner.remove(&(slot.server, id));
        }
        // Return cores only if this was the most recent allocation.
        if self.free_core[slot.server] == slot.first_core + slot.cores {
            self.free_core[slot.server] = slot.first_core;
        }
        let n = self.instances[idx].slots.len();
        self.instances[idx].sim.set_active_vm_count(n);
    }

    fn report(self) -> ClusterResult {
        let mut instances = Vec::new();
        let socialnet_servers = self.config.socialnet_servers;
        let mut energy_by_load = [0.0f64; 3];
        let mut count_by_load = [0usize; 3];
        for (i, inst) in self.instances.iter().enumerate() {
            let (p99, mean) = if inst.latencies.is_empty() {
                (f64::NAN, f64::NAN)
            } else {
                (
                    simcore::stats::percentile(&inst.latencies, 99.0),
                    simcore::stats::mean(&inst.latencies),
                )
            };
            let load_idx = match inst.load {
                LoadLevel::Low => 0,
                LoadLevel::Medium => 1,
                LoadLevel::High => 2,
            };
            if i < socialnet_servers {
                energy_by_load[load_idx] += self.per_server_energy[i];
                count_by_load[load_idx] += 1;
            }
            instances.push(InstanceResult {
                name: inst.sim.spec().name.clone(),
                load: inst.load,
                p99_ms: p99,
                mean_ms: mean,
                slo_ms: inst.sim.spec().slo_ms(),
                missed: inst.missed,
                completed: inst.completed,
                violation_window_frac: if inst.windows == 0 {
                    0.0
                } else {
                    inst.violation_windows as f64 / inst.windows as f64
                },
            });
        }
        for (e, c) in energy_by_load.iter_mut().zip(count_by_load) {
            if c > 0 {
                *e /= c as f64;
            }
        }
        let avg_active_vms = if self.vm_count_samples.is_empty() {
            0.0
        } else {
            simcore::stats::mean(&self.vm_count_samples)
        };
        let mlt = if self.mltrain.is_empty() {
            1.0
        } else {
            self.mltrain
                .iter()
                .map(|j| j.relative_throughput())
                .sum::<f64>()
                / self.mltrain.len() as f64
        };
        let (granted, total) = self.soas.iter().fold((0, 0), |(g, t), s| {
            (g + s.stats().granted, t + s.stats().requests)
        });
        ClusterResult {
            system: self.config.system,
            instances,
            avg_active_vms,
            total_energy_j: self.total_energy_j,
            socialnet_energy_j: self.socialnet_energy_j,
            per_server_energy_by_load: energy_by_load,
            mltrain_relative_throughput: mlt,
            capping_events: self.capped_ticks,
            oc_requests: (granted, total),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_small(system: SystemKind) -> ClusterResult {
        ClusterSim::new(ClusterConfig::small_test(system)).run()
    }

    #[test]
    fn all_systems_complete_and_account() {
        for system in SystemKind::ALL {
            let r = run_small(system);
            assert_eq!(r.system, system);
            assert_eq!(r.instances.len(), 3);
            assert!(r.total_energy_j > 0.0, "{system}: energy must accumulate");
            assert!(
                r.avg_active_vms >= 3.0 - 1e-9,
                "{system}: at least one VM per instance"
            );
            assert!(
                r.instances.iter().all(|i| i.completed > 0),
                "{system}: requests must complete"
            );
        }
    }

    #[test]
    fn baseline_never_scales_or_overclocks() {
        let r = run_small(SystemKind::Baseline);
        assert_eq!(r.oc_requests, (0, 0));
        assert!((r.avg_active_vms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn smartoclock_issues_overclock_requests() {
        let r = run_small(SystemKind::SmartOClock);
        assert!(
            r.oc_requests.1 > 0,
            "high-load instances should trigger requests"
        );
        assert!(r.oc_requests.0 <= r.oc_requests.1);
    }

    #[test]
    fn smartoclock_tail_not_worse_than_baseline_at_high_load() {
        let base = run_small(SystemKind::Baseline);
        let smart = run_small(SystemKind::SmartOClock);
        let b = base.p99_by_load(LoadLevel::High);
        let s = smart.p99_by_load(LoadLevel::High);
        assert!(
            s <= b * 1.10,
            "SmartOClock P99 {s} should not regress over Baseline {b}"
        );
    }

    #[test]
    fn scaleout_uses_more_vms_than_smartoclock() {
        let scale = run_small(SystemKind::ScaleOut);
        let smart = run_small(SystemKind::SmartOClock);
        assert!(
            smart.avg_active_vms <= scale.avg_active_vms + 1e-9,
            "SmartOClock ({}) should not use more VMs than ScaleOut ({})",
            smart.avg_active_vms,
            scale.avg_active_vms
        );
    }

    #[test]
    fn power_constrained_run_caps_naive_more_than_smart() {
        let mut naive_cfg = ClusterConfig::small_test(SystemKind::NaiveOClock);
        naive_cfg.rack_limit_scale = 0.8;
        let naive = ClusterSim::new(naive_cfg).run();
        let mut smart_cfg = ClusterConfig::small_test(SystemKind::SmartOClock);
        smart_cfg.rack_limit_scale = 0.8;
        let smart = ClusterSim::new(smart_cfg).run();
        assert!(
            smart.capping_events <= naive.capping_events,
            "SmartOClock ({}) should cap no more than NaiveOClock ({})",
            smart.capping_events,
            naive.capping_events
        );
    }

    #[test]
    fn violation_window_frac_is_bounded() {
        let r = run_small(SystemKind::SmartOClock);
        let v = r.violation_window_frac();
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn faulted_run_completes_and_stays_deterministic() {
        let mut cfg = ClusterConfig::small_test(SystemKind::SmartOClock);
        cfg.faults.seed = 11;
        cfg.faults.goa_outages = 1;
        cfg.faults.goa_outage_len = SimDuration::from_minutes(2);
        cfg.faults.budget_drop_prob = 0.25;
        cfg.faults.soa_restart_prob = 0.05;
        let a = ClusterSim::new(cfg.clone()).run();
        let b = ClusterSim::new(cfg).run();
        assert!(a.total_energy_j > 0.0);
        assert!(a.instances.iter().all(|i| i.completed > 0));
        assert_eq!(a, b, "same fault seed must reproduce the same run");
    }

    #[test]
    fn zero_probability_fault_plan_matches_unfaulted_run() {
        let clean = run_small(SystemKind::SmartOClock);
        let mut cfg = ClusterConfig::small_test(SystemKind::SmartOClock);
        cfg.faults.seed = 999; // seed is irrelevant when nothing can fire
        let noop = ClusterSim::new(cfg).run();
        assert_eq!(clean, noop);
    }

    #[test]
    fn uniform_binning_config_matches_default_run() {
        let clean = run_small(SystemKind::SmartOClock);
        let mut cfg = ClusterConfig::small_test(SystemKind::SmartOClock);
        cfg.binning.seed = 777; // irrelevant: a single-bin fleet draws nothing
        cfg.binning.risk_budget = 0.4; // irrelevant: uniform parts have risk 0
        let uniform = ClusterSim::new(cfg).run();
        assert_eq!(clean, uniform);
    }

    #[test]
    fn aggressive_binning_denies_all_overclocking() {
        // Eight bins under a zero risk budget: every part has nonzero risk,
        // so every overclock request is bin-denied at admission.
        let mut cfg = ClusterConfig::small_test(SystemKind::SmartOClock);
        cfg.binning.bins = 8;
        cfg.binning.risk_budget = 0.0;
        cfg.binning.seed = 5;
        let r = ClusterSim::new(cfg.clone()).run();
        assert!(r.oc_requests.1 > 0, "requests must still be issued");
        assert_eq!(r.oc_requests.0, 0, "zero budget must deny every part");
        let again = ClusterSim::new(cfg).run();
        assert_eq!(r, again, "binned runs stay deterministic");
    }

    #[test]
    fn binned_fleet_grants_fewer_requests_than_uniform() {
        let clean = run_small(SystemKind::SmartOClock);
        let mut cfg = ClusterConfig::small_test(SystemKind::SmartOClock);
        cfg.binning.bins = 8;
        cfg.binning.risk_budget = 0.25;
        cfg.binning.wear_spread = 0.3;
        cfg.binning.seed = 5;
        let binned = ClusterSim::new(cfg).run();
        assert!(
            binned.oc_requests.0 <= clean.oc_requests.0,
            "a binned fleet ({} grants) cannot out-grant a uniform one ({})",
            binned.oc_requests.0,
            clean.oc_requests.0
        );
    }
}
