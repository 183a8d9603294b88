//! Trace-driven large-scale policy simulation (paper §V-B, Table I, Fig. 6).
//!
//! Replays synthetic production traces (rack/server baseline power + per-
//! server overclocking demand, 5-minute granularity) under the five policies
//! of Table I. The first trace week trains the per-server DailyMed power
//! templates and demand profiles; the remaining weeks are simulated:
//! admission per policy, per-step rack power aggregation, warnings at 95 %
//! of the limit, capping events with prioritized shedding (overclock extras
//! are revoked first, then non-overclocked servers are throttled), and the
//! exploration/backoff dynamics of SmartOClock and NoWarning.
//!
//! The paper's own evaluation also uses a purpose-built discrete-event
//! simulator here ("We develop a discrete event simulator to evaluate
//! SmartOClock", §V-B); the full agent implementation is exercised
//! end-to-end by the cluster harness instead.

use crate::columns::PredictionRows;
pub use crate::largescale_metrics::{PolicyMetrics, RackOutcome};
use crate::probe::ShardProbe;
use simcore::faults::{FaultPlan, FaultPlanConfig};
use simcore::time::{SimDuration, SimTime};
use smartoclock::config::{EXPLORE_CAP, EXPLORE_STEP};
use smartoclock::epoch::EpochTracker;
use smartoclock::goa::GlobalOverclockAgent;
use smartoclock::policy::PolicyKind;
use soc_power::hierarchy::DemandProfile;
use soc_power::model::PowerModel;
use soc_power::rack::RackMonitor;
use soc_power::units::{MegaHertz, Watts};
use soc_predict::template::{PowerTemplate, TemplateKind};
use soc_reliability::binning::{BinningConfig, SiliconPart, WearRate};
use soc_reliability::thermal::Cooling;
use soc_reliability::wear::WearModel;
use soc_telemetry::{tm_event, Component, Severity, Telemetry};
use soc_traces::fleet::RackTrace;
use soc_traces::gen::FleetConfig;

/// Configuration of the large-scale simulation.
///
/// The control constants are not settings: exploration moves in the sOA's
/// [`EXPLORE_STEP`] up to [`EXPLORE_CAP`], and each server may overclock
/// the whole week. Table I stresses *power* management, so lifetime never
/// binds; the cluster harness's overclocking-constrained experiment covers
/// restricted lifetime budgets instead.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeScaleConfig {
    /// Number of racks to simulate.
    pub racks: usize,
    /// Trace length in weeks (week 1 trains the templates; the rest are
    /// evaluated). Must be at least 2.
    pub weeks: u64,
    /// Sampling/evaluation step.
    pub step: SimDuration,
    /// Servers per rack (min, max).
    pub servers_per_rack: (usize, usize),
    /// RNG seed for trace generation.
    pub seed: u64,
    /// Control-plane fault schedule (default: no faults). Applies only to
    /// the evaluation weeks; realized per-rack from the shared seed so fault
    /// timelines compose with sharded execution.
    pub faults: FaultPlanConfig,
    /// How the `Central` baseline behaves while the fault plan marks the
    /// gOA/central controller unreachable: `true` = fail-open (stale
    /// permissions stand, no enforcement — risks budget violations),
    /// `false` = fail-stop (deny all overclocking — forfeits OC uptime).
    pub central_fail_open: bool,
    /// Per-part silicon heterogeneity (default: uniform fleet). Realized
    /// per-server from the shared seed (stateless draws), so bin identities
    /// compose with sharded execution exactly like the fault timelines.
    pub binning: BinningConfig,
}

impl LargeScaleConfig {
    /// A small configuration for unit tests.
    pub fn small_test() -> LargeScaleConfig {
        LargeScaleConfig {
            racks: 4,
            weeks: 2,
            step: SimDuration::from_minutes(15),
            servers_per_rack: (6, 8),
            seed: 42,
            faults: FaultPlanConfig::none(),
            central_fail_open: false,
            binning: BinningConfig::uniform(),
        }
    }

    /// The bench-scale configuration: more racks, 5-minute steps, 3 weeks.
    pub fn bench_reference(racks: usize) -> LargeScaleConfig {
        LargeScaleConfig {
            racks,
            weeks: 3,
            step: SimDuration::from_minutes(5),
            servers_per_rack: (12, 16),
            seed: 42,
            faults: FaultPlanConfig::none(),
            central_fail_open: false,
            binning: BinningConfig::uniform(),
        }
    }

    pub(crate) fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            region: "largescale".into(),
            racks: self.racks,
            servers_per_rack_min: self.servers_per_rack.0,
            servers_per_rack_max: self.servers_per_rack.1,
            span: SimDuration::WEEK * self.weeks,
            step: self.step,
            // Tighter than the fleet-wide default: Table I's clusters span
            // from comfortably provisioned (low-power) to power-constrained
            // (high-power), which a wider oversubscription range produces.
            oversubscription: (1.50, 2.15),
            outlier_day_prob: 0.03,
            keep_server_series: true,
        }
    }
}

/// Per-server mutable control state of the row-oriented reference engine
/// (the columnar production engine keeps the same fields as parallel columns
/// in [`crate::columns::ServerColumns`]).
struct ServerState {
    budget: Watts,
    explore_extra: Watts,
    backoff_steps: u32,
    backoff_remaining: u32,
    /// Remaining overclock time this week.
    oc_remaining: SimDuration,
    /// A budget update delayed in flight (fault injection): applied once
    /// sim time reaches the delivery instant.
    pending_budget: Option<(SimTime, Watts)>,
}

/// Trained per-server predictors: the week-1 power template and the
/// overclock-demand profile, with the static prediction bias of the fault
/// plan already applied.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrainedServer {
    /// Regular (non-overclocked) power template.
    pub(crate) template: PowerTemplate,
    /// Overclock demand in watts (cores × per-core delta at typical
    /// utilization).
    pub(crate) demand_template: PowerTemplate,
}

/// Week-1 training output for one rack, reusable across policy variants.
///
/// Templates depend only on the trace, the power model, and
/// `config.faults.prediction_bias` — not on the policy — so multi-policy
/// drivers (`table1_policies`, `soc-benchmark`) train once and simulate many
/// times. The columnar engine's prediction rows are built from the
/// templates here too, so every policy run over the rack reads them instead
/// of rebuilding them; both fields are crate-private so they cannot drift
/// apart after training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedRack {
    /// One trained entry per server, in rack order.
    pub(crate) servers: Vec<TrainedServer>,
    /// The templates' predictions over the evaluation week, keyed by day
    /// class when no template is `Weekly` (see
    /// [`crate::columns::PredictionRows`]).
    pub(crate) rows: PredictionRows,
}

/// Build the per-server templates from the first trace week (paper §IV-B),
/// then the columnar engine's prediction rows from them.
///
/// This is the `rack/setup` phase of every large-scale path, split out from
/// [`simulate_rack`] so callers can amortize training across policy variants
/// and keep it out of timed simulation legs.
pub fn train_rack(config: &LargeScaleConfig, rack: &RackTrace, model: &PowerModel) -> TrainedRack {
    let plan = model.plan();
    let oc_freq = plan.max_overclock();
    let train_end = SimTime::ZERO + SimDuration::WEEK;
    // Static prediction bias (fault injection): the trained regular-power
    // templates systematically over- or under-predict. Applied once here so
    // per-step noise (prediction_factor) is never double-counted.
    let bias = config.faults.prediction_bias;
    let servers = rack
        .servers
        .iter()
        .map(|s| {
            let train_power = s.power.slice(SimTime::ZERO, train_end);
            let train_util = s.utilization.slice(SimTime::ZERO, train_end);
            let train_demand = s.oc_demand_cores.slice(SimTime::ZERO, train_end);
            // Demand in watts: cores × per-core delta at the typical
            // utilization of this server.
            let util = simcore::stats::mean(train_util.values());
            let per_core_extra = model
                .overclock_delta(util.clamp(0.0, 1.0), 1, oc_freq)
                .get();
            let demand_watts = train_demand.map(|cores| cores * per_core_extra);
            let mut template = PowerTemplate::build(&train_power, TemplateKind::DailyMed);
            if bias != 1.0 {
                template = template.map_values(|v| v * bias);
            }
            TrainedServer {
                template,
                demand_template: PowerTemplate::build(&demand_watts, TemplateKind::DailyMed),
            }
        })
        .collect::<Vec<_>>();
    let rows = PredictionRows::build(&servers, train_end, config.step);
    TrainedRack { servers, rows }
}

/// Resolved per-part silicon for one rack run: admitted overclock levels,
/// hoisted wear-rate coefficients, and the deny/down-bin counts.
///
/// Both engines call [`resolve_rack_silicon`] with identical arguments, so
/// every float in here is computed exactly once per rack and shared — the
/// byte-determinism contract extends to heterogeneous fleets by
/// construction. `None` (uniform config) keeps both engines on their
/// pre-binning paths, byte-for-byte.
pub(crate) struct RackSilicon {
    /// Drawn silicon per server, in rack order.
    pub parts: Vec<SiliconPart>,
    /// Risk-admitted overclock frequency per server; `None` = the part's
    /// risk exceeds the budget at every overclocked level (bin-denied).
    pub eff: Vec<Option<MegaHertz>>,
    /// Hoisted ageing-rate coefficients per server at its admitted level
    /// (placeholder at turbo for denied servers, which never accrue wear).
    pub wear: Vec<WearRate>,
    /// Servers denied all overclocking by the risk budget.
    pub bin_denied: u64,
    /// Servers admitted below the plan's maximum overclock.
    pub down_binned: u64,
}

/// Draw and risk-admit every server's silicon for one rack, hoisting the
/// per-part wear rates the step loop charges. Returns `None` for the
/// degenerate uniform config (no heterogeneity, no extra work, no new
/// telemetry — the pre-binning byte streams are preserved exactly).
///
/// Part ids reuse [`FaultPlan::entity_id`], so a server's silicon is the
/// same under sharded and serial execution and across engines. The wear
/// hoist runs each part's scaled [`WearModel`] at the air-cooled
/// steady-state junction temperature of a fully-utilized server at the
/// admitted frequency.
pub(crate) fn resolve_rack_silicon(
    config: &LargeScaleConfig,
    rack_index: usize,
    servers: usize,
    model: &PowerModel,
) -> Option<RackSilicon> {
    if config.binning.is_uniform() {
        return None;
    }
    let plan = model.plan();
    let base_wear = WearModel::reference(*model.curve());
    let cooling = Cooling::Air;
    let mut silicon = RackSilicon {
        parts: Vec::with_capacity(servers),
        eff: Vec::with_capacity(servers),
        wear: Vec::with_capacity(servers),
        bin_denied: 0,
        down_binned: 0,
    };
    for i in 0..servers {
        let part = config
            .binning
            .part(&plan, FaultPlan::entity_id(rack_index, i));
        let eff = part.admit(&plan, config.binning.risk_budget, plan.max_overclock());
        match eff {
            None => silicon.bin_denied += 1,
            Some(f) if f < plan.max_overclock() => silicon.down_binned += 1,
            Some(_) => {}
        }
        let freq = eff.unwrap_or(plan.turbo());
        let oc_power = model.server_power_uniform(1.0, freq);
        let temp_c = cooling.ambient_c() + cooling.thermal_resistance() * oc_power.get();
        silicon
            .wear
            .push(WearRate::hoist(&base_wear, &part, freq, temp_c));
        silicon.parts.push(part);
        silicon.eff.push(eff);
    }
    Some(silicon)
}

/// Emit the `bin_deny` / `down_bin` admission telemetry for one rack's
/// resolved silicon, in server order — shared verbatim by both engines so
/// heterogeneous event streams stay byte-identical.
pub(crate) fn emit_binning_events(
    silicon: &RackSilicon,
    telemetry: &Telemetry,
    at: SimTime,
    rack_index: usize,
    policy: PolicyKind,
    max_overclock: MegaHertz,
    sim_decision: u64,
) {
    for (i, (part, eff)) in silicon.parts.iter().zip(silicon.eff.iter()).enumerate() {
        match eff {
            None => {
                tm_event!(telemetry, at, Component::Sim, Severity::Warn, "bin_deny",
                    "rack" => rack_index,
                    "server" => i,
                    "policy" => policy.name(),
                    "bin" => part.bin,
                    "risk" => part.risk,
                    "decision_id" => telemetry.next_id(),
                    "cause_id" => sim_decision);
            }
            Some(f) if *f < max_overclock => {
                tm_event!(telemetry, at, Component::Sim, Severity::Info, "down_bin",
                    "rack" => rack_index,
                    "server" => i,
                    "policy" => policy.name(),
                    "bin" => part.bin,
                    "risk" => part.risk,
                    "to_mhz" => f.get(),
                    "decision_id" => telemetry.next_id(),
                    "cause_id" => sim_decision);
            }
            Some(_) => {}
        }
    }
}

/// Simulate one rack under one policy on the columnar production engine,
/// over templates already trained by [`train_rack`] (callers that train
/// inside a timed region wrap that call in their own `"rack/setup"` span).
/// `config.step` must be the trace's step, which training requires to
/// divide a day; the `shard` entry points assert it up front.
///
/// The probe sees two flat spans per step — `"rack/admission"` (per-server
/// admission checks) and `"rack/aggregation"` (power aggregation, capping
/// enforcement, and exploration bookkeeping) — plus a `sim_steps` counter on
/// completion. Hooks are observation-only: simulation state never reads
/// anything back, so probed and unprobed runs are byte-identical (see
/// `tests/prof.rs`).
///
/// # Panics
/// Panics if `trained` was built at another step than `config.step`: its
/// prediction rows would answer for the wrong instants.
pub fn simulate_rack(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    rack: &RackTrace,
    model: &PowerModel,
    trained: &TrainedRack,
    telemetry: &Telemetry,
    probe: &dyn ShardProbe,
) -> RackOutcome {
    assert_eq!(
        trained.rows.built_for(),
        (config.step, SimTime::ZERO + SimDuration::WEEK),
        "trained tables' step and training start must match the config"
    );
    crate::columns::simulate_rack_columnar(config, policy, rack, model, trained, telemetry, probe)
}

/// The pre-columnar row-oriented engine, kept verbatim as an executable
/// specification: a `Vec<ServerState>` of structs, per-server
/// `PowerTemplate::predict` calls in the inner loop, and fresh per-step
/// allocations. [`crate::columns`] must stay byte-identical to this —
/// `tests/equivalence.rs` pins it across seeds × thread counts × fault
/// plans and heterogeneous silicon.
pub fn simulate_rack_reference(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    rack: &RackTrace,
    model: &PowerModel,
    trained: &TrainedRack,
    telemetry: &Telemetry,
) -> RackOutcome {
    let plan = model.plan();
    let oc_freq = plan.max_overclock();
    let train_end = SimTime::ZERO + SimDuration::WEEK;
    let trace_end = SimTime::ZERO + SimDuration::WEEK * config.weeks;
    // The fault schedule covers the evaluation weeks only; it is a pure
    // function of the plan config, so every shard realizes the same
    // timeline regardless of execution order.
    let faults = FaultPlan::generate(&config.faults, train_end, trace_end);
    // Per-part silicon (None for the default uniform fleet): binned
    // admission levels, hoisted wear rates, and deny/down-bin counts.
    let silicon = resolve_rack_silicon(config, rack.index, rack.servers.len(), model);
    let step_days = config.step.as_days_f64();
    let mut servers: Vec<ServerState> = trained
        .servers
        .iter()
        .map(|_| ServerState {
            budget: Watts::ZERO,
            explore_extra: Watts::ZERO,
            backoff_steps: 0,
            backoff_remaining: 0,
            oc_remaining: SimDuration::WEEK,
            pending_budget: None,
        })
        .collect();

    let mut monitor = RackMonitor::new(rack.limit, 0.95);
    let mut outcome = RackOutcome::new(rack.index, rack.mean_utilization());
    outcome.limit = rack.limit;
    let mut warned_last_step = false;
    let mut epochs = EpochTracker::weekly();
    let goa = GlobalOverclockAgent::new(rack.limit, policy);
    let mut goa_was_down = false;
    let mut degraded_decision = 0u64;
    let mut dropped_updates = 0u64;
    let mut delayed_updates = 0u64;
    let mut telemetry_gaps = 0u64;
    let sim_decision = telemetry.next_id();
    tm_event!(telemetry, train_end, Component::Sim, Severity::Info, "rack_sim_start",
        "rack" => rack.index,
        "policy" => policy.name(),
        "servers" => rack.servers.len(),
        "limit_w" => rack.limit.get(),
        "decision_id" => sim_decision);
    if let Some(s) = &silicon {
        emit_binning_events(
            s,
            telemetry,
            train_end,
            rack.index,
            policy,
            plan.max_overclock(),
            sim_decision,
        );
        outcome.bin_denied = s.bin_denied;
        outcome.down_binned = s.down_binned;
    }

    let mut t = train_end;
    while t < trace_end {
        // Weekly epoch boundary: refresh lifetime allowances. This is the
        // only cross-step coupling point; between boundaries every rack
        // evolves independently, which is what lets the sharded engine
        // (`crate::shard`) deal whole racks across worker threads.
        if epochs.advance(t).is_some() {
            for s in &mut servers {
                s.oc_remaining = SimDuration::WEEK;
            }
        }
        // Delayed budget updates (fault injection) mature first: a message
        // sent during an earlier step finally lands.
        for s in servers.iter_mut() {
            if let Some((due, b)) = s.pending_budget {
                if t >= due {
                    s.budget = b;
                    s.pending_budget = None;
                }
            }
        }
        // gOA budget computation at this instant (heterogeneous or even).
        // While the fault plan marks the gOA unreachable no recomputation
        // happens: every server keeps enforcing its last-received budget —
        // the paper's stale-budget degraded mode (§III-Q5).
        let goa_down = faults.goa_unreachable(t);
        if goa_down != goa_was_down {
            goa_was_down = goa_down;
            if goa_down {
                degraded_decision = telemetry.next_id();
                tm_event!(telemetry, t, Component::Fault, Severity::Warn, "degraded_enter",
                    "rack" => rack.index,
                    "policy" => policy.name(),
                    "kind" => "goa_outage",
                    "decision_id" => degraded_decision,
                    "cause_id" => sim_decision);
            } else {
                tm_event!(telemetry, t, Component::Fault, Severity::Info, "degraded_exit",
                    "rack" => rack.index,
                    "policy" => policy.name(),
                    "stale_us" => epochs.staleness(t).unwrap_or(SimDuration::ZERO),
                    "cause_id" => degraded_decision);
                degraded_decision = 0;
            }
        }
        if goa_down {
            outcome.stale_budget_steps += 1;
        } else {
            let demands: Vec<DemandProfile> = trained
                .servers
                .iter()
                .map(|s| DemandProfile {
                    regular: Watts::new(s.template.predict(t).max(0.0)),
                    overclock_demand: Watts::new(s.demand_template.predict(t).max(0.0)),
                })
                .collect();
            let budgets = goa.budgets_for(&demands);
            epochs.mark_refresh(t);
            for (i, (s, b)) in servers.iter_mut().zip(&budgets).enumerate() {
                let entity = FaultPlan::entity_id(rack.index, i);
                if faults.drops_budget_update(t, entity) {
                    // Message lost: the server stays on its stale budget.
                    dropped_updates += 1;
                    continue;
                }
                let delay = faults.budget_update_delay(t, entity);
                if delay.is_zero() {
                    s.budget = *b;
                    s.pending_budget = None;
                } else {
                    delayed_updates += 1;
                    s.pending_budget = Some((t + delay, *b));
                }
            }
        }
        // Injected sOA restarts: volatile state is lost and the server
        // re-joins conservatively — no budget (admission denies until the
        // next refresh), no exploration state.
        for (i, s) in servers.iter_mut().enumerate() {
            let entity = FaultPlan::entity_id(rack.index, i);
            if faults.soa_restarts(t, entity) {
                s.budget = Watts::ZERO;
                s.pending_budget = None;
                s.explore_extra = Watts::ZERO;
                s.backoff_steps = 0;
                s.backoff_remaining = 0;
                outcome.restarts += 1;
                tm_event!(telemetry, t, Component::Fault, Severity::Warn, "fault_injected",
                    "rack" => rack.index,
                    "server" => i,
                    "kind" => "soa_restart",
                    "decision_id" => telemetry.next_id(),
                    "cause_id" => sim_decision);
            }
        }

        // --- Admission per server. ---
        let n = servers.len();
        let mut base_total = Watts::ZERO;
        let mut extras = vec![Watts::ZERO; n];
        let mut wanted = vec![false; n];
        let mut granted = vec![false; n];
        let mut central_total: Watts = rack
            .servers
            .iter()
            .map(|s| Watts::new(s.power.value_at(t).unwrap_or(0.0)))
            .sum();
        for i in 0..n {
            let trace = &rack.servers[i];
            let base = Watts::new(trace.power.value_at(t).unwrap_or(0.0));
            base_total += base;
            let demand_cores = trace.oc_demand_cores.value_at(t).unwrap_or(0.0);
            if demand_cores <= 0.0 {
                continue;
            }
            // Binned silicon: a bin-denied part never issues overclock
            // requests (its sOA knows the admission rule from its own risk
            // score); other parts request their risk-admitted level.
            let eff_freq = match &silicon {
                Some(s) => match s.eff.get(i).copied().flatten() {
                    Some(f) => f,
                    None => continue,
                },
                None => oc_freq,
            };
            // WI telemetry gap (fault injection): the sOA never sees this
            // window's demand, so no request is even issued.
            if faults.telemetry_gap(t, FaultPlan::entity_id(rack.index, i)) {
                telemetry_gaps += 1;
                continue;
            }
            wanted[i] = true;
            outcome.requests += 1;
            let util = trace.utilization.value_at(t).unwrap_or(0.5);
            let cores = (demand_cores as usize).min(model.cores());
            let extra = model.overclock_delta(util.clamp(0.0, 1.0), cores, eff_freq);
            // Lifetime check (all policies that check anything).
            if policy.admission_checked() && servers[i].oc_remaining < config.step {
                continue;
            }
            let admit = if !policy.admission_checked() {
                true
            } else if policy.is_central() {
                if goa_down {
                    // The central controller is the unreachable component:
                    // fail-open grants on stale permission, fail-stop denies.
                    config.central_fail_open
                } else {
                    // Oracle: actual rack draw including extras granted so
                    // far.
                    central_total + extra <= rack.limit
                }
            } else {
                // Decentralized check against the locally-held budget; the
                // fault plan may perturb the prediction (noise is a factor
                // of exactly 1.0 when unconfigured).
                let entity = FaultPlan::entity_id(rack.index, i);
                let predicted = Watts::new(
                    (trained.servers[i].template.predict(t) * faults.prediction_factor(t, entity))
                        .max(0.0),
                );
                predicted + extra <= servers[i].budget + servers[i].explore_extra
            };
            if admit {
                granted[i] = true;
                extras[i] = extra;
                central_total += extra;
                outcome.granted += 1;
                if policy.admission_checked() {
                    servers[i].oc_remaining = servers[i].oc_remaining.saturating_sub(config.step);
                }
            }
        }

        // --- Rack aggregation and enforcement. ---
        let mut draw = base_total + extras.iter().copied().sum::<Watts>();
        let mut perf = vec![0.0f64; n]; // effective speedup of demand servers
        let oc_ratio = oc_freq.ratio(plan.turbo());
        for i in 0..n {
            if wanted[i] {
                perf[i] = if granted[i] {
                    // Binned parts run at their risk-admitted level, so the
                    // speedup is that level's ratio over turbo (a pure
                    // division on hoisted operands — bit-identical to the
                    // columnar engine's per-bin ratio table).
                    match &silicon {
                        Some(s) => s
                            .eff
                            .get(i)
                            .copied()
                            .flatten()
                            .map_or(1.0, |f| f.ratio(plan.turbo())),
                        None => oc_ratio,
                    }
                } else {
                    1.0
                };
            }
        }
        // The monitor classifies the *pre-enforcement* draw: a step whose
        // uncontrolled demand hits the limit IS a capping event, even though
        // the capping mechanism immediately sheds load below it.
        // The monitor classifies the *pre-enforcement* draw: a step whose
        // uncontrolled demand hits the limit IS a capping event, even though
        // the capping mechanism then sheds load below it.
        let signal = monitor.observe(draw);
        // When the central baseline runs fail-open through an outage,
        // nothing enforces: stale permissions stand and the rack draw lands
        // wherever demand takes it — the budget-violation risk the
        // decentralized design avoids.
        let enforcement_disabled = goa_down && policy.is_central() && config.central_fail_open;
        let mut capped = false;
        if draw >= rack.limit && !enforcement_disabled {
            capped = true;
            // The capping transient hits the whole rack before the
            // controller untangles who to throttle: every server suffers a
            // frequency penalty proportional to the overshoot (this is the
            // paper's "Penalty on Power Cap" on non-overclocked VMs).
            let dynamic: Watts = rack
                .servers
                .iter()
                .map(|s| {
                    (Watts::new(s.power.value_at(t).unwrap_or(0.0)) - model.idle())
                        .clamp_non_negative()
                })
                .sum();
            let over = draw - rack.limit;
            let frac = if dynamic.get() > 0.0 {
                (over.get() / dynamic.get()).min(1.0)
            } else {
                0.0
            };
            // Dynamic power ~ f·V² ⇒ frequency penalty is sublinear.
            let freq_penalty = (1.0 - (1.0 - frac).powf(0.55)).max(0.02);
            outcome.record_penalty(freq_penalty);
            for p in perf.iter_mut() {
                *p *= 1.0 - freq_penalty;
            }
            // Enforcement then revokes overclock extras, largest first.
            let mut order: Vec<usize> = (0..n).filter(|&i| granted[i]).collect();
            order.sort_by(|&a, &b| extras[b].get().total_cmp(&extras[a].get()));
            for i in order {
                if draw < rack.limit {
                    break;
                }
                draw -= extras[i];
                extras[i] = Watts::ZERO;
                perf[i] = (1.0 - freq_penalty).min(perf[i]);
            }
            draw = draw.min(rack.limit * 0.98);
            tm_event!(telemetry, t, Component::Sim, Severity::Warn, "rack_capping",
                "rack" => rack.index,
                "policy" => policy.name(),
                "limit_w" => rack.limit.get(),
                "penalty" => freq_penalty,
                "decision_id" => telemetry.next_id(),
                "cause_id" => sim_decision);
        }
        if capped {
            outcome.capping_steps += 1;
        }
        // Post-enforcement safety audit: a draw still above the contracted
        // limit is a power-budget violation (the chaos suite pins this at
        // zero for every enforcing policy, under any fault plan).
        if draw > rack.limit {
            outcome.violation_steps += 1;
            tm_event!(telemetry, t, Component::Fault, Severity::Error, "budget_violation",
                "rack" => rack.index,
                "policy" => policy.name(),
                "draw_w" => draw.get(),
                "limit_w" => rack.limit.get(),
                "decision_id" => telemetry.next_id(),
                "cause_id" => sim_decision);
        }
        outcome.max_draw = outcome.max_draw.max(draw);
        telemetry.metrics(|m| {
            m.observe(
                "sim_rack_draw_w",
                &[("rack", rack.index.into())],
                draw.get(),
            );
        });

        // --- Exploration dynamics for the next step. ---
        let warning_now = signal == soc_power::rack::RackSignal::Warning;
        for i in 0..n {
            let s = &mut servers[i];
            if capped {
                s.explore_extra = Watts::ZERO;
                s.backoff_steps = (s.backoff_steps + 1).min(8);
                s.backoff_remaining = 1 << s.backoff_steps.min(6);
                continue;
            }
            if !policy.explores() {
                continue;
            }
            if warned_last_step && policy.heeds_warnings() && s.explore_extra > Watts::ZERO {
                s.explore_extra = (s.explore_extra - EXPLORE_STEP).clamp_non_negative();
                s.backoff_steps = (s.backoff_steps + 1).min(8);
                s.backoff_remaining = 1 << s.backoff_steps.min(6);
                continue;
            }
            if s.backoff_remaining > 0 {
                s.backoff_remaining -= 1;
                continue;
            }
            // Rejected for power this step? Explore a bigger budget.
            // Exploration is staggered across servers (each sOA's 30-second
            // explore window starts at a different phase) so a rack's
            // explorers do not all raise their budgets in the same step.
            let my_turn = (outcome.steps + i as u64).is_multiple_of(3);
            if wanted[i] && !granted[i] && my_turn && s.explore_extra < EXPLORE_CAP {
                s.explore_extra = (s.explore_extra + EXPLORE_STEP).min(EXPLORE_CAP);
            } else if granted[i] {
                s.backoff_steps = 0;
            }
        }
        warned_last_step = warning_now;

        // --- Performance bookkeeping. ---
        for i in 0..n {
            if wanted[i] {
                outcome.perf_sum += perf[i];
                outcome.perf_samples += 1;
            }
        }
        // Per-part wear accounting (heterogeneous fleets only): each server
        // granted this step ages at its hoisted part-scaled rate. Folded
        // left-to-right in server order, exactly like the columnar engine.
        if let Some(s) = &silicon {
            for ((was_granted, trace), rate) in granted.iter().zip(&rack.servers).zip(&s.wear) {
                if *was_granted {
                    let util = trace.utilization.value_at(t).unwrap_or(0.5);
                    outcome.wear_days += rate.at(util) * step_days;
                }
            }
        }
        outcome.steps += 1;
        t += config.step;
    }
    outcome.capping_events = monitor.capping_events();
    // Fault accounting rides in its own record so fault-free traces stay
    // byte-for-byte what they were before the faults layer existed.
    if !faults.is_noop() {
        tm_event!(telemetry, trace_end, Component::Fault, Severity::Info, "rack_fault_summary",
            "rack" => rack.index,
            "policy" => policy.name(),
            "outages" => faults.outages().len(),
            "stale_steps" => outcome.stale_budget_steps,
            "violation_steps" => outcome.violation_steps,
            "restarts" => outcome.restarts,
            "dropped_updates" => dropped_updates,
            "delayed_updates" => delayed_updates,
            "telemetry_gaps" => telemetry_gaps,
            "cause_id" => sim_decision);
    }
    tm_event!(telemetry, trace_end, Component::Sim, Severity::Info, "rack_sim_end",
        "rack" => rack.index,
        "policy" => policy.name(),
        "cause_id" => sim_decision,
        "steps" => outcome.steps,
        "requests" => outcome.requests,
        "granted" => outcome.granted,
        "capping_steps" => outcome.capping_steps,
        "capping_events" => outcome.capping_events);
    telemetry.metrics(|m| {
        let policy_label = [("policy", policy.name().into())];
        m.inc_counter_by("sim_requests", &policy_label, outcome.requests);
        m.inc_counter_by("sim_grants", &policy_label, outcome.granted);
        m.inc_counter_by("sim_capping_steps", &policy_label, outcome.capping_steps);
        if silicon.is_some() {
            m.inc_counter_by("sim_bin_denied", &policy_label, outcome.bin_denied);
            m.inc_counter_by("sim_down_binned", &policy_label, outcome.down_binned);
        }
    });
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoopProbe;
    use crate::shard::simulate_policy_sharded_probed;

    fn simulate(config: &LargeScaleConfig, policy: PolicyKind) -> Vec<RackOutcome> {
        simulate_policy_sharded_probed(config, policy, &Telemetry::disabled(), 1, &NoopProbe)
    }

    fn run(policy: PolicyKind) -> Vec<RackOutcome> {
        simulate(&LargeScaleConfig::small_test(), policy)
    }

    #[test]
    fn all_policies_produce_outcomes() {
        for policy in PolicyKind::ALL {
            let outcomes = run(policy);
            assert_eq!(outcomes.len(), 4);
            for o in &outcomes {
                assert!(o.steps > 0);
                assert!(o.granted <= o.requests);
            }
        }
    }

    #[test]
    fn naive_grants_everything() {
        let outcomes = run(PolicyKind::NaiveOClock);
        for o in &outcomes {
            assert_eq!(o.granted, o.requests, "NaiveOClock must grant all requests");
        }
    }

    #[test]
    fn naive_caps_at_least_as_much_as_smart() {
        let naive: u64 = run(PolicyKind::NaiveOClock)
            .iter()
            .map(|o| o.capping_events)
            .sum();
        let smart: u64 = run(PolicyKind::SmartOClock)
            .iter()
            .map(|o| o.capping_events)
            .sum();
        assert!(
            smart <= naive,
            "SmartOClock ({smart}) must not cap more than NaiveOClock ({naive})"
        );
    }

    #[test]
    fn central_never_caps() {
        // The oracle admits only what actually fits.
        let outcomes = run(PolicyKind::Central);
        let caps: u64 = outcomes.iter().map(|o| o.capping_events).sum();
        assert_eq!(caps, 0, "Central has a perfect view and should never cap");
    }

    #[test]
    fn smart_success_rate_at_least_nofeedback() {
        let agg = |p| PolicyMetrics::aggregate(p, &run(p));
        let smart = agg(PolicyKind::SmartOClock);
        let nofb = agg(PolicyKind::NoFeedback);
        assert!(
            smart.success_rate >= nofb.success_rate - 1e-9,
            "exploration should help: smart {} vs nofeedback {}",
            smart.success_rate,
            nofb.success_rate
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(PolicyKind::SmartOClock);
        let b = run(PolicyKind::SmartOClock);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.requests, y.requests);
            assert_eq!(x.granted, y.granted);
            assert_eq!(x.capping_events, y.capping_events);
        }
    }

    #[test]
    fn outage_marks_stale_steps_but_smart_never_violates() {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.faults.goa_outages = 1;
        cfg.faults.goa_outage_len = SimDuration::from_hours(12);
        let outcomes = simulate(&cfg, PolicyKind::SmartOClock);
        assert!(
            outcomes.iter().any(|o| o.stale_budget_steps > 0),
            "a 12h outage must leave stale-budget steps"
        );
        for o in &outcomes {
            assert_eq!(o.violation_steps, 0, "rack {} violated", o.rack);
            assert!(o.max_draw <= o.limit);
        }
    }

    #[test]
    fn zero_fault_config_matches_default_run() {
        let base = simulate(&LargeScaleConfig::small_test(), PolicyKind::SmartOClock);
        // Same zero-probability plan under a different fault seed: the
        // timeline is empty either way, so outcomes are identical.
        let mut cfg = LargeScaleConfig::small_test();
        cfg.faults.seed = 999;
        let with_plan = simulate(&cfg, PolicyKind::SmartOClock);
        assert_eq!(base, with_plan);
    }

    #[test]
    fn uniform_binning_config_matches_default_run() {
        let base = simulate(&LargeScaleConfig::small_test(), PolicyKind::SmartOClock);
        // A uniform (single-bin, zero-spread) binning config is
        // byte-transparent no matter its seed or risk budget: the lottery
        // is degenerate, so outcomes are identical to the pre-binning run.
        let mut cfg = LargeScaleConfig::small_test();
        cfg.binning.seed = 999;
        cfg.binning.risk_budget = 0.25;
        let with_binning = simulate(&cfg, PolicyKind::SmartOClock);
        assert_eq!(base, with_binning);
    }

    #[test]
    fn binned_fleet_reports_denials_and_wear() {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.binning.bins = 8;
        cfg.binning.risk_budget = 0.2;
        cfg.binning.wear_spread = 0.3;
        cfg.binning.seed = 5;
        let outcomes = simulate(&cfg, PolicyKind::SmartOClock);
        let denied: u64 = outcomes.iter().map(|o| o.bin_denied).sum();
        let down: u64 = outcomes.iter().map(|o| o.down_binned).sum();
        assert!(
            denied + down > 0,
            "aggressive binning must deny or down-bin some parts"
        );
        let wear: f64 = outcomes.iter().map(|o| o.wear_days).sum();
        assert!(wear > 0.0, "granted overclocking must accrue per-part wear");
        let m = PolicyMetrics::aggregate(PolicyKind::SmartOClock, &outcomes);
        assert_eq!(m.bin_denied, denied);
        assert_eq!(m.down_binned, down);
    }

    #[test]
    #[should_panic(expected = "trained tables' step and training start must match")]
    fn rejects_a_fleet_trained_at_another_step() {
        use crate::shard::{
            generate_fleet_probed, simulate_policy_prepared_probed, train_fleet_probed,
        };
        let cfg = LargeScaleConfig::small_test();
        let fleet = generate_fleet_probed(&cfg, 1, &NoopProbe);
        let trained = train_fleet_probed(&cfg, &fleet, 1, &NoopProbe);
        // 30 minutes divides a day, so only the trained tables can object.
        let coarser = LargeScaleConfig {
            step: SimDuration::from_minutes(30),
            ..cfg
        };
        let _ = simulate_policy_prepared_probed(
            &coarser,
            PolicyKind::SmartOClock,
            &fleet,
            &trained,
            &Telemetry::disabled(),
            1,
            &NoopProbe,
        );
    }

    #[test]
    #[should_panic(expected = "at least one training")]
    fn rejects_single_week() {
        let mut cfg = LargeScaleConfig::small_test();
        cfg.weeks = 1;
        let _ = simulate(&cfg, PolicyKind::SmartOClock);
    }
}
