//! The row-oriented reference engine for the large-scale simulation: the
//! executable specification that `soc_cluster`'s columnar engine must match
//! byte for byte (`tests/equivalence.rs`).
//!
//! It is written against the public API only and repeats, in the plainest
//! form, every step the product takes after trace generation:
//!
//! * **training**: week-1 `DailyMed` templates with `PowerTemplate::build`,
//!   the fault plan's static `prediction_bias` applied with `map_values`,
//!   and the demand template in watts through `PowerModel::overclock_delta`;
//! * **silicon**: each part drawn with `BinningConfig::part`, risk-admitted
//!   with `SiliconPart::admit`, and its wear rate hoisted with
//!   `WearRate::hoist`;
//! * **the rack loop**: a `Vec<ServerState>` of structs, per-server
//!   `PowerTemplate::predict` and `TimeSeries::value_at` calls every step,
//!   the gOA's split recomputed at every refresh, a fault view
//!   (`FaultPlan::at`) taken for every `(t, entity)` query, and fresh
//!   per-step allocations;
//! * **the merge**: each rack into a buffered handle whose ids start at
//!   `shard_id_base(run, rack)`, absorbed in rack order.
//!
//! So a divergence from the product is a defect in training, binning, the
//! engine or the merge, not a difference in what the two were given.

use simcore::faults::FaultPlan;
use simcore::series::TimeSeries;
use simcore::time::{SimDuration, SimTime};
use smartoclock::config::{EXPLORE_CAP, EXPLORE_STEP};
use smartoclock::epoch::EpochTracker;
use smartoclock::goa::GlobalOverclockAgent;
use smartoclock::policy::PolicyKind;
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::RackOutcome;
use soc_cluster::shard::{shard_id_base, FleetTraces};
use soc_power::hierarchy::DemandProfile;
use soc_power::model::PowerModel;
use soc_power::rack::{RackMonitor, RackSignal};
use soc_power::units::{MegaHertz, Watts};
use soc_predict::template::{PowerTemplate, TemplateKind};
use soc_reliability::binning::{SiliconPart, WearRate};
use soc_reliability::thermal::Cooling;
use soc_reliability::wear::WearModel;
use soc_telemetry::{tm_event, Component, Severity, Telemetry};
use soc_traces::fleet::RackTrace;

/// Simulate one policy over a pre-generated fleet, one rack after another:
/// train, resolve silicon, run the rack into its own buffered handle, and
/// absorb the buffer into `telemetry` (a no-op when it is disabled).
/// Returns the outcomes in rack order.
pub fn simulate_policy(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    fleet: &FleetTraces,
    telemetry: &Telemetry,
) -> Vec<RackOutcome> {
    let run_id = telemetry.next_id();
    fleet
        .iter()
        .enumerate()
        .map(|(r, (rack, model))| {
            let templates = train(config, rack, model);
            let (local, buffer) = Telemetry::buffered(shard_id_base(run_id, r));
            let outcome = simulate_rack(config, policy, rack, model, &templates, &local);
            telemetry.absorb(buffer.take(), &local.metrics_snapshot());
            outcome
        })
        .collect()
}

/// Week-1 predictors of one server: the regular-power template (bias
/// applied) and the overclock demand in watts.
struct Templates {
    regular: PowerTemplate,
    demand: PowerTemplate,
}

/// Train every server's templates on the first trace week (paper §IV-B).
fn train(config: &LargeScaleConfig, rack: &RackTrace, model: &PowerModel) -> Vec<Templates> {
    let oc_freq = model.plan().max_overclock();
    let train_end = SimTime::ZERO + SimDuration::WEEK;
    let bias = config.faults.prediction_bias;
    rack.servers
        .iter()
        .map(|s| {
            let util = simcore::stats::mean(s.utilization.slice(SimTime::ZERO, train_end).values());
            let per_core_extra = model
                .overclock_delta(util.clamp(0.0, 1.0), 1, oc_freq)
                .get();
            let demand_watts = s
                .oc_demand_series(SimTime::ZERO, train_end)
                .map(|cores| cores * per_core_extra);
            let power = s.power_series(SimTime::ZERO, train_end);
            let mut regular = PowerTemplate::build(&power, TemplateKind::DailyMed);
            if bias != 1.0 {
                regular = regular.map_values(|v| v * bias);
            }
            Templates {
                regular,
                demand: PowerTemplate::build(&demand_watts, TemplateKind::DailyMed),
            }
        })
        .collect()
}

/// One server's drawn silicon: the part, its risk-admitted overclock level
/// (`None` = bin-denied) and its wear rate at that level.
struct Silicon {
    part: SiliconPart,
    eff: Option<MegaHertz>,
    wear: WearRate,
}

/// Draw and admit every server's part, or `None` for a uniform fleet. The
/// wear rate is taken at the air-cooled steady-state temperature of a fully
/// utilized server at the admitted level (turbo for a denied part, which
/// never accrues wear).
fn resolve_silicon(
    config: &LargeScaleConfig,
    rack: &RackTrace,
    model: &PowerModel,
) -> Option<Vec<Silicon>> {
    if config.binning.is_uniform() {
        return None;
    }
    let plan = model.plan();
    let base_wear = WearModel::reference(*model.curve());
    let cooling = Cooling::Air;
    let servers = (0..rack.servers.len())
        .map(|i| {
            let part = config
                .binning
                .part(&plan, FaultPlan::entity_id(rack.index, i));
            let eff = part.admit(&plan, config.binning.risk_budget, plan.max_overclock());
            let freq = eff.unwrap_or(plan.turbo());
            let temp_c = cooling.ambient_c()
                + cooling.thermal_resistance() * model.server_power_uniform(1.0, freq).get();
            let wear = WearRate::hoist(&base_wear, &part, freq, temp_c);
            Silicon { part, eff, wear }
        })
        .collect();
    Some(servers)
}

/// Per-server mutable control state.
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

/// Simulate one rack under one policy over the evaluation weeks.
fn simulate_rack(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    rack: &RackTrace,
    model: &PowerModel,
    trained: &[Templates],
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
    // Per-part silicon (None for the default uniform fleet).
    let silicon = resolve_silicon(config, rack, model);
    let step_days = config.step.as_days_f64();
    // Every server's baseline power and OC-demand cores over the whole
    // trace, read below with `TimeSeries::value_at`.
    let (power, demand): (Vec<TimeSeries>, Vec<TimeSeries>) = rack
        .servers
        .iter()
        .map(|s| {
            let end = s.utilization.end();
            (
                s.power_series(SimTime::ZERO, end),
                s.oc_demand_series(SimTime::ZERO, end),
            )
        })
        .unzip();
    let mut servers: Vec<ServerState> = trained
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
    if let Some(parts) = &silicon {
        // Admission telemetry for denied and down-binned parts, in server
        // order.
        for (i, s) in parts.iter().enumerate() {
            match s.eff {
                None => {
                    outcome.bin_denied += 1;
                    tm_event!(telemetry, train_end, Component::Sim, Severity::Warn, "bin_deny",
                        "rack" => rack.index,
                        "server" => i,
                        "policy" => policy.name(),
                        "bin" => s.part.bin,
                        "risk" => s.part.risk,
                        "decision_id" => telemetry.next_id(),
                        "cause_id" => sim_decision);
                }
                Some(f) if f < plan.max_overclock() => {
                    outcome.down_binned += 1;
                    tm_event!(telemetry, train_end, Component::Sim, Severity::Info, "down_bin",
                        "rack" => rack.index,
                        "server" => i,
                        "policy" => policy.name(),
                        "bin" => s.part.bin,
                        "risk" => s.part.risk,
                        "to_mhz" => f.get(),
                        "decision_id" => telemetry.next_id(),
                        "cause_id" => sim_decision);
                }
                Some(_) => {}
            }
        }
    }

    let mut t = train_end;
    while t < trace_end {
        // Weekly epoch boundary: refresh lifetime allowances.
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
                .iter()
                .map(|s| DemandProfile {
                    regular: Watts::new(s.regular.predict(t).max(0.0)),
                    overclock_demand: Watts::new(s.demand.predict(t).max(0.0)),
                })
                .collect();
            let mut budgets = Vec::with_capacity(demands.len());
            goa.budgets_for(&demands, &mut budgets);
            epochs.mark_refresh(t);
            for (i, (s, b)) in servers.iter_mut().zip(&budgets).enumerate() {
                let entity = FaultPlan::entity_id(rack.index, i);
                if faults.at(t).drops_budget_update(entity) {
                    // Message lost: the server stays on its stale budget.
                    dropped_updates += 1;
                    continue;
                }
                let delay = faults.at(t).budget_update_delay(entity);
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
            if faults.at(t).soa_restarts(entity) {
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
        let mut central_total: Watts = power
            .iter()
            .map(|p| Watts::new(p.value_at(t).unwrap_or(0.0)))
            .sum();
        for i in 0..n {
            let base = Watts::new(power[i].value_at(t).unwrap_or(0.0));
            base_total += base;
            let demand_cores = demand[i].value_at(t).unwrap_or(0.0);
            if demand_cores <= 0.0 {
                continue;
            }
            // Binned silicon: a bin-denied part never issues overclock
            // requests; other parts request their risk-admitted level.
            let eff_freq = match &silicon {
                Some(parts) => match parts[i].eff {
                    Some(f) => f,
                    None => continue,
                },
                None => oc_freq,
            };
            // WI telemetry gap (fault injection): the sOA never sees this
            // window's demand, so no request is even issued.
            if faults
                .at(t)
                .telemetry_gap(FaultPlan::entity_id(rack.index, i))
            {
                telemetry_gaps += 1;
                continue;
            }
            wanted[i] = true;
            outcome.requests += 1;
            let util = rack.servers[i].utilization.value_at(t).unwrap_or(0.5);
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
                    (trained[i].regular.predict(t) * faults.at(t).prediction_factor(entity))
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
                    // Binned parts run at their risk-admitted level.
                    match &silicon {
                        Some(parts) => parts[i].eff.map_or(1.0, |f| f.ratio(plan.turbo())),
                        None => oc_ratio,
                    }
                } else {
                    1.0
                };
            }
        }
        // The monitor classifies the *pre-enforcement* draw: a step whose
        // uncontrolled demand hits the limit IS a capping event, even though
        // the capping mechanism then sheds load below it.
        let signal = monitor.observe(draw);
        // When the central baseline runs fail-open through an outage,
        // nothing enforces: stale permissions stand and the rack draw lands
        // wherever demand takes it.
        let enforcement_disabled = goa_down && policy.is_central() && config.central_fail_open;
        let mut capped = false;
        if draw >= rack.limit && !enforcement_disabled {
            capped = true;
            // The capping transient hits the whole rack: every server
            // suffers a frequency penalty proportional to the overshoot.
            let dynamic: Watts = power
                .iter()
                .map(|p| {
                    (Watts::new(p.value_at(t).unwrap_or(0.0)) - model.idle()).clamp_non_negative()
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
        // limit is a power-budget violation.
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
        let warning_now = signal == RackSignal::Warning;
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
            // Rejected for power this step? Explore a bigger budget, staggered
            // across servers so a rack's explorers do not all raise their
            // budgets in the same step.
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
        // granted this step ages at its hoisted part-scaled rate, folded in
        // server order.
        if let Some(parts) = &silicon {
            for i in 0..n {
                if granted[i] {
                    let util = rack.servers[i].utilization.value_at(t).unwrap_or(0.5);
                    outcome.wear_days += parts[i].wear.at(util) * step_days;
                }
            }
        }
        outcome.steps += 1;
        t += config.step;
    }
    outcome.capping_events = monitor.capping_events();
    // Fault accounting rides in its own record so fault-free traces carry
    // none of it.
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
