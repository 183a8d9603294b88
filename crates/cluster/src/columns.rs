//! Columnar (struct-of-arrays) rack simulation engine.
//!
//! The production hot path behind [`crate::largescale::simulate_rack`].
//! Where the retained reference engine
//! ([`crate::largescale::simulate_rack_reference`]) keeps a `Vec<ServerState>`
//! of structs and calls `PowerTemplate::predict` / `TimeSeries::value_at` per
//! server per step, this engine keeps every mutable field as its own column
//! ([`ServerColumns`]), hoists the per-step sample index and template slot
//! out of the inner server loop, and reuses one set of per-step scratch
//! buffers ([`StepBuffers`]) for the whole run — so power aggregation is a
//! linear scan over a `f64` column and steady-state allocation count does not
//! scale with simulated steps.
//!
//! **Byte-determinism contract.** Output (outcomes, telemetry events,
//! metrics, decision ids) must be byte-identical to the reference engine.
//! Three rules keep the transformation safe:
//!
//! 1. every floating-point operation whose result reaches an output happens
//!    in the same order on the same values (accumulators fold left-to-right
//!    over servers in rack order, exactly as the reference's `+=` loops);
//! 2. only *pure* computations are cached or batched (`TimeSeries::index_at`
//!    replaces repeated `value_at` divisions; `TemplateSlot` replaces
//!    repeated `SimTime` decompositions — both provably return the values
//!    the per-call forms would);
//! 3. computations whose results reach no output may be skipped (the central
//!    oracle's running rack total is not computed for decentralized
//!    policies), and allocations never affect results.
//!
//! `tests/equivalence.rs` pins the contract across seeds × thread counts ×
//! fault plans, and every `soc-benchmark` round re-checks the engine's
//! output against a committed digest.

use crate::largescale::{
    emit_binning_events, resolve_rack_silicon, LargeScaleConfig, TrainedRack, TrainedServer,
};
use crate::largescale_metrics::RackOutcome;
use crate::probe::ShardProbe;
use simcore::faults::FaultPlan;
use simcore::time::{SimDuration, SimTime};
use smartoclock::config::{EXPLORE_CAP, EXPLORE_STEP};
use smartoclock::epoch::EpochTracker;
use smartoclock::goa::GlobalOverclockAgent;
use smartoclock::policy::PolicyKind;
use soc_power::hierarchy::DemandProfile;
use soc_power::model::{OverclockDeltaFn, PowerModel};
use soc_power::rack::RackMonitor;
use soc_power::units::{MegaHertz, Watts};
use soc_predict::template::TemplateSlot;
use soc_telemetry::{tm_event, Component, Severity, Telemetry};
use soc_traces::fleet::{RackTrace, ServerSeriesView};

/// Per-server mutable control state as parallel columns, one slot per server
/// in rack order. The safe API never exposes unchecked indexing: column
/// passes are zipped iterations, so all-columns updates stay in lockstep by
/// construction.
#[derive(Debug, Clone)]
pub struct ServerColumns {
    budget: Vec<Watts>,
    explore_extra: Vec<Watts>,
    backoff_steps: Vec<u32>,
    backoff_remaining: Vec<u32>,
    /// Remaining overclock time this week.
    oc_remaining: Vec<SimDuration>,
    /// A budget update delayed in flight (fault injection): applied once
    /// sim time reaches the delivery instant.
    pending_budget: Vec<Option<(SimTime, Watts)>>,
}

impl ServerColumns {
    /// Fresh state for `n` servers, each with a full weekly overclock
    /// allowance (the whole week, see [`LargeScaleConfig`]), zero budget,
    /// and no exploration or backoff state.
    pub fn new(n: usize) -> ServerColumns {
        ServerColumns {
            budget: vec![Watts::ZERO; n],
            explore_extra: vec![Watts::ZERO; n],
            backoff_steps: vec![0; n],
            backoff_remaining: vec![0; n],
            oc_remaining: vec![SimDuration::WEEK; n],
            pending_budget: vec![None; n],
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.budget.len()
    }

    /// `true` when there are no servers.
    pub fn is_empty(&self) -> bool {
        self.budget.is_empty()
    }

    /// Weekly epoch boundary: refresh every server's lifetime allowance.
    fn refresh_allowances(&mut self) {
        self.oc_remaining.fill(SimDuration::WEEK);
    }

    /// Delayed budget updates mature: any pending update whose delivery
    /// instant has been reached replaces the live budget.
    fn mature_pending(&mut self, t: SimTime) {
        for (budget, pending) in self.budget.iter_mut().zip(self.pending_budget.iter_mut()) {
            if let Some((due, b)) = *pending {
                if t >= due {
                    *budget = b;
                    *pending = None;
                }
            }
        }
    }

    /// Read-only view of the remaining weekly overclock allowances.
    pub fn oc_remaining(&self) -> &[SimDuration] {
        &self.oc_remaining
    }

    /// Read-only view of the live per-server budgets.
    pub fn budgets(&self) -> &[Watts] {
        &self.budget
    }
}

/// Per-step scratch columns, allocated once per rack run and reused every
/// step (cleared + refilled in place), so the steady state allocates
/// nothing.
#[derive(Debug, Default)]
pub struct StepBuffers {
    /// Per-server baseline power draw this step, watts.
    base_w: Vec<f64>,
    /// Per-server regular-power template prediction this step.
    predicted: Vec<f64>,
    /// Granted overclock extras this step.
    extras: Vec<Watts>,
    /// Server requested overclocking this step.
    wanted: Vec<bool>,
    /// Request was admitted this step.
    granted: Vec<bool>,
    /// Effective speedup of demand servers this step.
    perf: Vec<f64>,
    /// Demand profiles exchanged with the gOA on refresh steps.
    demands: Vec<DemandProfile>,
    /// Budgets computed by the gOA on refresh steps.
    budgets: Vec<Watts>,
    /// Capping revoke order: `(server, extra)` pairs, largest extra first.
    order: Vec<(usize, Watts)>,
}

impl StepBuffers {
    /// Buffers pre-sized for `n` servers.
    pub fn with_capacity(n: usize) -> StepBuffers {
        StepBuffers {
            base_w: Vec::with_capacity(n),
            predicted: Vec::with_capacity(n),
            extras: Vec::with_capacity(n),
            wanted: Vec::with_capacity(n),
            granted: Vec::with_capacity(n),
            perf: Vec::with_capacity(n),
            demands: Vec::with_capacity(n),
            budgets: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
        }
    }
}

/// Batched baseline-power read for one step: fills `out` with every server's
/// power sample at slot `idx` (0.0 past the end of a trace, matching
/// `TimeSeries::value_at(t).unwrap_or(0.0)`) and returns the rack total,
/// folded left-to-right in server order.
fn fill_base_power(views: &[ServerSeriesView<'_>], idx: usize, out: &mut Vec<f64>) -> Watts {
    out.clear();
    let mut total = Watts::ZERO;
    out.extend(views.iter().map(|v| {
        let w = v.power.get(idx).copied().unwrap_or(0.0);
        total += Watts::new(w);
        w
    }));
    total
}

/// Memoized per-slot template predictions and gOA budget rows for one rack
/// run.
///
/// Every field of [`TemplateSlot`] (`time_of_day`, `time_of_week`,
/// `weekday`) is periodic in `t` with period one week, and the step divides
/// a week evenly (it divides a day: template training and
/// `shard::validate` both assert it), so the tick at step `k` and the tick
/// at step `k + slots_per_week` land on the *same* slot and therefore the
/// same prediction. The tables evaluate `predict_at` once per (weekly slot ×
/// server) up front and replay the identical `f64`s on every later week —
/// pure-function memoization, rule 2 of the module contract. gOA budget
/// rows are themselves a pure function of the demand row (the agent is
/// stateless), so each row is computed the first time its slot is visited
/// and replayed afterwards.
struct SlotTables {
    /// Weekly slot count (`WEEK / step`); the table period.
    slots: usize,
    /// Servers per row.
    n: usize,
    /// Raw `template.predict_at` per server, slot-major: `[w * n + i]`.
    regular: Vec<f64>,
    /// Raw `demand_template.predict_at` per server, slot-major.
    demand: Vec<f64>,
    /// gOA budgets per server, slot-major, rows filled lazily.
    budgets: Vec<Watts>,
    /// Which budget rows have been computed.
    budgets_ready: Vec<bool>,
}

impl SlotTables {
    /// Build the prediction tables for one rack's evaluation ticks starting
    /// at `start`; `step` is the templates' training step, which divides a
    /// day and therefore the week.
    fn build(servers: &[TrainedServer], start: SimTime, step: SimDuration) -> SlotTables {
        let slots = (SimDuration::WEEK.as_micros() / step.as_micros()) as usize;
        let n = servers.len();
        let mut regular = Vec::with_capacity(slots * n);
        let mut demand = Vec::with_capacity(slots * n);
        let mut t = start;
        for _ in 0..slots {
            // The exact pure calls the per-step path would make at this tick
            // (and at this tick plus any whole number of weeks).
            let slot = TemplateSlot::at(t, step);
            regular.extend(servers.iter().map(|s| s.template.predict_at(slot)));
            demand.extend(servers.iter().map(|s| s.demand_template.predict_at(slot)));
            t += step;
        }
        SlotTables {
            slots,
            n,
            regular,
            demand,
            budgets: vec![Watts::ZERO; slots * n],
            budgets_ready: vec![false; slots],
        }
    }

    /// Weekly slot index of evaluation step `k` (steps since the first
    /// evaluated tick).
    fn slot_of_step(&self, k: u64) -> usize {
        (k % self.slots as u64) as usize
    }

    /// `true` when slot `w`'s budget row has been computed and stored.
    fn budgets_ready(&self, w: usize) -> bool {
        self.budgets_ready.get(w).copied().unwrap_or(false)
    }

    // Row accessors are non-panicking by construction: `w` always comes
    // from `slot_of_step`, so `w < slots` and the range is in bounds; the
    // `get` forms keep that a structural fact rather than a runtime panic
    // path (an out-of-range row would read empty, never abort a shard).

    fn regular_row(&self, w: usize) -> &[f64] {
        self.regular
            .get(w * self.n..(w + 1) * self.n)
            .unwrap_or(&[])
    }

    fn demand_row(&self, w: usize) -> &[f64] {
        self.demand.get(w * self.n..(w + 1) * self.n).unwrap_or(&[])
    }

    fn budgets_row(&self, w: usize) -> &[Watts] {
        self.budgets
            .get(w * self.n..(w + 1) * self.n)
            .unwrap_or(&[])
    }

    fn store_budgets(&mut self, w: usize, row: &[Watts]) {
        for (dst, src) in self.budgets.iter_mut().skip(w * self.n).zip(row) {
            *dst = *src;
        }
        if let Some(ready) = self.budgets_ready.get_mut(w) {
            *ready = true;
        }
    }
}

/// Columnar counterpart of
/// [`crate::largescale::simulate_rack_reference`]; see the module docs for
/// the byte-determinism contract.
pub(crate) fn simulate_rack_columnar(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    rack: &RackTrace,
    model: &PowerModel,
    trained: &TrainedRack,
    telemetry: &Telemetry,
    probe: &dyn ShardProbe,
) -> RackOutcome {
    let plan = model.plan();
    let oc_freq = plan.max_overclock();
    // Frequency factors of the admission-time overclock delta, hoisted out
    // of the per-server loop (bit-identical per `overclock_delta_fn` docs).
    let oc_delta = model.overclock_delta_fn(oc_freq);
    let train_end = SimTime::ZERO + SimDuration::WEEK;
    let trace_end = SimTime::ZERO + SimDuration::WEEK * config.weeks;
    // The fault schedule covers the evaluation weeks only; it is a pure
    // function of the plan config, so every shard realizes the same
    // timeline regardless of execution order.
    let faults = FaultPlan::generate(&config.faults, train_end, trace_end);
    let n = rack.servers.len();
    // Per-part silicon (None for the default uniform fleet): binned
    // admission levels, hoisted wear rates, deny/down-bin counts.
    let silicon = resolve_rack_silicon(config, rack.index, n, model);
    let step_days = config.step.as_days_f64();
    /// Compact `bin_id` marker for servers whose part admits no overclock.
    const BIN_DENIED: u32 = u32::MAX;
    // Per-bin factor tables, keyed by the compact per-server `bin_id`
    // column: one overclock-delta fn and one turbo ratio per distinct
    // risk-admitted frequency level. The uniform fleet collapses to a
    // single level at `plan.max_overclock()` — exactly the pre-binning
    // hoist, so the degenerate config replays the same floats.
    let (bin_ids, bin_delta, bin_ratio): (Vec<u32>, Vec<OverclockDeltaFn>, Vec<f64>) =
        match &silicon {
            None => (
                vec![0; n],
                vec![oc_delta],
                vec![oc_freq.ratio(plan.turbo())],
            ),
            Some(s) => {
                let mut levels: Vec<MegaHertz> = s.eff.iter().copied().flatten().collect();
                levels.sort_unstable();
                levels.dedup();
                let ids = s
                    .eff
                    .iter()
                    .map(|e| match e {
                        Some(f) => levels.binary_search(f).map_or(BIN_DENIED, |k| k as u32),
                        None => BIN_DENIED,
                    })
                    .collect();
                let delta = levels
                    .iter()
                    .map(|&f| model.overclock_delta_fn(f))
                    .collect();
                let ratio = levels.iter().map(|&f| f.ratio(plan.turbo())).collect();
                (ids, delta, ratio)
            }
        };
    let mut cols = ServerColumns::new(n);
    let mut buf = StepBuffers::with_capacity(n);
    let mut tables = SlotTables::build(&trained.servers, train_end, config.step);
    // Borrowed raw-sample slices, hoisted once per rack: all per-server
    // series share the trace's start (time zero) and step, so one slot index
    // per step addresses every column.
    let views: Vec<ServerSeriesView<'_>> = rack.servers.iter().map(|s| s.view()).collect();
    let admission_checked = policy.admission_checked();
    let central = policy.is_central();
    let decentral_check = admission_checked && !central;

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
    // The contracted limit as a (constant) health series, so draw can be
    // reported as a fraction of it.
    probe.gauge(
        train_end.as_micros(),
        "rack_limit_w",
        rack.index as u64,
        rack.limit.get(),
    );
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
            cols.refresh_allowances();
        }
        // Delayed budget updates (fault injection) mature first: a message
        // sent during an earlier step finally lands.
        cols.mature_pending(t);
        // Sample slot and weekly template slot for this instant, computed
        // once and shared by every per-server read below (the batched-lookup
        // hoist).
        let idx = rack.power.index_at(t).unwrap_or(usize::MAX);
        let w = tables.slot_of_step(outcome.steps);
        // gOA budget computation at this instant (heterogeneous or even).
        // While the fault plan marks the gOA unreachable no recomputation
        // happens: every server keeps enforcing its last-received budget —
        // the paper's stale-budget degraded mode (§III-Q5).
        let goa_down = faults.goa_unreachable(t);
        // This instant's point faults, hashed once per enabled kind; each
        // per-server query below is then one more mix.
        let step_faults = faults.at(t);
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
            // The first visit to a weekly slot computes the budget row from
            // the prediction tables; later weeks replay it.
            if tables.budgets_ready(w) {
                buf.budgets.clear();
                buf.budgets.extend_from_slice(tables.budgets_row(w));
            } else {
                buf.demands.clear();
                buf.demands
                    .extend(tables.regular_row(w).iter().zip(tables.demand_row(w)).map(
                        |(&r, &d)| DemandProfile {
                            regular: Watts::new(r.max(0.0)),
                            overclock_demand: Watts::new(d.max(0.0)),
                        },
                    ));
                goa.budgets_for_into(&buf.demands, &mut buf.budgets);
                tables.store_budgets(w, &buf.budgets);
            }
            epochs.mark_refresh(t);
            for (i, ((budget, pending), b)) in cols
                .budget
                .iter_mut()
                .zip(cols.pending_budget.iter_mut())
                .zip(buf.budgets.iter())
                .enumerate()
            {
                let entity = FaultPlan::entity_id(rack.index, i);
                if step_faults.drops_budget_update(entity) {
                    // Message lost: the server stays on its stale budget.
                    dropped_updates += 1;
                    continue;
                }
                let delay = step_faults.budget_update_delay(entity);
                if delay.is_zero() {
                    *budget = *b;
                    *pending = None;
                } else {
                    delayed_updates += 1;
                    *pending = Some((t + delay, *b));
                }
            }
        }
        // Injected sOA restarts: volatile state is lost and the server
        // re-joins conservatively — no budget (admission denies until the
        // next refresh), no exploration state.
        if step_faults.any_soa_restarts() {
            for (i, ((((budget, pending), explore), b_steps), b_rem)) in cols
                .budget
                .iter_mut()
                .zip(cols.pending_budget.iter_mut())
                .zip(cols.explore_extra.iter_mut())
                .zip(cols.backoff_steps.iter_mut())
                .zip(cols.backoff_remaining.iter_mut())
                .enumerate()
            {
                let entity = FaultPlan::entity_id(rack.index, i);
                if step_faults.soa_restarts(entity) {
                    *budget = Watts::ZERO;
                    *pending = None;
                    *explore = Watts::ZERO;
                    *b_steps = 0;
                    *b_rem = 0;
                    outcome.restarts += 1;
                    tm_event!(telemetry, t, Component::Fault, Severity::Warn, "fault_injected",
                        "rack" => rack.index,
                        "server" => i,
                        "kind" => "soa_restart",
                        "decision_id" => telemetry.next_id(),
                        "cause_id" => sim_decision);
                }
            }
        }

        // --- Admission per server. ---
        let admission_span = probe.span("rack/admission");
        // Batched column fills replace the reference engine's per-server
        // `value_at`/`predict` calls; values and fold order are identical.
        let base_total = fill_base_power(&views, idx, &mut buf.base_w);
        buf.predicted.clear();
        if decentral_check {
            // Memoized raw `predict_at` at this slot (no clamping).
            buf.predicted.extend_from_slice(tables.regular_row(w));
        } else {
            // Placeholder column so the admission zip below stays in
            // lockstep; never read on this policy's admit path.
            buf.predicted.resize(n, 0.0);
        }
        // The central oracle's running rack total; decentralized policies
        // never read it, so the reference engine's unconditional pre-sum is
        // skipped for them (rule 3 of the module contract).
        let mut central_total = if central { base_total } else { Watts::ZERO };
        buf.extras.clear();
        buf.extras.resize(n, Watts::ZERO);
        buf.wanted.clear();
        buf.wanted.resize(n, false);
        buf.granted.clear();
        buf.granted.resize(n, false);
        for (
            i,
            ((((((((view, want), grant), extra_slot), oc_rem), budget), explore), pred), bin),
        ) in views
            .iter()
            .zip(buf.wanted.iter_mut())
            .zip(buf.granted.iter_mut())
            .zip(buf.extras.iter_mut())
            .zip(cols.oc_remaining.iter_mut())
            .zip(cols.budget.iter())
            .zip(cols.explore_extra.iter())
            .zip(buf.predicted.iter())
            .zip(bin_ids.iter())
            .enumerate()
        {
            let demand_cores = view.oc_demand_cores.get(idx).copied().unwrap_or(0.0);
            if demand_cores <= 0.0 {
                continue;
            }
            // Binned silicon: a bin-denied part never issues overclock
            // requests (its sOA knows the admission rule from its own risk
            // score); other parts request their risk-admitted level.
            if *bin == BIN_DENIED {
                continue;
            }
            // WI telemetry gap (fault injection): the sOA never sees this
            // window's demand, so no request is even issued.
            if step_faults.telemetry_gap(FaultPlan::entity_id(rack.index, i)) {
                telemetry_gaps += 1;
                continue;
            }
            *want = true;
            outcome.requests += 1;
            let util = view.utilization.get(idx).copied().unwrap_or(0.5);
            let cores = (demand_cores as usize).min(model.cores());
            let Some(delta) = bin_delta.get(*bin as usize) else {
                continue;
            };
            let extra = delta.at(util.clamp(0.0, 1.0), cores);
            // Lifetime check (all policies that check anything).
            if admission_checked && *oc_rem < config.step {
                continue;
            }
            let admit = if !admission_checked {
                true
            } else if central {
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
                let predicted = Watts::new((pred * step_faults.prediction_factor(entity)).max(0.0));
                predicted + extra <= *budget + *explore
            };
            if admit {
                *grant = true;
                *extra_slot = extra;
                if central {
                    central_total += extra;
                }
                outcome.granted += 1;
                if admission_checked {
                    *oc_rem = oc_rem.saturating_sub(config.step);
                }
            }
        }

        // --- Rack aggregation and enforcement. ---
        drop(admission_span);
        let aggregation_span = probe.span("rack/aggregation");
        let mut draw = base_total + buf.extras.iter().copied().sum::<Watts>();
        buf.perf.clear();
        buf.perf.resize(n, 0.0); // effective speedup of demand servers
        for (((p, want), grant), bin) in buf
            .perf
            .iter_mut()
            .zip(buf.wanted.iter())
            .zip(buf.granted.iter())
            .zip(bin_ids.iter())
        {
            if *want {
                // A granted server runs at its bin's risk-admitted level;
                // the ratio table holds each level's speedup over turbo.
                *p = if *grant {
                    bin_ratio.get(*bin as usize).copied().unwrap_or(1.0)
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
        // wherever demand takes it — the budget-violation risk the
        // decentralized design avoids.
        let enforcement_disabled = goa_down && central && config.central_fail_open;
        let mut capped = false;
        if draw >= rack.limit && !enforcement_disabled {
            capped = true;
            // The capping transient hits the whole rack before the
            // controller untangles who to throttle: every server suffers a
            // frequency penalty proportional to the overshoot (this is the
            // paper's "Penalty on Power Cap" on non-overclocked VMs).
            // Linear scan over the already-read base-power column — the
            // reference engine re-walks every server's TimeSeries here.
            let dynamic: Watts = buf
                .base_w
                .iter()
                .map(|&w| (Watts::new(w) - model.idle()).clamp_non_negative())
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
            for p in buf.perf.iter_mut() {
                *p *= 1.0 - freq_penalty;
            }
            // Enforcement then revokes overclock extras, largest first.
            // Stable sort on (index, extra) pairs: ties keep ascending
            // server order, exactly like the reference's index sort.
            buf.order.clear();
            buf.order.extend(
                buf.granted
                    .iter()
                    .zip(buf.extras.iter())
                    .enumerate()
                    .filter(|(_, (g, _))| **g)
                    .map(|(i, (_, e))| (i, *e)),
            );
            buf.order.sort_by(|a, b| b.1.get().total_cmp(&a.1.get()));
            for (i, extra) in buf.order.iter() {
                if draw < rack.limit {
                    break;
                }
                draw -= *extra;
                if let Some(e) = buf.extras.get_mut(*i) {
                    *e = Watts::ZERO;
                }
                if let Some(p) = buf.perf.get_mut(*i) {
                    *p = (1.0 - freq_penalty).min(*p);
                }
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
        // Pure observation (works with telemetry disabled): per-step rack
        // draw for health series. One worker feeds each rack, in time order.
        probe.gauge(t.as_micros(), "rack_draw_w", rack.index as u64, draw.get());
        telemetry.metrics(|m| {
            m.observe(
                "sim_rack_draw_w",
                &[("rack", rack.index.into())],
                draw.get(),
            );
        });

        // --- Exploration dynamics for the next step. ---
        let warning_now = signal == soc_power::rack::RackSignal::Warning;
        for (i, ((((explore, b_steps), b_rem), want), grant)) in cols
            .explore_extra
            .iter_mut()
            .zip(cols.backoff_steps.iter_mut())
            .zip(cols.backoff_remaining.iter_mut())
            .zip(buf.wanted.iter())
            .zip(buf.granted.iter())
            .enumerate()
        {
            if capped {
                *explore = Watts::ZERO;
                *b_steps = (*b_steps + 1).min(8);
                *b_rem = 1 << (*b_steps).min(6);
                continue;
            }
            if !policy.explores() {
                continue;
            }
            if warned_last_step && policy.heeds_warnings() && *explore > Watts::ZERO {
                *explore = (*explore - EXPLORE_STEP).clamp_non_negative();
                *b_steps = (*b_steps + 1).min(8);
                *b_rem = 1 << (*b_steps).min(6);
                continue;
            }
            if *b_rem > 0 {
                *b_rem -= 1;
                continue;
            }
            // Rejected for power this step? Explore a bigger budget.
            // Exploration is staggered across servers (each sOA's 30-second
            // explore window starts at a different phase) so a rack's
            // explorers do not all raise their budgets in the same step.
            let my_turn = (outcome.steps + i as u64).is_multiple_of(3);
            if *want && !*grant && my_turn && *explore < EXPLORE_CAP {
                *explore = (*explore + EXPLORE_STEP).min(EXPLORE_CAP);
            } else if *grant {
                *b_steps = 0;
            }
        }
        warned_last_step = warning_now;

        // --- Performance bookkeeping. ---
        for (p, want) in buf.perf.iter().zip(buf.wanted.iter()) {
            if *want {
                outcome.perf_sum += *p;
                outcome.perf_samples += 1;
            }
        }
        // Per-part wear accounting (heterogeneous fleets only): each server
        // granted this step ages at its hoisted part-scaled rate. Folded
        // left-to-right in server order, exactly like the reference engine.
        if let Some(s) = &silicon {
            for ((grant, view), rate) in buf.granted.iter().zip(views.iter()).zip(s.wear.iter()) {
                if *grant {
                    let util = view.utilization.get(idx).copied().unwrap_or(0.5);
                    outcome.wear_days += rate.at(util) * step_days;
                }
            }
        }
        drop(aggregation_span);
        outcome.steps += 1;
        t += config.step;
    }
    probe.add("sim_steps", outcome.steps);
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
    use crate::largescale::{simulate_rack_reference, train_rack};
    use soc_telemetry::json::event_to_json;
    use soc_traces::gen::TraceGenerator;

    fn engines_agree(config: &LargeScaleConfig, policy: PolicyKind) {
        let generator = TraceGenerator::new(config.seed);
        let fc = config.fleet_config();
        for r in 0..config.racks.min(2) {
            let rack = generator.generate_rack(&fc, r);
            let model = generator.model_for(rack.generation);
            let trained = train_rack(config, &rack, &model);
            let (tm_a, sink_a) = Telemetry::memory();
            let a = simulate_rack_columnar(
                config,
                policy,
                &rack,
                &model,
                &trained,
                &tm_a,
                &crate::probe::NoopProbe,
            );
            let (tm_b, sink_b) = Telemetry::memory();
            let b = simulate_rack_reference(config, policy, &rack, &model, &trained, &tm_b);
            assert_eq!(a, b, "outcome diverged: rack {r} policy {policy}");
            let render = |events: Vec<soc_telemetry::Event>| -> String {
                events.iter().map(event_to_json).collect()
            };
            assert_eq!(
                render(sink_a.events()),
                render(sink_b.events()),
                "event stream diverged: rack {r} policy {policy}"
            );
            assert_eq!(
                tm_a.metrics_snapshot().render(),
                tm_b.metrics_snapshot().render(),
                "metrics diverged: rack {r} policy {policy}"
            );
        }
    }

    #[test]
    fn columnar_matches_reference_all_policies() {
        let config = LargeScaleConfig::small_test();
        for policy in PolicyKind::ALL {
            engines_agree(&config, policy);
        }
    }

    #[test]
    fn columnar_matches_reference_under_faults() {
        let mut config = LargeScaleConfig::small_test();
        config.faults.goa_outages = 1;
        config.faults.goa_outage_len = SimDuration::from_hours(12);
        config.faults.budget_drop_prob = 0.05;
        config.faults.budget_delay_prob = 0.1;
        config.faults.budget_delay = SimDuration::from_minutes(30);
        config.faults.telemetry_gap_prob = 0.02;
        config.faults.soa_restart_prob = 0.01;
        config.faults.prediction_bias = 1.05;
        for policy in [PolicyKind::SmartOClock, PolicyKind::Central] {
            engines_agree(&config, policy);
        }
    }

    #[test]
    fn columnar_matches_reference_with_binned_silicon() {
        let mut config = LargeScaleConfig::small_test();
        config.binning.bins = 8;
        config.binning.risk_budget = 0.35;
        config.binning.wear_spread = 0.4;
        config.binning.seed = 7;
        for policy in PolicyKind::ALL {
            engines_agree(&config, policy);
        }
    }

    #[test]
    fn columnar_matches_reference_with_binning_and_faults() {
        let mut config = LargeScaleConfig::small_test();
        config.binning.bins = 4;
        config.binning.risk_budget = 0.5;
        config.binning.wear_spread = 0.2;
        config.binning.seed = 11;
        config.faults.goa_outages = 1;
        config.faults.goa_outage_len = SimDuration::from_hours(12);
        config.faults.budget_drop_prob = 0.05;
        config.faults.telemetry_gap_prob = 0.02;
        config.faults.soa_restart_prob = 0.01;
        for policy in [PolicyKind::SmartOClock, PolicyKind::Central] {
            engines_agree(&config, policy);
        }
    }

    #[test]
    fn slot_tables_require_a_week_divisor_step() {
        // The tables are built at the training step itself (predict_at
        // debug-asserts slot/template step agreement), which divides the
        // week: one row per weekly slot, one column per server.
        let config = LargeScaleConfig::small_test();
        let generator = TraceGenerator::new(config.seed);
        let rack = generator.generate_rack(&config.fleet_config(), 0);
        let model = generator.model_for(rack.generation);
        let trained = train_rack(&config, &rack, &model);
        let start = SimTime::ZERO + SimDuration::WEEK;
        let tables = SlotTables::build(&trained.servers, start, config.step);
        let slots = (SimDuration::WEEK.as_micros() / config.step.as_micros()) as usize;
        assert_eq!(tables.slots, slots);
        assert_eq!(tables.n, rack.servers.len());
    }

    #[test]
    fn server_columns_api() {
        let mut cols = ServerColumns::new(3);
        assert_eq!(cols.len(), 3);
        assert!(!cols.is_empty());
        assert_eq!(cols.oc_remaining(), &[SimDuration::WEEK; 3]);
        cols.oc_remaining[1] = SimDuration::from_hours(2);
        cols.refresh_allowances();
        assert_eq!(cols.oc_remaining(), &[SimDuration::WEEK; 3]);
        assert_eq!(cols.budgets(), &[Watts::ZERO; 3]);
    }
}
