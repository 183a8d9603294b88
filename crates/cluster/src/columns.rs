//! Columnar (struct-of-arrays) rack simulation engine.
//!
//! The large-scale hot path behind [`crate::largescale::simulate_rack`].
//! Where the tests' row-oriented reference engine keeps a `Vec` of
//! per-server structs and calls `PowerTemplate::predict` /
//! `TimeSeries::value_at` per server per step, this engine keeps every
//! mutable field as its own column ([`ServerColumns`]), reads predictions
//! from rows built at training ([`PredictionRows`]) and the rack's base
//! draw from the rack series, hoists the per-step sample index out of the
//! inner server loop, and reuses one set
//! of per-step scratch buffers ([`StepBuffers`]) for the whole run, which
//! the admission loop rewrites in place — so steady-state allocation count
//! does not scale with simulated steps.
//!
//! **Byte-determinism contract.** Output (outcomes, telemetry events,
//! metrics, decision ids) must be byte-identical to that reference engine
//! (`tests/support/reference_engine.rs`), which trains its own templates
//! and draws its own silicon through the public API. Three rules keep the
//! transformation safe:
//!
//! 1. every floating-point operation whose result reaches an output happens
//!    in the same order on the same values (accumulators fold left-to-right
//!    over servers in rack order, exactly as the reference's `+=` loops;
//!    a fold may skip a `+ 0.0` term only where the accumulator cannot be
//!    −0.0);
//! 2. only *pure* computations are cached or batched (`TimeSeries::index_at`
//!    replaces repeated `value_at` divisions; `PredictionRows`, built at
//!    training, replays each template's `predict_at` per day class, or per
//!    weekly slot when a template is `Weekly`; the rack series is each
//!    step's base-power total, folded by the generator in the reference's
//!    server order from the same derived server draws; gOA budget rows
//!    replay the stateless agent's split of a prediction row — each
//!    provably returns the values the per-call forms would);
//! 3. computations whose results reach no output may be skipped (the central
//!    oracle's running rack total is not computed for decentralized
//!    policies; policies that read no predictions run on one all-zero
//!    prediction row, [`PredictionRows::flat`], so no template is trained
//!    for them, and they read no budget, so none is split or delivered
//!    for them, and their lost and delayed updates are counted only where
//!    the fault summary reports them; server power is derived, and the
//!    capping branch's dynamic power folded, only on capping steps), and
//!    allocations never affect results.
//!
//! `tests/equivalence.rs` pins the contract across seeds × thread counts ×
//! fault plans × binned silicon, plus a seeded sweep of random configs, and
//! every `soc-benchmark` round re-checks the engine's output against a
//! committed digest.

use crate::largescale::{LargeScaleConfig, TrainedRack};
use crate::largescale_metrics::RackOutcome;
use crate::probe::ShardProbe;
use simcore::faults::FaultPlan;
use simcore::time::{SimDuration, SimTime};
use smartoclock::config::{EXPLORE_CAP, EXPLORE_STEP};
use smartoclock::epoch::EpochTracker;
use smartoclock::goa::{GlobalOverclockAgent, ServerProfile};
use smartoclock::policy::PolicyKind;
use soc_power::hierarchy::DemandProfile;
use soc_power::model::{OverclockDeltaFn, PowerModel};
use soc_power::rack::RackMonitor;
use soc_power::units::{MegaHertz, Watts};
use soc_predict::template::{TemplateKind, TemplateSlot};
use soc_reliability::binning::{SiliconPart, WearRate};
use soc_reliability::thermal::Cooling;
use soc_reliability::wear::WearModel;
use soc_telemetry::{tm_event, Component, Severity, Telemetry};
use soc_traces::fleet::{RackTrace, ServerSeriesView};

/// Per-server mutable control state as parallel columns, one slot per server
/// in rack order. The safe API never exposes unchecked indexing: column
/// passes are zipped iterations, so all-columns updates stay in lockstep by
/// construction.
#[derive(Debug, Clone)]
struct ServerColumns {
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
    fn new(n: usize) -> ServerColumns {
        ServerColumns {
            budget: vec![Watts::ZERO; n],
            explore_extra: vec![Watts::ZERO; n],
            backoff_steps: vec![0; n],
            backoff_remaining: vec![0; n],
            oc_remaining: vec![SimDuration::WEEK; n],
            pending_budget: vec![None; n],
        }
    }

    /// Weekly epoch boundary: refresh every server's lifetime allowance.
    fn refresh_allowances(&mut self) {
        self.oc_remaining.fill(SimDuration::WEEK);
    }
}

/// Per-step scratch columns, allocated once per rack run and reused every
/// step, so the steady state allocates nothing. The admission loop rewrites
/// the per-server columns in place each step: `wanted` and `granted` for
/// every server, `perf` and `extras` where they are read.
#[derive(Debug, Default)]
struct StepBuffers {
    /// Granted overclock extras this step (read only where `granted`).
    extras: Vec<Watts>,
    /// Server requested overclocking this step.
    wanted: Vec<bool>,
    /// Request was admitted this step.
    granted: Vec<bool>,
    /// Effective speedup of demand servers this step (read only where
    /// `wanted`).
    perf: Vec<f64>,
    /// Demand profiles exchanged with the gOA on refresh steps.
    demands: Vec<DemandProfile>,
    /// Budgets computed by the gOA on refresh steps.
    budgets: Vec<Watts>,
    /// Capping revoke order: `(server, extra)` pairs, largest extra first.
    order: Vec<(usize, Watts)>,
}

impl StepBuffers {
    /// Buffers sized for `n` servers.
    fn new(n: usize) -> StepBuffers {
        StepBuffers {
            extras: vec![Watts::ZERO; n],
            wanted: vec![false; n],
            granted: vec![false; n],
            perf: vec![0.0; n],
            demands: Vec::with_capacity(n),
            budgets: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
        }
    }
}

/// A delayed budget update matures: once sim time reaches its delivery
/// instant it replaces the live budget.
#[inline]
fn mature(budget: &mut Watts, pending: &mut Option<(SimTime, Watts)>, t: SimTime) {
    if let Some((due, b)) = *pending {
        if t >= due {
            *budget = b;
            *pending = None;
        }
    }
}

/// Template prediction rows for one trained rack, built once by
/// [`crate::largescale::train_rack`] and shared by every policy run over it.
///
/// Every field of [`TemplateSlot`] is periodic in `t` with period one week,
/// and the step divides a week evenly (it divides a day: template training
/// and `shard::validate` both assert it), so the tick at step `k` and the
/// tick at step `k + WEEK / step` land on the *same* slot and therefore the
/// same prediction. Within the week, the row key is picked once per rack:
///
/// * **day class** when no server's regular or demand template is
///   `Weekly`: every other kind reads only (weekend?, time-of-day slot), so
///   the rows are keyed by [`TemplateSlot::day_class`] and there are
///   `2 * DAY / step` of them;
/// * **weekly slot** otherwise: one row per weekly slot.
///
/// One builder serves both layouts: it walks the week's ticks, maps each
/// to its row, and evaluates `predict_at` the first time a row is reached —
/// pure-function memoization, rule 2 of the module contract.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PredictionRows {
    /// The step the rows were evaluated at.
    step: SimDuration,
    /// The first evaluated tick, weekly slot 0.
    start: SimTime,
    /// Servers per row.
    n: usize,
    /// Row of each weekly slot (`WEEK / step` entries).
    row_of: Vec<u32>,
    /// Raw `template.predict_at` per server, row-major: `[r * n + i]`.
    regular: Vec<f64>,
    /// Raw `demand_template.predict_at` per server, row-major.
    demand: Vec<f64>,
}

impl PredictionRows {
    /// Build the rows for one rack's evaluation ticks starting at `start`
    /// from each server's profile (regular and demand templates), in rack
    /// order; `step`
    /// is the templates' training step, which divides a day and therefore
    /// the week.
    pub(crate) fn build(
        profiles: &[ServerProfile],
        start: SimTime,
        step: SimDuration,
    ) -> PredictionRows {
        let slots = (SimDuration::WEEK.as_micros() / step.as_micros()) as usize;
        let day_class = profiles.iter().all(|p| {
            p.regular_power.kind() != TemplateKind::Weekly
                && p.overclock_demand.kind() != TemplateKind::Weekly
        });
        let rows = if day_class {
            2 * (SimDuration::DAY.as_micros() / step.as_micros()) as usize
        } else {
            slots
        };
        let n = profiles.len();
        let mut row_of = Vec::with_capacity(slots);
        let mut regular = vec![0.0; rows * n];
        let mut demand = vec![0.0; rows * n];
        let mut filled = vec![false; rows];
        let mut t = start;
        for w in 0..slots {
            // The exact pure calls the per-step path would make at this tick
            // (and at this tick plus any whole number of weeks).
            let slot = TemplateSlot::at(t, step);
            let r = if day_class { slot.day_class() } else { w };
            row_of.push(r as u32);
            if let Some(first) = filled.get_mut(r).filter(|f| !**f) {
                *first = true;
                let range = r * n..(r + 1) * n;
                if let (Some(reg), Some(dem)) =
                    (regular.get_mut(range.clone()), demand.get_mut(range))
                {
                    for ((dst_r, dst_d), p) in reg.iter_mut().zip(dem.iter_mut()).zip(profiles) {
                        *dst_r = p.regular_power.predict_at(slot);
                        *dst_d = p.overclock_demand.predict_at(slot);
                    }
                }
            }
            t += step;
        }
        PredictionRows {
            step,
            start,
            n,
            row_of,
            regular,
            demand,
        }
    }

    /// Rows for a rack run by policies that read no predictions
    /// ([`PolicyKind::reads_predictions`]): one all-zero row for `n`
    /// servers and no weekly map, so every step reads that row and the gOA
    /// splits it once. No template is trained for them.
    pub(crate) fn flat(n: usize, start: SimTime, step: SimDuration) -> PredictionRows {
        PredictionRows {
            step,
            start,
            n,
            row_of: Vec::new(),
            regular: vec![0.0; n],
            demand: vec![0.0; n],
        }
    }

    /// Whether the rows hold trained predictions ([`PredictionRows::flat`]
    /// rows do not).
    pub(crate) fn predicts(&self) -> bool {
        !self.row_of.is_empty()
    }

    /// The step and first tick the rows were evaluated at.
    pub(crate) fn built_for(&self) -> (SimDuration, SimTime) {
        (self.step, self.start)
    }

    /// Servers per row.
    pub(crate) fn servers(&self) -> usize {
        self.n
    }

    /// Number of distinct rows.
    fn rows(&self) -> usize {
        self.regular.len().checked_div(self.n).unwrap_or(0)
    }

    /// Row of evaluation step `k` (steps since the first evaluated tick;
    /// always row 0 of [`PredictionRows::flat`] rows).
    fn row_of_step(&self, k: u64) -> usize {
        let w = k % self.row_of.len().max(1) as u64;
        self.row_of.get(w as usize).map_or(0, |&r| r as usize)
    }

    // Row accessors are non-panicking by construction: `r` always comes
    // from `row_of_step`, so `r < rows` and the range is in bounds; the
    // `get` forms keep that a structural fact rather than a runtime panic
    // path (an out-of-range row would read empty, never abort a shard).

    fn regular_row(&self, r: usize) -> &[f64] {
        self.regular
            .get(r * self.n..(r + 1) * self.n)
            .unwrap_or(&[])
    }

    fn demand_row(&self, r: usize) -> &[f64] {
        self.demand.get(r * self.n..(r + 1) * self.n).unwrap_or(&[])
    }
}

/// gOA budget rows for one policy run, indexed like [`PredictionRows`].
/// A budget row is a pure function of its (regular, demand) row (the agent
/// is stateless), so each row is computed the first time it is reached and
/// replayed afterwards.
struct BudgetRows {
    /// Servers per row.
    n: usize,
    /// gOA budgets per server, row-major, rows filled lazily.
    budgets: Vec<Watts>,
    /// Which budget rows have been computed.
    ready: Vec<bool>,
}

impl BudgetRows {
    fn new(rows: usize, n: usize) -> BudgetRows {
        BudgetRows {
            n,
            budgets: vec![Watts::ZERO; rows * n],
            ready: vec![false; rows],
        }
    }

    /// The stored row `r`, or `None` before it is computed.
    fn row(&self, r: usize) -> Option<&[Watts]> {
        if self.ready.get(r).copied().unwrap_or(false) {
            self.budgets.get(r * self.n..(r + 1) * self.n)
        } else {
            None
        }
    }

    fn store(&mut self, r: usize, row: &[Watts]) {
        for (dst, src) in self.budgets.iter_mut().skip(r * self.n).zip(row) {
            *dst = *src;
        }
        if let Some(ready) = self.ready.get_mut(r) {
            *ready = true;
        }
    }
}

/// Resolved per-part silicon for one rack run: admitted overclock levels,
/// hoisted wear-rate coefficients, and the deny/down-bin counts, computed
/// once per rack. `None` (uniform config) keeps the engine on its
/// pre-binning path, byte-for-byte.
struct RackSilicon {
    /// Drawn silicon per server, in rack order.
    parts: Vec<SiliconPart>,
    /// Risk-admitted overclock frequency per server; `None` = the part's
    /// risk exceeds the budget at every overclocked level (bin-denied).
    eff: Vec<Option<MegaHertz>>,
    /// Hoisted ageing-rate coefficients per server at its admitted level
    /// (placeholder at turbo for denied servers, which never accrue wear).
    wear: Vec<WearRate>,
    /// Servers denied all overclocking by the risk budget.
    bin_denied: u64,
    /// Servers admitted below the plan's maximum overclock.
    down_binned: u64,
}

/// Draw and risk-admit every server's silicon for one rack, hoisting the
/// per-part wear rates the step loop charges. Returns `None` for the
/// degenerate uniform config (no heterogeneity, no extra work, no new
/// telemetry — the pre-binning byte streams are preserved exactly).
///
/// Part ids reuse [`FaultPlan::entity_id`], so a server's silicon is the
/// same under sharded and serial execution. The wear hoist runs each part's
/// scaled [`WearModel`] at the air-cooled steady-state junction temperature
/// of a fully-utilized server at the admitted frequency.
fn resolve_rack_silicon(
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
/// resolved silicon, in server order.
fn emit_binning_events(
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

/// Simulate one rack under one policy over its trained prediction rows; see
/// the module docs for the byte-determinism contract.
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
    let mut buf = StepBuffers::new(n);
    let rows = &trained.rows;
    let mut budget_rows = BudgetRows::new(rows.rows(), n);
    // Borrowed raw-sample slices, hoisted once per rack: all per-server
    // series share the trace's start (time zero) and step, so one slot index
    // per step addresses every column.
    let views: Vec<ServerSeriesView<'_>> = rack.servers.iter().map(|s| s.view()).collect();
    let admission_checked = policy.admission_checked();
    let central = policy.is_central();
    let idle = model.idle();
    // Each step's post-enforcement draw, recorded in step order after the
    // loop into the `sim_rack_draw_w` histogram (one registry search per
    // rack run, not one per step) and then moved into the run's
    // `rack_series` event (traced runs only).
    let traced = telemetry.is_enabled();
    let mut draws = Vec::with_capacity(if traced { trained.steps } else { 0 });
    // Only policies that read predictions read the budgets split from them;
    // for the others budgets are neither split nor delivered (rule 3). Their
    // lost and delayed updates reach only the fault summary, which needs
    // telemetry on and a fault plan that does something.
    let reads_budgets = policy.reads_predictions();
    let counts_lost_updates = traced && !faults.is_noop();

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
            cols.refresh_allowances();
        }
        // Sample slot and prediction row for this instant, computed once
        // and shared by every per-server read below (the batched-lookup
        // hoist).
        let idx = rack.power.index_at(t).unwrap_or(usize::MAX);
        let row = rows.row_of_step(outcome.steps);
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
            // Delayed budget updates (fault injection) still land: a message
            // sent during an earlier step finally arrives.
            if reads_budgets {
                for (budget, pending) in cols.budget.iter_mut().zip(cols.pending_budget.iter_mut())
                {
                    mature(budget, pending, t);
                }
            }
            outcome.stale_budget_steps += 1;
        } else if !reads_budgets {
            epochs.mark_refresh(t);
            if counts_lost_updates {
                for i in 0..n {
                    let entity = FaultPlan::entity_id(rack.index, i);
                    let dropped = step_faults.drops_budget_update(entity);
                    dropped_updates += u64::from(dropped);
                    if !dropped {
                        let delayed = !step_faults.budget_update_delay(entity).is_zero();
                        delayed_updates += u64::from(delayed);
                    }
                }
            }
        } else {
            // The first visit to a row computes its budgets from the
            // prediction rows; later visits replay them.
            if let Some(stored) = budget_rows.row(row) {
                buf.budgets.clear();
                buf.budgets.extend_from_slice(stored);
            } else {
                buf.demands.clear();
                buf.demands
                    .extend(rows.regular_row(row).iter().zip(rows.demand_row(row)).map(
                        |(&r, &d)| DemandProfile {
                            regular: Watts::new(r.max(0.0)),
                            overclock_demand: Watts::new(d.max(0.0)),
                        },
                    ));
                goa.budgets_for(&buf.demands, &mut buf.budgets);
                budget_rows.store(row, &buf.budgets);
            }
            epochs.mark_refresh(t);
            for (i, ((budget, pending), b)) in cols
                .budget
                .iter_mut()
                .zip(cols.pending_budget.iter_mut())
                .zip(buf.budgets.iter())
                .enumerate()
            {
                // A delayed update sent during an earlier step lands before
                // this step's update is dropped, delayed or applied.
                mature(budget, pending, t);
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
        // The rack's base draw: every server's draw folded in server order
        // from zero, which is how the generator built the rack series
        // (`train_rack` checks that it covers every step).
        let base_total = Watts::new(rack.power.values().get(idx).copied().unwrap_or(0.0));
        // The central oracle's running rack total; decentralized policies
        // never read it, so the reference engine's unconditional pre-sum is
        // skipped for them (rule 3 of the module contract).
        let mut central_total = if central { base_total } else { Watts::ZERO };
        // Granted extras in server order: the reference's sum over every
        // server's extra without its `+ 0.0` terms. Exact: the sum starts at
        // +0.0 and so is never −0.0, and adding +0.0 leaves any other value
        // unchanged.
        let mut extras_sum = Watts::ZERO;
        for (
            i,
            (((((((((view, want), grant), extra_slot), p), oc_rem), budget), explore), pred), bin),
        ) in views
            .iter()
            .zip(buf.wanted.iter_mut())
            .zip(buf.granted.iter_mut())
            .zip(buf.extras.iter_mut())
            .zip(buf.perf.iter_mut())
            .zip(cols.oc_remaining.iter_mut())
            .zip(cols.budget.iter())
            .zip(cols.explore_extra.iter())
            .zip(rows.regular_row(row))
            .zip(bin_ids.iter())
            .enumerate()
        {
            *want = false;
            *grant = false;
            let demand_cores = view.oc_demand_cores.get(idx).copied().unwrap_or(0);
            if demand_cores == 0 {
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
            // A denied request runs at turbo.
            *p = 1.0;
            outcome.requests += 1;
            let util = view.utilization.get(idx).copied().unwrap_or(0.5);
            let cores = usize::from(demand_cores).min(model.cores());
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
                extras_sum += extra;
                // A granted server runs at its bin's risk-admitted level; the
                // ratio table holds each level's speedup over turbo.
                *p = bin_ratio.get(*bin as usize).copied().unwrap_or(1.0);
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
        let mut draw = base_total + extras_sum;
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
            // The dynamic power above idle, derived and folded in server
            // order from zero exactly like the reference engine's re-walk of
            // every server's power. A server's draw is never below idle
            // (`at(u) − idle ≥ +0.0`, pinned by a soc-power proptest), so no
            // clamp is needed; past the end of a series the reference adds
            // the clamped +0.0, which is skipped here (rule 1).
            let mut dynamic = Watts::ZERO;
            for view in &views {
                if let Some(&u) = view.utilization.get(idx) {
                    dynamic += view.power.at(u) - idle;
                }
            }
            let over = draw - rack.limit;
            let frac = if dynamic.get() > 0.0 {
                (over.get() / dynamic.get()).min(1.0)
            } else {
                0.0
            };
            // Dynamic power ~ f·V² ⇒ frequency penalty is sublinear.
            let freq_penalty = (1.0 - (1.0 - frac).powf(0.55)).max(0.02);
            outcome.record_penalty(freq_penalty);
            // Only demand servers' speedups are read; the other slots keep
            // stale values that must not decay toward subnormals.
            for (p, want) in buf.perf.iter_mut().zip(buf.wanted.iter()) {
                if *want {
                    *p *= 1.0 - freq_penalty;
                }
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
        if traced {
            draws.push(draw.get());
        }

        // --- Exploration dynamics and performance bookkeeping. ---
        let warning_now = signal == soc_power::rack::RackSignal::Warning;
        for (i, (((((explore, b_steps), b_rem), want), grant), p)) in cols
            .explore_extra
            .iter_mut()
            .zip(cols.backoff_steps.iter_mut())
            .zip(cols.backoff_remaining.iter_mut())
            .zip(buf.wanted.iter())
            .zip(buf.granted.iter())
            .zip(buf.perf.iter())
            .enumerate()
        {
            if *want {
                outcome.perf_sum += *p;
                outcome.perf_samples += 1;
            }
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
        m.observe_all("sim_rack_draw_w", &[("rack", rack.index.into())], &draws);
        let policy_label = [("policy", policy.name().into())];
        m.inc_counter_by("sim_requests", &policy_label, outcome.requests);
        m.inc_counter_by("sim_grants", &policy_label, outcome.granted);
        m.inc_counter_by("sim_capping_steps", &policy_label, outcome.capping_steps);
        if silicon.is_some() {
            m.inc_counter_by("sim_bin_denied", &policy_label, outcome.bin_denied);
            m.inc_counter_by("sim_down_binned", &policy_label, outcome.down_binned);
        }
    });
    // The run's draw series in one event, stamped at its first step:
    // `draws_w[k]` is the draw at `train_end + k·step`. Health is read from
    // it (`soc-analyze health`), so the hot loop observes nothing per step.
    tm_event!(telemetry, train_end, Component::Sim, Severity::Debug, "rack_series",
        "rack" => rack.index,
        "policy" => policy.name(),
        "cause_id" => sim_decision,
        "limit_w" => rack.limit.get(),
        "step_us" => config.step,
        "draws_w" => draws);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoopProbe;
    use crate::reference_engine;
    use crate::shard::{
        generate_fleet_probed, simulate_policy_prepared_probed, train_fleet_probed,
    };
    use soc_predict::template::PowerTemplate;
    use soc_telemetry::json::event_to_json;
    use soc_traces::gen::TraceGenerator;

    /// The columnar engine (on the product's trained rows) and the tests'
    /// row-oriented reference engine (training its own templates) agree on
    /// outcomes, the event stream and the metrics.
    fn engines_agree(config: &LargeScaleConfig, policy: PolicyKind) {
        let fleet = generate_fleet_probed(config, 1, &NoopProbe);
        let trained = train_fleet_probed(config, &fleet, 1, &NoopProbe);
        let observe = |run: &dyn Fn(&Telemetry) -> Vec<RackOutcome>| {
            let (tm, sink) = Telemetry::memory();
            let outcomes = run(&tm);
            let lines: String = sink.events().iter().map(event_to_json).collect();
            (outcomes, lines, tm.metrics_snapshot().render())
        };
        let a = observe(&|tm| {
            simulate_policy_prepared_probed(config, policy, &fleet, &trained, tm, 1, &NoopProbe)
        });
        let b = observe(&|tm| reference_engine::simulate_policy(config, policy, &fleet, tm));
        assert_eq!(a.0, b.0, "outcomes diverged: policy {policy}");
        assert_eq!(a.1, b.1, "event stream diverged: policy {policy}");
        assert_eq!(a.2, b.2, "metrics diverged: policy {policy}");
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

    /// A history with a distinct value at (almost) every sample, so a row
    /// read for the wrong instant shows.
    fn history(step: SimDuration, salt: f64) -> simcore::series::TimeSeries {
        simcore::series::TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_days(9),
            step,
            |t| {
                let x = t.as_micros() as f64 / 3.6e9 + salt;
                100.0 + 40.0 * (x * 0.37).sin() + 9.0 * (x * 2.1).cos()
            },
        )
    }

    fn server(step: SimDuration, regular: TemplateKind, demand: TemplateKind) -> ServerProfile {
        let salt = TemplateKind::ALL
            .iter()
            .position(|&k| k == regular)
            .unwrap_or(0) as f64;
        ServerProfile {
            regular_power: PowerTemplate::build(&history(step, salt), regular),
            overclock_demand: PowerTemplate::build(&history(step, 7.0 - salt), demand),
        }
    }

    #[test]
    fn prediction_rows_replay_predict_at_bit_for_bit() {
        use TemplateKind::{DailyMax, DailyMed, FlatMax, FlatMed, Weekly};
        // Evaluation need not start on Monday 00:00.
        let start = SimTime::ZERO + SimDuration::from_days(10) + SimDuration::from_minutes(7 * 60);
        assert!(
            !(start.weekday() == simcore::time::Weekday::Monday && start.time_of_day().is_zero())
        );
        for minutes in [5, 10, 15, 30, 60, 120] {
            let step = SimDuration::from_minutes(minutes);
            // Every kind alone, a mixed day-class rack, and racks where one
            // regular or one demand template is Weekly.
            let mut racks: Vec<Vec<(TemplateKind, TemplateKind)>> = TemplateKind::ALL
                .iter()
                .map(|&k| vec![(k, k), (k, k)])
                .collect();
            racks.push(vec![
                (FlatMed, DailyMed),
                (DailyMax, FlatMax),
                (DailyMed, DailyMed),
            ]);
            racks.push(vec![
                (DailyMed, DailyMed),
                (Weekly, DailyMed),
                (FlatMed, DailyMax),
            ]);
            racks.push(vec![(DailyMed, DailyMed), (DailyMed, Weekly)]);
            for kinds in racks {
                let servers: Vec<ServerProfile> =
                    kinds.iter().map(|&(r, d)| server(step, r, d)).collect();
                let rows = PredictionRows::build(&servers, start, step);
                let weekly = kinds.iter().any(|&(r, d)| r == Weekly || d == Weekly);
                let slots = (SimDuration::WEEK.as_micros() / step.as_micros()) as usize;
                let day = (SimDuration::DAY.as_micros() / step.as_micros()) as usize;
                assert_eq!(
                    rows.rows() == 2 * day,
                    !weekly,
                    "{kinds:?} at {minutes} min: {} rows",
                    rows.rows()
                );
                assert_eq!(rows.rows(), if weekly { slots } else { 2 * day });
                assert_eq!(rows.built_for(), (step, start));
                // Two weeks of steps: the second replays the first's rows.
                for k in 0..2 * slots as u64 {
                    let t = start + step * k;
                    let slot = TemplateSlot::at(t, step);
                    let r = rows.row_of_step(k);
                    for (i, p) in servers.iter().enumerate() {
                        let (reg, dem) = (rows.regular_row(r)[i], rows.demand_row(r)[i]);
                        assert_eq!(
                            reg.to_bits(),
                            p.regular_power.predict_at(slot).to_bits(),
                            "{kinds:?} at {minutes} min: regular, step {k}, server {i}"
                        );
                        assert_eq!(
                            dem.to_bits(),
                            p.overclock_demand.predict_at(slot).to_bits(),
                            "{kinds:?} at {minutes} min: demand, step {k}, server {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn base_power_fill_totals_the_rack_trace_bit_for_bit() {
        // The engine reads a step's base draw from the rack series; the
        // reference engine folds every server's power at that instant in
        // server order from zero (0.0 past the end of a series). The
        // generator's fold is that fold, so the two agree bit for bit at
        // every evaluation step, and past the end both read zero.
        for minutes in [15, 60] {
            let config = LargeScaleConfig {
                step: SimDuration::from_minutes(minutes),
                ..LargeScaleConfig::small_test()
            };
            let generator = TraceGenerator::new(config.seed);
            let end = SimTime::ZERO + SimDuration::WEEK * config.weeks;
            for r in 0..config.racks {
                let rack = generator.generate_rack(&config.fleet_config(), r);
                let powers: Vec<_> = rack
                    .servers
                    .iter()
                    .map(|s| s.power_series(SimTime::ZERO, end))
                    .collect();
                let mut t = SimTime::ZERO + SimDuration::WEEK;
                let mut steps = 0;
                while t < end + config.step * 3 {
                    let idx = rack.power.index_at(t).unwrap_or(usize::MAX);
                    let read = rack.power.values().get(idx).copied().unwrap_or(0.0);
                    let folded = powers.iter().fold(Watts::ZERO, |acc, p| {
                        acc + Watts::new(p.value_at(t).unwrap_or(0.0))
                    });
                    assert_eq!(
                        read.to_bits(),
                        folded.get().to_bits(),
                        "{minutes} min, rack {r}, {t}"
                    );
                    assert_eq!(read == 0.0, t >= end, "{minutes} min, rack {r}, {t}");
                    steps += 1;
                    t += config.step;
                }
                let per_week = SimDuration::WEEK.as_micros() / config.step.as_micros();
                assert_eq!(steps, per_week * (config.weeks - 1) + 3);
            }
        }
    }
}
