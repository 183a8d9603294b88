//! The Server Overclocking Agent (sOA).
//!
//! Implements the per-server half of SmartOClock (paper §IV-B and §IV-D,
//! Fig. 11):
//!
//! * **Admission control** — an incoming request is granted only if (a) the
//!   per-epoch overclocking lifetime budget can cover it, (b) enough cores
//!   have per-core time-in-state budget, and (c) the predicted server power
//!   (template) plus the overclocking delta fits under the server's power
//!   budget.
//! * **Prioritized feedback loop** — every control tick compares the
//!   measured draw against the effective budget and moves one grant's
//!   frequency a step up (highest priority first) or down (lowest priority
//!   first), holding inside the `[budget − buffer, budget)` band.
//! * **Exploration/exploitation** — when constrained, the sOA conditionally
//!   raises its own budget in 20 W steps; a rack *warning* during
//!   exploration makes it retreat one step and back off exponentially; a
//!   *capping event* resets it to the assigned budget. After a safe
//!   exploration window it *exploits* the discovered budget for a while.
//! * **Exhaustion prediction** — using its power template and lifetime
//!   budget, the sOA warns the WI agent when either resource will run out
//!   within the configured window, enabling proactive scale-out.

use crate::config::{
    BACKOFF_INITIAL, BACKOFF_MAX, BUDGET_STALENESS_LIMIT, EPOCH, EXHAUSTION_WINDOW, EXPLOIT_TIME,
    EXPLORE_CAP, EXPLORE_STEP, EXPLORE_WAIT, OVERCLOCK_TIME_FRACTION, POWER_BUFFER,
};
use crate::messages::{
    ExhaustedResource, GrantEndReason, GrantId, OverclockRequest, RejectReason, SoaEvent,
};
use crate::policy::PolicyKind;
use simcore::time::{SimDuration, SimTime};
use soc_power::model::PowerModel;
use soc_power::rack::RackSignal;
use soc_power::units::{MegaHertz, Watts};
use soc_predict::template::PowerTemplate;
use soc_reliability::binning::{part_wear_model, SiliconPart};
use soc_reliability::budget::OverclockBudget;
use soc_reliability::tracker::TimeInState;
use soc_reliability::wear::{AgeingLedger, WearModel};
use soc_telemetry::{tm_event, Component, Severity, Telemetry};
use std::collections::BTreeMap;

/// Stable label for a [`RejectReason`] in telemetry output.
fn reject_label(reason: RejectReason) -> &'static str {
    match reason {
        RejectReason::PowerBudget => "power_budget",
        RejectReason::LifetimeBudget => "lifetime_budget",
        RejectReason::CoreBudget => "core_budget",
        RejectReason::RiskBudget => "risk_budget",
        RejectReason::Invalid => "invalid",
    }
}

/// Stable label for a [`GrantEndReason`] in telemetry output.
fn end_label(reason: GrantEndReason) -> &'static str {
    match reason {
        GrantEndReason::Released => "released",
        GrantEndReason::LifetimeBudgetExhausted => "lifetime_exhausted",
        GrantEndReason::ScheduleComplete => "schedule_complete",
        GrantEndReason::AgentRestart => "agent_restart",
    }
}

/// An active overclocking grant.
#[derive(Debug, Clone)]
pub struct Grant {
    /// The original request.
    pub request: OverclockRequest,
    /// The physical cores assigned.
    pub cores: Vec<usize>,
    /// The currently commanded frequency.
    pub current: MegaHertz,
    /// When the grant started.
    pub started: SimTime,
    /// For scheduled grants, when the reservation runs out.
    pub ends_at: Option<SimTime>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    Exploring { since: SimTime },
    Exploiting { until: SimTime },
    BackedOff { until: SimTime },
}

#[derive(Debug, Clone)]
struct Explorer {
    phase: Phase,
    extra: Watts,
    backoff: SimDuration,
}

/// Cumulative counters for evaluation (Table I columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoaStats {
    /// Requests received.
    pub requests: u64,
    /// Requests granted.
    pub granted: u64,
    /// Warnings acted upon (exploration retreats).
    pub warning_retreats: u64,
    /// Capping events observed.
    pub capping_resets: u64,
}

/// The per-server overclocking agent.
///
/// ```
/// use smartoclock::soa::ServerOverclockAgent;
/// use smartoclock::messages::OverclockRequest;
/// use smartoclock::policy::PolicyKind;
/// use soc_power::model::PowerModel;
/// use soc_power::units::{MegaHertz, Watts};
/// use simcore::time::SimTime;
///
/// let model = PowerModel::reference_server();
/// let mut soa = ServerOverclockAgent::new(model, PolicyKind::SmartOClock);
/// soa.set_power_budget(Watts::new(500.0));
/// let req = OverclockRequest::metrics_based("vm0", 8, MegaHertz::new(4000));
/// let grant = soa.request_overclock(SimTime::ZERO, req).expect("plenty of headroom");
/// assert!(soa.grant(grant).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ServerOverclockAgent {
    model: PowerModel,
    policy: PolicyKind,
    assigned_budget: Watts,
    template: Option<PowerTemplate>,
    lifetime: OverclockBudget,
    tracker: TimeInState,
    tracker_epoch: u64,
    grants: BTreeMap<GrantId, Grant>,
    /// Causal decision id of each live grant's admission (`oc_grant`), used
    /// as the `cause_id` of follow-on `freq_set`/`grant_end`/`oc_release`
    /// events. Entries are dropped when the grant ends.
    grant_decisions: BTreeMap<GrantId, u64>,
    last_admission_decision: u64,
    next_grant: u64,
    explorer: Explorer,
    last_tick: Option<SimTime>,
    last_measured: Option<Watts>,
    /// When the gOA last refreshed the budget via
    /// [`Self::set_power_budget_at`]. `None` disables staleness tracking
    /// (legacy [`Self::set_power_budget`] callers and naive policies).
    budget_refreshed_at: Option<SimTime>,
    /// Set while the agent is in degraded mode (budget staleness exceeded
    /// the configured limit): the instant degradation began.
    degraded_since: Option<SimTime>,
    /// Causal decision id of the `degraded_enter` event, used as the
    /// `cause_id` of the matching `degraded_exit`.
    degraded_decision: u64,
    power_rejected: bool,
    last_power_warning_eta: Option<SimTime>,
    last_lifetime_warning_eta: Option<SimTime>,
    /// This server's realized silicon part and the admission risk budget
    /// that gates it, when the fleet models per-part heterogeneity
    /// ([`Self::set_silicon`]). `None` means uniform silicon: the admission
    /// risk gate is bypassed entirely.
    silicon: Option<(SiliconPart, f64)>,
    /// Part-scaled wear model, rebuilt whenever silicon is (re)assigned.
    wear_model: Option<WearModel>,
    /// Durable physical-wear ledger: overclocked intervals charged at the
    /// part-scaled ageing rate. Like the lifetime ledger, it models wear
    /// already incurred and therefore survives [`Self::restart`].
    wear: AgeingLedger,
    stats: SoaStats,
    telemetry: Telemetry,
    server_id: usize,
}

impl ServerOverclockAgent {
    /// Create an agent for a server described by `model`, with the paper's
    /// control constants ([`crate::config`]).
    pub fn new(model: PowerModel, policy: PolicyKind) -> ServerOverclockAgent {
        let lifetime = OverclockBudget::new(OVERCLOCK_TIME_FRACTION, EPOCH);
        let per_core_cap = EPOCH.mul_f64(OVERCLOCK_TIME_FRACTION);
        ServerOverclockAgent {
            tracker: TimeInState::new(model.cores(), per_core_cap),
            model,
            policy,
            assigned_budget: Watts::ZERO,
            template: None,
            lifetime,
            tracker_epoch: 0,
            grants: BTreeMap::new(),
            grant_decisions: BTreeMap::new(),
            last_admission_decision: 0,
            next_grant: 0,
            explorer: Explorer {
                phase: Phase::Idle,
                extra: Watts::ZERO,
                backoff: BACKOFF_INITIAL,
            },
            last_tick: None,
            last_measured: None,
            budget_refreshed_at: None,
            degraded_since: None,
            degraded_decision: 0,
            power_rejected: false,
            last_power_warning_eta: None,
            last_lifetime_warning_eta: None,
            silicon: None,
            wear_model: None,
            wear: AgeingLedger::new(),
            stats: SoaStats::default(),
            telemetry: Telemetry::disabled(),
            server_id: 0,
        }
    }

    /// Attach a telemetry handle, labelling this agent's events and metrics
    /// with `server_id`. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, server_id: usize) {
        self.telemetry = telemetry;
        self.server_id = server_id;
    }

    /// The policy this agent runs.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The power model.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SoaStats {
        self.stats
    }

    /// The budget assigned by the gOA.
    pub fn assigned_budget(&self) -> Watts {
        self.assigned_budget
    }

    /// Assign a new power budget (from the gOA's heterogeneous split).
    /// Resets any exploration on top of the old budget.
    ///
    /// Staleness tracking stays disabled on this path: callers that never
    /// refresh (naive policies, tests) must not drift into degraded mode.
    /// Control planes with a refresh cadence use
    /// [`Self::set_power_budget_at`].
    pub fn set_power_budget(&mut self, budget: Watts) {
        self.assigned_budget = budget.clamp_non_negative();
        self.explorer.extra = Watts::ZERO;
        self.explorer.phase = Phase::Idle;
    }

    /// [`Self::set_power_budget`] stamped with the refresh instant, enabling
    /// budget-staleness tracking: if no further refresh arrives within six
    /// minutes (three missed 2-minute refresh cycles: gOA outage, dropped
    /// messages) the agent enters degraded mode on its next control tick — it stops
    /// exploring beyond the stale assignment and keeps enforcing it, which
    /// is the paper's decentralized fault-tolerance argument (§III-Q5).
    pub fn set_power_budget_at(&mut self, now: SimTime, budget: Watts) {
        self.set_power_budget(budget);
        self.budget_refreshed_at = Some(now);
        if let Some(since) = self.degraded_since.take() {
            tm_event!(self.telemetry, now, Component::Fault, Severity::Info, "degraded_exit",
                "server" => self.server_id,
                "degraded_us" => now.saturating_since(since),
                "cause_id" => self.degraded_decision);
            self.degraded_decision = 0;
        }
    }

    /// The budget the feedback loop currently enforces: assigned plus any
    /// exploration extra.
    pub fn effective_budget(&self) -> Watts {
        self.assigned_budget + self.explorer.extra
    }

    /// Install the server's regular-power template (rebuilt weekly, §IV-B).
    pub fn set_power_template(&mut self, template: PowerTemplate) {
        self.template = Some(template);
    }

    /// Assign this server's realized silicon part (frequency binning) and
    /// the admission risk budget that gates it.
    ///
    /// Enables the per-part admission risk gate: requests above the part's
    /// binned maximum or whose risk-weighted overclock fraction exceeds
    /// `risk_budget` are down-binned to the highest certified frequency, or
    /// denied with [`RejectReason::RiskBudget`] when no overclocked level
    /// fits. Also rebuilds the part-scaled wear model that charges the
    /// durable ageing ledger. A [`SiliconPart::uniform`] part is transparent
    /// (risk zero, full frequency range) under any budget.
    ///
    /// # Panics
    /// Panics if `risk_budget` is not in `[0, 1]`.
    pub fn set_silicon(&mut self, part: SiliconPart, risk_budget: f64) {
        assert!(
            (0.0..=1.0).contains(&risk_budget),
            "risk budget must be in [0, 1]"
        );
        self.wear_model = Some(part_wear_model(
            &WearModel::reference(*self.model.curve()),
            &part,
        ));
        self.silicon = Some((part, risk_budget));
    }

    /// The assigned silicon part, if heterogeneity is modelled.
    pub fn silicon(&self) -> Option<&SiliconPart> {
        self.silicon.as_ref().map(|(part, _)| part)
    }

    /// Scale the lifetime budget (overclocking-constrained experiments).
    pub fn scale_lifetime_budget(&mut self, scale: f64) {
        self.lifetime.scale_fraction(scale);
        let cap = EPOCH.mul_f64(self.lifetime.fraction());
        self.tracker.set_per_core_cap(cap);
    }

    /// Remaining lifetime budget this epoch.
    pub fn lifetime_remaining(&self) -> SimDuration {
        self.lifetime.remaining()
    }

    /// Look up an active grant.
    pub fn grant(&self, id: GrantId) -> Option<&Grant> {
        self.grants.get(&id)
    }

    /// Iterate over active grants.
    pub fn grants(&self) -> impl Iterator<Item = (GrantId, &Grant)> {
        self.grants.iter().map(|(&id, g)| (id, g))
    }

    /// Predicted *extra* power demand of all active grants at their targets.
    pub fn overclock_demand(&self) -> Watts {
        self.grants
            .values()
            .map(|g| {
                self.model.overclock_delta(
                    g.request.expected_utilization,
                    g.cores.len(),
                    g.request.target,
                )
            })
            .sum()
    }

    /// Process an overclocking request (admission control, §IV-B).
    ///
    /// # Errors
    /// Returns the [`RejectReason`] when admission fails. NaiveOClock never
    /// rejects for power/lifetime (only for malformed requests).
    pub fn request_overclock(
        &mut self,
        now: SimTime,
        request: OverclockRequest,
    ) -> Result<GrantId, RejectReason> {
        let cause = request.cause;
        let result = self.admit(now, request);
        // The admission outcome is itself a causal decision: follow-on
        // events (freq_set, grant_end, slo_miss attribution) point back at
        // it via `cause_id`.
        let decision = self.telemetry.next_id();
        self.last_admission_decision = decision;
        self.telemetry.metrics(|m| {
            m.inc_counter("soa_requests", &[("server", self.server_id.into())]);
        });
        match result {
            Ok(id) => {
                if decision != 0 {
                    self.grant_decisions.insert(id, decision);
                }
                let grant = &self.grants[&id];
                tm_event!(self.telemetry, now, Component::Soa, Severity::Info, "oc_grant",
                    "server" => self.server_id,
                    "grant" => id.0,
                    "vm" => grant.request.vm.clone(),
                    "cores" => grant.cores.len(),
                    "target_mhz" => grant.request.target.get(),
                    "priority" => grant.request.priority,
                    "scheduled" => grant.ends_at.is_some(),
                    "decision_id" => decision,
                    "cause_id" => cause);
                self.telemetry.metrics(|m| {
                    m.inc_counter("soa_grants", &[("server", self.server_id.into())]);
                });
            }
            Err(reason) => {
                tm_event!(self.telemetry, now, Component::Soa, Severity::Warn, "oc_deny",
                    "server" => self.server_id,
                    "reason" => reject_label(reason),
                    "decision_id" => decision,
                    "cause_id" => cause);
                self.telemetry.metrics(|m| {
                    m.inc_counter("soa_denials", &[("reason", reject_label(reason).into())]);
                });
            }
        }
        result
    }

    /// Causal decision id of the most recent admission outcome (grant or
    /// denial); `0` before any request or when telemetry is disabled. The
    /// harness uses this to attribute SLO misses to admission denials.
    pub fn last_admission_decision(&self) -> u64 {
        self.last_admission_decision
    }

    fn admit(
        &mut self,
        now: SimTime,
        mut request: OverclockRequest,
    ) -> Result<GrantId, RejectReason> {
        self.stats.requests += 1;
        self.roll_epoch(now);
        // Structural validation applies to every policy.
        if request.cores == 0
            || request.cores > self.model.cores()
            || request.target <= self.model.plan().turbo()
            || !(0.0..=1.0).contains(&request.expected_utilization)
        {
            return Err(RejectReason::Invalid);
        }
        // Per-part risk gate (frequency binning). A physical property of the
        // silicon, so it applies to every policy: marginal parts cannot run
        // stably above their binned maximum no matter how naive the control
        // plane is.
        if let Some((part, risk_budget)) = &self.silicon {
            match part.admit(&self.model.plan(), *risk_budget, request.target) {
                Some(f) => {
                    if f < request.target {
                        tm_event!(self.telemetry, now, Component::Soa, Severity::Info, "down_bin",
                            "server" => self.server_id,
                            "vm" => request.vm.clone(),
                            "bin" => part.bin,
                            "risk" => part.risk,
                            "from_mhz" => request.target.get(),
                            "to_mhz" => f.get(),
                            "decision_id" => self.telemetry.next_id(),
                            "cause_id" => request.cause);
                        self.telemetry.metrics(|m| {
                            m.inc_counter("soa_down_bins", &[("server", self.server_id.into())]);
                        });
                        request.target = f;
                    }
                }
                None => return Err(RejectReason::RiskBudget),
            }
        }
        let checked = self.policy.admission_checked();
        // Lifetime budget.
        let reservation = request.duration;
        if checked {
            match reservation {
                Some(d) => {
                    if self.lifetime.remaining() < d {
                        return Err(RejectReason::LifetimeBudget);
                    }
                }
                None => {
                    if self.lifetime.remaining().is_zero() {
                        return Err(RejectReason::LifetimeBudget);
                    }
                }
            }
        }
        // Core selection.
        let per_core_need = reservation.unwrap_or(SimDuration::from_minutes(5));
        let cores = if checked {
            let picked = self.tracker.pick_cores(request.cores, per_core_need);
            if picked.len() < request.cores {
                return Err(RejectReason::CoreBudget);
            }
            picked
        } else {
            (0..request.cores).collect()
        };
        // Power admission.
        if checked && !self.power_fits(now, &request) {
            // Remember the unmet demand: the exploration loop may grow the
            // budget so a retried request fits ("the sOA can independently
            // explore a higher budget to maximize overclocking", §IV-D).
            self.power_rejected = true;
            return Err(RejectReason::PowerBudget);
        }
        // Commit: reserve lifetime budget for scheduled requests.
        if checked {
            if let Some(d) = reservation {
                self.lifetime
                    .reserve(now, d)
                    .map_err(|_| RejectReason::LifetimeBudget)?;
            }
        }
        let id = GrantId(self.next_grant);
        self.next_grant += 1;
        let start_freq = self.model.plan().step_up(self.model.plan().turbo());
        self.grants.insert(
            id,
            Grant {
                ends_at: reservation.map(|d| now + d),
                cores,
                current: start_freq,
                started: now,
                request,
            },
        );
        self.stats.granted += 1;
        Ok(id)
    }

    /// Predicted-regular-power + active-OC + new-request fits under budget?
    fn power_fits(&self, now: SimTime, request: &OverclockRequest) -> bool {
        let regular = self.predict_regular(now);
        let active = self.overclock_demand();
        let extra =
            self.model
                .overclock_delta(request.expected_utilization, request.cores, request.target);
        regular + active + extra <= self.effective_budget()
    }

    fn predict_regular(&self, now: SimTime) -> Watts {
        match &self.template {
            Some(t) => Watts::new(t.predict(now)),
            // Without a template yet (first week of operation), fall back to
            // the latest measured draw net of active overclocking, or a
            // conservative mid-load guess before any measurement.
            None => match self.last_measured {
                Some(measured) => (measured - self.overclock_demand()).clamp_non_negative(),
                None => self
                    .model
                    .server_power_uniform(0.5, self.model.plan().turbo()),
            },
        }
    }

    /// Release a grant (workload no longer needs overclocking).
    ///
    /// For scheduled grants ended early, the unconsumed tail of the
    /// reservation (from `now` to the scheduled end) is returned to the
    /// budget.
    ///
    /// Returns `false` if the grant does not exist.
    pub fn end_overclock(&mut self, now: SimTime, id: GrantId) -> bool {
        if let Some(grant) = self.grants.remove(&id) {
            if let Some(ends_at) = grant.ends_at {
                if ends_at > now {
                    let _ = self.lifetime.release(ends_at.since(now));
                }
            }
            let cause = self.grant_decisions.remove(&id).unwrap_or(0);
            tm_event!(self.telemetry, now, Component::Soa, Severity::Info, "oc_release",
                "server" => self.server_id,
                "grant" => id.0,
                "vm" => grant.request.vm.clone(),
                "held_us" => now.saturating_since(grant.started),
                "cause_id" => cause);
            true
        } else {
            false
        }
    }

    /// One control-loop iteration (§IV-D). `measured_power` is the server's
    /// current draw; `signal` is the latest rack-manager message, if any,
    /// and `signal_cause` the causal decision id of the rack event that
    /// produced it (`0` when unknown): backoff/retreat telemetry emitted in
    /// response to the signal carries it as `cause_id`. Returns the events
    /// the platform must apply/forward.
    pub fn control_tick(
        &mut self,
        now: SimTime,
        measured_power: Watts,
        signal: Option<RackSignal>,
        signal_cause: u64,
    ) -> Vec<SoaEvent> {
        let mut events = Vec::new();
        self.roll_epoch(now);
        self.check_staleness(now);
        let dt = match self.last_tick {
            Some(last) => now.saturating_since(last),
            None => SimDuration::ZERO,
        };
        self.last_tick = Some(now);
        self.last_measured = Some(measured_power);

        self.account_time(now, dt, &mut events);
        self.expire_schedules(now, &mut events);
        self.handle_signal(now, signal, signal_cause);
        self.feedback_step(measured_power, &mut events);
        self.explore_step(now, measured_power);
        self.power_rejected = false;
        self.predict_exhaustion(now, &mut events);
        self.trace_tick(now, measured_power, &events);
        // Grants that ended this tick no longer need their admission ids.
        for event in &events {
            if let SoaEvent::GrantEnded { grant, .. } = event {
                self.grant_decisions.remove(grant);
            }
        }
        events
    }

    /// Mirror the outgoing control-loop events into telemetry.
    fn trace_tick(&self, now: SimTime, measured_power: Watts, events: &[SoaEvent]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.metrics(|m| {
            m.observe(
                "soa_measured_w",
                &[("server", self.server_id.into())],
                measured_power.get(),
            );
        });
        for event in events {
            match event {
                SoaEvent::SetFrequency { grant, frequency } => {
                    tm_event!(self.telemetry, now, Component::Soa, Severity::Debug, "freq_set",
                        "server" => self.server_id,
                        "grant" => grant.0,
                        "mhz" => frequency.get(),
                        "cause_id" => self.grant_decisions.get(grant).copied().unwrap_or(0));
                }
                SoaEvent::GrantEnded { grant, reason } => {
                    tm_event!(self.telemetry, now, Component::Soa, Severity::Info, "grant_end",
                        "server" => self.server_id,
                        "grant" => grant.0,
                        "reason" => end_label(*reason),
                        "cause_id" => self.grant_decisions.get(grant).copied().unwrap_or(0));
                }
                SoaEvent::ExhaustionWarning {
                    resource,
                    eta,
                    decision,
                } => {
                    let label = match resource {
                        ExhaustedResource::Power => "power",
                        ExhaustedResource::Lifetime => "lifetime",
                    };
                    tm_event!(self.telemetry, now, Component::Soa, Severity::Warn,
                        "exhaustion_warning",
                        "server" => self.server_id,
                        "resource" => label,
                        "eta_us" => *eta,
                        "decision_id" => *decision);
                }
            }
        }
    }

    /// Charge elapsed overclocked time to the lifetime budget and per-core
    /// counters; migrate or end grants whose cores are exhausted.
    fn account_time(&mut self, now: SimTime, dt: SimDuration, events: &mut Vec<SoaEvent>) {
        if dt.is_zero() {
            return;
        }
        let turbo = self.model.plan().turbo();
        let active: Vec<GrantId> = self
            .grants
            .iter()
            .filter(|(_, g)| g.current > turbo)
            .map(|(&id, _)| id)
            .collect();
        if active.is_empty() {
            return;
        }
        // Per-core accounting.
        for id in &active {
            let cores = self.grants[id].cores.clone();
            for core in cores {
                self.tracker.record(core, dt);
            }
        }
        // Physical wear: charge the interval at the part-scaled ageing rate
        // of the hottest active operating point (temperature held at the
        // model reference — the sOA has no thermal sensor in this model).
        if let Some(wm) = &self.wear_model {
            if let Some(g) = active
                .iter()
                .map(|id| &self.grants[id])
                .max_by_key(|g| g.current)
            {
                let rate = wm.ageing_rate(
                    g.request.expected_utilization.clamp(0.0, 1.0),
                    g.current,
                    wm.reference_temp_c(),
                );
                self.wear.record(rate, dt);
            }
        }
        // Server-level budget: the wall-clock interval counts once.
        let scheduled_active = active.iter().any(|id| self.grants[id].ends_at.is_some());
        let consumed = if scheduled_active {
            self.lifetime
                .consume_reserved(now, dt)
                .or_else(|_| self.lifetime.consume(now, dt))
        } else {
            self.lifetime.consume(now, dt)
        };
        if consumed.is_err() && self.policy.admission_checked() {
            // Budget ran dry mid-grant: stop all overclocking.
            for id in active {
                if self.grants.remove(&id).is_some() {
                    events.push(SoaEvent::SetFrequency {
                        grant: id,
                        frequency: turbo,
                    });
                    events.push(SoaEvent::GrantEnded {
                        grant: id,
                        reason: GrantEndReason::LifetimeBudgetExhausted,
                    });
                }
            }
            return;
        }
        // Core exhaustion: migrate to fresh cores or end the grant (§IV-D).
        let need = SimDuration::from_minutes(5);
        let exhausted: Vec<GrantId> = self
            .grants
            .iter()
            .filter(|(_, g)| {
                g.current > turbo && g.cores.iter().any(|&c| !self.tracker.has_budget(c, need))
            })
            .map(|(&id, _)| id)
            .collect();
        for id in exhausted {
            if !self.policy.admission_checked() {
                continue; // Naive policy never migrates or stops.
            }
            let n = self.grants[&id].cores.len();
            let fresh = self.tracker.pick_cores(n, need);
            if fresh.len() == n {
                if let Some(g) = self.grants.get_mut(&id) {
                    g.cores = fresh;
                }
            } else if self.grants.remove(&id).is_some() {
                events.push(SoaEvent::SetFrequency {
                    grant: id,
                    frequency: turbo,
                });
                events.push(SoaEvent::GrantEnded {
                    grant: id,
                    reason: GrantEndReason::LifetimeBudgetExhausted,
                });
            }
        }
    }

    fn expire_schedules(&mut self, now: SimTime, events: &mut Vec<SoaEvent>) {
        let done: Vec<GrantId> = self
            .grants
            .iter()
            .filter(|(_, g)| g.ends_at.is_some_and(|e| now >= e))
            .map(|(&id, _)| id)
            .collect();
        let turbo = self.model.plan().turbo();
        for id in done {
            self.grants.remove(&id);
            events.push(SoaEvent::SetFrequency {
                grant: id,
                frequency: turbo,
            });
            events.push(SoaEvent::GrantEnded {
                grant: id,
                reason: GrantEndReason::ScheduleComplete,
            });
        }
    }

    fn handle_signal(&mut self, now: SimTime, signal: Option<RackSignal>, signal_cause: u64) {
        match signal {
            Some(RackSignal::Capping) => {
                // Back to the initial assignment (§IV-D "On a power capping
                // event, the sOA goes back to its initial power budget"),
                // and hold off before exploring again.
                self.stats.capping_resets += 1;
                self.explorer.extra = Watts::ZERO;
                let until = now + self.explorer.backoff;
                self.explorer.backoff = (self.explorer.backoff * 2).min(BACKOFF_MAX);
                self.explorer.phase = Phase::BackedOff { until };
                tm_event!(self.telemetry, now, Component::Soa, Severity::Error, "capping_reset",
                    "server" => self.server_id,
                    "backoff_until_us" => until,
                    "cause_id" => signal_cause);
                self.telemetry.metrics(|m| {
                    m.inc_counter("soa_capping_resets", &[("server", self.server_id.into())]);
                });
            }
            Some(RackSignal::Warning) => {
                let exploring = matches!(self.explorer.phase, Phase::Exploring { .. });
                if exploring && self.policy.heeds_warnings() {
                    self.stats.warning_retreats += 1;
                    self.explorer.extra = (self.explorer.extra - EXPLORE_STEP).clamp_non_negative();
                    let until = now + self.explorer.backoff;
                    self.explorer.backoff = (self.explorer.backoff * 2).min(BACKOFF_MAX);
                    self.explorer.phase = Phase::BackedOff { until };
                    tm_event!(self.telemetry, now, Component::Soa, Severity::Warn,
                        "warning_retreat",
                        "server" => self.server_id,
                        "extra_w" => self.explorer.extra.get(),
                        "backoff_until_us" => until,
                        "cause_id" => signal_cause);
                    self.telemetry.metrics(|m| {
                        m.inc_counter("soa_warning_retreats", &[("server", self.server_id.into())]);
                    });
                }
                // "An sOA ignores the message if it is not exploring."
            }
            Some(RackSignal::Normal) | None => {}
        }
    }

    /// One step of the prioritized frequency feedback loop.
    fn feedback_step(&mut self, measured: Watts, events: &mut Vec<SoaEvent>) {
        if self.grants.is_empty() {
            return;
        }
        let plan = self.model.plan();
        let turbo = plan.turbo();
        let limit = self.effective_budget();
        let threshold = (limit - POWER_BUFFER).clamp_non_negative();
        if measured >= limit {
            // Throttle the lowest-priority overclocked grant one step.
            if let Some((&id, _)) = self
                .grants
                .iter()
                .filter(|(_, g)| g.current > turbo)
                .min_by_key(|(&id, g)| (g.request.priority, id))
            {
                if let Some(g) = self.grants.get_mut(&id) {
                    g.current = plan.step_down(g.current).max(turbo);
                    events.push(SoaEvent::SetFrequency {
                        grant: id,
                        frequency: g.current,
                    });
                }
            }
        } else if measured < threshold {
            // Boost the highest-priority grant still below target.
            if let Some((&id, _)) = self
                .grants
                .iter()
                .filter(|(_, g)| g.current < g.request.target.min(plan.max_overclock()))
                .max_by_key(|(&id, g)| (g.request.priority, std::cmp::Reverse(id)))
            {
                if let Some(g) = self.grants.get_mut(&id) {
                    g.current = plan.step_up(g.current).min(g.request.target);
                    events.push(SoaEvent::SetFrequency {
                        grant: id,
                        frequency: g.current,
                    });
                }
            }
        }
        // Inside the hold band: do nothing.
    }

    /// Age of the assigned budget at `now`, when staleness tracking is
    /// enabled (a [`Self::set_power_budget_at`] call has been made).
    fn budget_staleness(&self, now: SimTime) -> Option<SimDuration> {
        self.budget_refreshed_at.map(|at| now.saturating_since(at))
    }

    /// Enter degraded mode when the assigned budget has gone stale (no gOA
    /// refresh within `budget_staleness_limit`). Degraded agents freeze
    /// exploration and fall back to enforcing the last assignment — the
    /// safe-on-stale-budgets behaviour the paper's decentralized design
    /// promises (§III-Q5). Exit happens in [`Self::set_power_budget_at`]
    /// when a fresh budget finally lands.
    fn check_staleness(&mut self, now: SimTime) {
        if self.degraded_since.is_some() {
            return;
        }
        let Some(age) = self.budget_staleness(now) else {
            return;
        };
        if age < BUDGET_STALENESS_LIMIT {
            return;
        }
        self.degraded_since = Some(now);
        self.explorer.extra = Watts::ZERO;
        self.explorer.phase = Phase::Idle;
        let decision = self.telemetry.next_id();
        self.degraded_decision = decision;
        tm_event!(self.telemetry, now, Component::Fault, Severity::Warn, "degraded_enter",
            "server" => self.server_id,
            "stale_us" => age,
            "decision_id" => decision);
        self.telemetry.metrics(|m| {
            m.inc_counter("soa_degraded_entries", &[("server", self.server_id.into())]);
        });
    }

    /// Simulate an sOA process restart (fault injection): all volatile
    /// control state is lost and the server re-joins conservatively — every
    /// live grant is revoked back to the default (turbo) frequency, the
    /// power template is forgotten, and the assigned budget drops to zero so
    /// no overclocking is admitted until the gOA assigns a fresh budget.
    ///
    /// Durable state survives: the lifetime ledger, per-core time-in-state
    /// counters, the assigned silicon part identity, and the ageing ledger
    /// all model physical facts about the hardware rather than control
    /// state (the paper's reliability accounting is persisted
    /// platform-side), and the cumulative stats are measurement, not
    /// control state. Grant ids keep counting up so post-restart grants
    /// never collide with revoked ones.
    ///
    /// Returns the revocation events the platform must apply, exactly like
    /// [`Self::control_tick`].
    pub fn restart(&mut self, now: SimTime) -> Vec<SoaEvent> {
        let turbo = self.model.plan().turbo();
        let mut events = Vec::new();
        let dropped = self.grants.len();
        let ids: Vec<GrantId> = self.grants.keys().copied().collect();
        for id in ids {
            events.push(SoaEvent::SetFrequency {
                grant: id,
                frequency: turbo,
            });
            events.push(SoaEvent::GrantEnded {
                grant: id,
                reason: GrantEndReason::AgentRestart,
            });
        }
        self.grants.clear();
        self.grant_decisions.clear();
        self.explorer = Explorer {
            phase: Phase::Idle,
            extra: Watts::ZERO,
            backoff: BACKOFF_INITIAL,
        };
        self.template = None;
        self.assigned_budget = Watts::ZERO;
        self.last_tick = None;
        self.last_measured = None;
        self.power_rejected = false;
        self.last_power_warning_eta = None;
        self.last_lifetime_warning_eta = None;
        self.last_admission_decision = 0;
        self.budget_refreshed_at = None;
        self.degraded_since = None;
        self.degraded_decision = 0;
        tm_event!(self.telemetry, now, Component::Fault, Severity::Warn, "fault_injected",
            "server" => self.server_id,
            "kind" => "soa_restart",
            "dropped_grants" => dropped,
            "decision_id" => self.telemetry.next_id());
        self.telemetry.metrics(|m| {
            m.inc_counter("soa_restarts", &[("server", self.server_id.into())]);
        });
        events
    }

    /// Exploration/exploitation phase transitions (§IV-D).
    fn explore_step(&mut self, now: SimTime, measured: Watts) {
        if !self.policy.explores() {
            return;
        }
        if self.degraded_since.is_some() {
            // Degraded: never push beyond the stale assignment.
            return;
        }
        let extra_before = self.explorer.extra;
        let limit = self.effective_budget();
        let threshold = (limit - POWER_BUFFER).clamp_non_negative();
        let plan = self.model.plan();
        let constrained = (measured >= threshold
            && self
                .grants
                .values()
                .any(|g| g.current < g.request.target.min(plan.max_overclock())))
            || self.power_rejected;
        match self.explorer.phase {
            Phase::Idle => {
                if constrained && self.explorer.extra < EXPLORE_CAP {
                    self.explorer.extra = (self.explorer.extra + EXPLORE_STEP).min(EXPLORE_CAP);
                    self.explorer.phase = Phase::Exploring { since: now };
                }
            }
            Phase::Exploring { since } => {
                if now.saturating_since(since) >= EXPLORE_WAIT {
                    // No warning arrived during the window: safe so far.
                    if constrained && self.explorer.extra < EXPLORE_CAP {
                        self.explorer.extra = (self.explorer.extra + EXPLORE_STEP).min(EXPLORE_CAP);
                        self.explorer.phase = Phase::Exploring { since: now };
                    } else {
                        self.explorer.phase = Phase::Exploiting {
                            until: now + EXPLOIT_TIME,
                        };
                        self.explorer.backoff = BACKOFF_INITIAL;
                    }
                }
            }
            Phase::Exploiting { until } => {
                if now >= until {
                    self.explorer.phase = Phase::Idle;
                }
            }
            Phase::BackedOff { until } => {
                if now >= until {
                    self.explorer.phase = Phase::Idle;
                }
            }
        }
        if self.explorer.extra != extra_before {
            tm_event!(self.telemetry, now, Component::Soa, Severity::Debug, "explore_budget",
                "server" => self.server_id,
                "extra_w" => self.explorer.extra.get(),
                "effective_w" => self.effective_budget().get());
        }
    }

    /// Emit exhaustion warnings when power or lifetime will run out within
    /// the configured window (§IV-D, Fig. 11).
    fn predict_exhaustion(&mut self, now: SimTime, events: &mut Vec<SoaEvent>) {
        // Lifetime: only relevant while actively overclocking.
        if !self.grants.is_empty() {
            if let Some(remaining) = self.lifetime.time_to_exhaustion(now) {
                if remaining <= EXHAUSTION_WINDOW {
                    let eta = now + remaining;
                    if self.last_lifetime_warning_eta != Some(eta) {
                        self.last_lifetime_warning_eta = Some(eta);
                        events.push(SoaEvent::ExhaustionWarning {
                            resource: ExhaustedResource::Lifetime,
                            eta,
                            decision: self.telemetry.next_id(),
                        });
                    }
                }
            } else {
                let eta = now;
                if self.last_lifetime_warning_eta != Some(eta) {
                    self.last_lifetime_warning_eta = Some(eta);
                    events.push(SoaEvent::ExhaustionWarning {
                        resource: ExhaustedResource::Lifetime,
                        eta,
                        decision: self.telemetry.next_id(),
                    });
                }
            }
        }
        // Power: find when predicted regular power + OC demand exceeds the
        // budget within the window.
        if let Some(template) = &self.template {
            let demand = self.overclock_demand();
            if demand > Watts::ZERO {
                let budget = self.effective_budget();
                let threshold = (budget - demand).get();
                if let Some(eta) = template.next_time_at_or_above(now, threshold, EXHAUSTION_WINDOW)
                {
                    if self.last_power_warning_eta != Some(eta) {
                        self.last_power_warning_eta = Some(eta);
                        events.push(SoaEvent::ExhaustionWarning {
                            resource: ExhaustedResource::Power,
                            eta,
                            decision: self.telemetry.next_id(),
                        });
                    }
                }
            }
        }
    }

    fn roll_epoch(&mut self, now: SimTime) {
        self.lifetime.advance_to(now);
        let epoch = now.as_micros() / EPOCH.as_micros();
        if epoch != self.tracker_epoch {
            self.tracker.reset();
            self.tracker_epoch = epoch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simcore::series::TimeSeries;
    use soc_predict::template::TemplateKind;

    fn agent(policy: PolicyKind) -> ServerOverclockAgent {
        let mut a = ServerOverclockAgent::new(PowerModel::reference_server(), policy);
        a.set_power_budget(Watts::new(450.0));
        a
    }

    fn oc_request(cores: usize) -> OverclockRequest {
        OverclockRequest::metrics_based("vm", cores, MegaHertz::new(4000))
    }

    fn flat_template(watts: Watts) -> PowerTemplate {
        let hist = TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::WEEK,
            SimDuration::from_minutes(5),
            |_| watts.get(),
        );
        PowerTemplate::build(&hist, TemplateKind::DailyMed)
    }

    #[test]
    fn grants_when_headroom_exists() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(250.0)));
        let id = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        assert_eq!(a.grants().count(), 1);
        assert_eq!(a.grant(id).unwrap().cores.len(), 8);
        assert_eq!(a.stats().granted, 1);
    }

    #[test]
    fn rejects_on_power_budget() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(440.0))); // barely under the 450W budget
        let err = a
            .request_overclock(SimTime::ZERO, oc_request(32))
            .unwrap_err();
        assert_eq!(err, RejectReason::PowerBudget);
    }

    #[test]
    fn naive_policy_grants_despite_power() {
        let mut a = agent(PolicyKind::NaiveOClock);
        a.set_power_template(flat_template(Watts::new(440.0)));
        assert!(a.request_overclock(SimTime::ZERO, oc_request(32)).is_ok());
    }

    #[test]
    fn rejects_malformed_requests() {
        let mut a = agent(PolicyKind::SmartOClock);
        let mut bad = oc_request(0);
        assert_eq!(
            a.request_overclock(SimTime::ZERO, bad.clone()).unwrap_err(),
            RejectReason::Invalid
        );
        bad = oc_request(4);
        bad.target = MegaHertz::new(3300); // not above turbo
        assert_eq!(
            a.request_overclock(SimTime::ZERO, bad).unwrap_err(),
            RejectReason::Invalid
        );
    }

    #[test]
    fn scheduled_requests_reserve_lifetime_budget() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        let before = a.lifetime_remaining();
        let req =
            OverclockRequest::scheduled("vm", 4, MegaHertz::new(4000), SimDuration::from_hours(2));
        a.request_overclock(SimTime::ZERO, req).unwrap();
        assert_eq!(before - a.lifetime_remaining(), SimDuration::from_hours(2));
    }

    #[test]
    fn rejects_scheduled_request_exceeding_budget() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        // Weekly budget is 16.8h; ask for 20h.
        let req =
            OverclockRequest::scheduled("vm", 4, MegaHertz::new(4000), SimDuration::from_hours(20));
        assert_eq!(
            a.request_overclock(SimTime::ZERO, req).unwrap_err(),
            RejectReason::LifetimeBudget
        );
    }

    #[test]
    fn feedback_ramps_frequency_up_to_target() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        let id = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        // Plenty of headroom: each tick should raise by one step.
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t += SimDuration::from_secs(1);
            let _ = a.control_tick(t, Watts::new(250.0), None, 0);
        }
        assert_eq!(a.grant(id).unwrap().current, MegaHertz::new(4000));
    }

    #[test]
    fn feedback_throttles_when_over_budget() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        let id = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            t += SimDuration::from_secs(1);
            let _ = a.control_tick(t, Watts::new(250.0), None, 0);
        }
        let high = a.grant(id).unwrap().current;
        // Now report draw above the budget.
        t += SimDuration::from_secs(1);
        let events = a.control_tick(t, Watts::new(460.0), None, 0);
        let lower = a.grant(id).unwrap().current;
        assert!(lower < high, "must throttle: {high} -> {lower}");
        assert!(events
            .iter()
            .any(|e| matches!(e, SoaEvent::SetFrequency { frequency, .. } if *frequency == lower)));
    }

    #[test]
    fn feedback_prioritizes_important_grants() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        let mut low = oc_request(4);
        low.priority = 1;
        low.vm = "low".into();
        let mut high = oc_request(4);
        high.priority = 9;
        high.vm = "high".into();
        let id_low = a.request_overclock(SimTime::ZERO, low).unwrap();
        let id_high = a.request_overclock(SimTime::ZERO, high).unwrap();
        // One boost step with headroom goes to the high-priority grant.
        let _ = a.control_tick(SimTime::from_secs(1), Watts::new(250.0), None, 0);
        assert!(a.grant(id_high).unwrap().current > a.grant(id_low).unwrap().current);
        // Over budget: the low-priority grant is throttled first.
        let _ = a.control_tick(SimTime::from_secs(2), Watts::new(500.0), None, 0);
        let turbo = a.model().plan().turbo();
        assert_eq!(a.grant(id_low).unwrap().current, turbo);
    }

    #[test]
    fn exploration_raises_effective_budget_when_constrained() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_budget(Watts::new(300.0));
        a.set_power_template(flat_template(Watts::new(200.0)));
        let _ = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        // Draw pinned at the budget: constrained, so exploration begins.
        let _ = a.control_tick(SimTime::from_secs(1), Watts::new(299.0), None, 0);
        assert!(a.effective_budget() > Watts::new(300.0));
    }

    #[test]
    fn warning_during_exploration_retreats_and_backs_off() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_budget(Watts::new(300.0));
        a.set_power_template(flat_template(Watts::new(200.0)));
        let _ = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        let _ = a.control_tick(SimTime::from_secs(1), Watts::new(299.0), None, 0);
        let explored = a.effective_budget();
        assert!(explored > Watts::new(300.0));
        // Warning arrives while exploring: retreat one step.
        let _ = a.control_tick(
            SimTime::from_secs(2),
            Watts::new(310.0),
            Some(RackSignal::Warning),
            0,
        );
        assert_eq!(a.effective_budget(), Watts::new(300.0));
        assert_eq!(a.stats().warning_retreats, 1);
        // Backed off: no immediate re-exploration.
        let _ = a.control_tick(SimTime::from_secs(3), Watts::new(299.0), None, 0);
        assert_eq!(a.effective_budget(), Watts::new(300.0));
        // After the backoff expires, exploration resumes.
        let _ = a.control_tick(SimTime::from_secs(120), Watts::new(299.0), None, 0);
        let _ = a.control_tick(SimTime::from_secs(121), Watts::new(299.0), None, 0);
        assert!(a.effective_budget() > Watts::new(300.0));
    }

    #[test]
    fn power_rejection_triggers_exploration() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_budget(Watts::new(260.0));
        a.set_power_template(flat_template(Watts::new(250.0)));
        // Not enough headroom for 16 cores: rejected for power.
        let err = a
            .request_overclock(SimTime::ZERO, oc_request(16))
            .unwrap_err();
        assert_eq!(err, RejectReason::PowerBudget);
        // The next control tick explores a bigger budget even though there
        // is no active grant.
        let _ = a.control_tick(SimTime::from_secs(1), Watts::new(250.0), None, 0);
        assert!(a.effective_budget() > Watts::new(260.0));
        // After enough exploration (no warnings), the retry succeeds.
        let mut t = SimTime::from_secs(1);
        let mut granted = false;
        for _ in 0..20 {
            t += SimDuration::from_secs(31);
            if a.request_overclock(t, oc_request(16)).is_ok() {
                granted = true;
                break;
            }
            let _ = a.control_tick(t, Watts::new(250.0), None, 0);
        }
        assert!(granted, "exploration should eventually admit the request");
    }

    #[test]
    fn nowarning_policy_ignores_warnings() {
        let mut a = agent(PolicyKind::NoWarning);
        a.set_power_budget(Watts::new(300.0));
        a.set_power_template(flat_template(Watts::new(200.0)));
        let _ = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        let _ = a.control_tick(SimTime::from_secs(1), Watts::new(299.0), None, 0);
        let explored = a.effective_budget();
        let _ = a.control_tick(
            SimTime::from_secs(2),
            Watts::new(310.0),
            Some(RackSignal::Warning),
            0,
        );
        assert_eq!(
            a.effective_budget(),
            explored,
            "NoWarning must ignore warnings"
        );
    }

    #[test]
    fn nofeedback_policy_never_explores() {
        let mut a = agent(PolicyKind::NoFeedback);
        a.set_power_budget(Watts::new(300.0));
        a.set_power_template(flat_template(Watts::new(200.0)));
        let _ = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        for s in 1..100 {
            let _ = a.control_tick(SimTime::from_secs(s), Watts::new(299.0), None, 0);
        }
        assert_eq!(a.effective_budget(), Watts::new(300.0));
    }

    #[test]
    fn capping_resets_to_assigned_budget() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_budget(Watts::new(300.0));
        a.set_power_template(flat_template(Watts::new(200.0)));
        let _ = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        // Explore a couple of steps.
        let _ = a.control_tick(SimTime::from_secs(1), Watts::new(299.0), None, 0);
        let _ = a.control_tick(SimTime::from_secs(40), Watts::new(319.0), None, 0);
        assert!(a.effective_budget() > Watts::new(300.0));
        let _ = a.control_tick(
            SimTime::from_secs(41),
            Watts::new(340.0),
            Some(RackSignal::Capping),
            0,
        );
        assert_eq!(a.effective_budget(), Watts::new(300.0));
        assert_eq!(a.stats().capping_resets, 1);
    }

    #[test]
    fn schedule_expires_and_frequency_returns_to_turbo() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        let req = OverclockRequest::scheduled(
            "vm",
            4,
            MegaHertz::new(4000),
            SimDuration::from_minutes(10),
        );
        let id = a.request_overclock(SimTime::ZERO, req).unwrap();
        let events = a.control_tick(
            SimTime::ZERO + SimDuration::from_minutes(11),
            Watts::new(250.0),
            None,
            0,
        );
        assert!(a.grant(id).is_none());
        assert!(events.iter().any(|e| matches!(
            e,
            SoaEvent::GrantEnded {
                reason: GrantEndReason::ScheduleComplete,
                ..
            }
        )));
    }

    #[test]
    fn lifetime_exhaustion_ends_grants() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        // Shrink the budget so it exhausts quickly: 0.1% of a week ≈ 10 min.
        a.scale_lifetime_budget(0.01);
        let _ = a.request_overclock(SimTime::ZERO, oc_request(4)).unwrap();
        // Ramp up so the grant is actually overclocked.
        let mut t = SimTime::ZERO;
        let mut ended = false;
        for _ in 0..300 {
            t += SimDuration::from_minutes(1);
            let events = a.control_tick(t, Watts::new(250.0), None, 0);
            if events.iter().any(|e| {
                matches!(
                    e,
                    SoaEvent::GrantEnded {
                        reason: GrantEndReason::LifetimeBudgetExhausted,
                        ..
                    }
                )
            }) {
                ended = true;
                break;
            }
        }
        assert!(
            ended,
            "grant should end when the lifetime budget is exhausted"
        );
        assert_eq!(a.grants().count(), 0);
    }

    #[test]
    fn exhaustion_warning_fires_within_window() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        a.scale_lifetime_budget(0.02); // ~20 min budget
        let _ = a.request_overclock(SimTime::ZERO, oc_request(4)).unwrap();
        let mut warned = false;
        let mut t = SimTime::ZERO;
        for _ in 0..30 {
            t += SimDuration::from_minutes(1);
            let events = a.control_tick(t, Watts::new(250.0), None, 0);
            if events.iter().any(|e| {
                matches!(
                    e,
                    SoaEvent::ExhaustionWarning {
                        resource: ExhaustedResource::Lifetime,
                        ..
                    }
                )
            }) {
                warned = true;
                break;
            }
        }
        assert!(
            warned,
            "lifetime exhaustion warning should fire before the budget dies"
        );
    }

    #[test]
    fn power_exhaustion_warning_uses_template_ramp() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_budget(Watts::new(400.0));
        // Template: 250W at night, 395W during 9-17h.
        let hist = TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::WEEK,
            SimDuration::from_minutes(5),
            |t| {
                let h = t.time_of_day().as_hours_f64();
                if (9.0..17.0).contains(&h) {
                    395.0
                } else {
                    250.0
                }
            },
        );
        a.set_power_template(PowerTemplate::build(&hist, TemplateKind::DailyMed));
        // Start OC on the following Monday at 8:50; the 9:00 ramp collides
        // with the OC demand within the 15-minute window.
        let now = SimTime::ZERO
            + SimDuration::WEEK
            + SimDuration::from_hours(8)
            + SimDuration::from_minutes(50);
        let _ = a.request_overclock(now, oc_request(8)).unwrap();
        let events = a.control_tick(now, Watts::new(260.0), None, 0);
        assert!(
            events.iter().any(|e| matches!(
                e,
                SoaEvent::ExhaustionWarning {
                    resource: ExhaustedResource::Power,
                    ..
                }
            )),
            "power exhaustion warning should fire before the 9AM ramp"
        );
    }

    #[test]
    fn early_release_returns_scheduled_reservation() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        let req =
            OverclockRequest::scheduled("vm", 4, MegaHertz::new(4000), SimDuration::from_hours(4));
        let id = a.request_overclock(SimTime::ZERO, req).unwrap();
        let reserved_after = a.lifetime_remaining();
        // End after one hour: three hours of reservation come back.
        assert!(a.end_overclock(SimTime::ZERO + SimDuration::from_hours(1), id));
        assert_eq!(
            a.lifetime_remaining() - reserved_after,
            SimDuration::from_hours(3)
        );
    }

    #[test]
    fn end_overclock_removes_grant() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        let id = a.request_overclock(SimTime::ZERO, oc_request(4)).unwrap();
        assert!(a.end_overclock(SimTime::from_secs(60), id));
        assert!(!a.end_overclock(SimTime::from_secs(61), id));
        assert_eq!(a.grants().count(), 0);
    }

    #[test]
    fn grant_migrates_to_fresh_cores_when_assigned_cores_exhaust() {
        // §IV-D: "the sOA explores if any other cores on a server have
        // enough budget to support the VM's overclocking. In that case, the
        // sOA reschedules the VM on those cores."
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        let id = a.request_overclock(SimTime::ZERO, oc_request(4)).unwrap();
        let original = a.grant(id).unwrap().cores.clone();
        // Pre-wear the assigned cores to the brink of their per-core cap.
        let cap = a.tracker.per_core_cap();
        for &c in &original {
            a.tracker
                .record(c, cap.saturating_sub(SimDuration::from_minutes(6)));
        }
        // Ramp the grant above turbo, then let accounting notice exhaustion.
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            t += SimDuration::from_secs(30);
            let _ = a.control_tick(t, Watts::new(250.0), None, 0);
        }
        t += SimDuration::from_minutes(10);
        let _ = a.control_tick(t, Watts::new(250.0), None, 0);
        let migrated = a.grant(id).expect("grant must survive via migration");
        assert_ne!(
            migrated.cores, original,
            "the grant should have been rescheduled onto fresh cores"
        );
        for &c in &migrated.cores {
            assert!(a.tracker.has_budget(c, SimDuration::from_minutes(5)));
        }
    }

    fn binned_agent(risk_budget: f64, part: SiliconPart) -> ServerOverclockAgent {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_silicon(part, risk_budget);
        a
    }

    fn marginal_part(max_oc: MegaHertz, risk: f64) -> SiliconPart {
        SiliconPart {
            bin: 3,
            max_oc,
            voltage_wear_mult: 1.4,
            temp_wear_mult: 1.2,
            risk,
        }
    }

    #[test]
    fn uniform_silicon_is_transparent_even_under_zero_risk_budget() {
        let plan = PowerModel::reference_server().plan();
        let mut a = binned_agent(0.0, SiliconPart::uniform(&plan));
        a.set_power_template(flat_template(Watts::new(250.0)));
        let id = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        assert_eq!(a.grant(id).unwrap().request.target, MegaHertz::new(4000));
    }

    #[test]
    fn risk_gate_down_bins_to_certified_level() {
        // risk 1.0 under a 0.5 budget: the highest ladder level whose
        // overclock fraction stays ≤ 0.5 of the 3300→4000 span is 3600 MHz.
        let plan = PowerModel::reference_server().plan();
        let part = marginal_part(plan.max_overclock(), 1.0);
        let mut a = binned_agent(0.5, part);
        a.set_power_template(flat_template(Watts::new(250.0)));
        let id = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        assert_eq!(a.grant(id).unwrap().request.target, MegaHertz::new(3600));
    }

    #[test]
    fn risk_gate_denies_marginal_part_under_tight_budget() {
        let plan = PowerModel::reference_server().plan();
        let part = marginal_part(plan.max_overclock(), 0.8);
        let mut a = binned_agent(0.0, part);
        a.set_power_template(flat_template(Watts::new(250.0)));
        let err = a
            .request_overclock(SimTime::ZERO, oc_request(8))
            .unwrap_err();
        assert_eq!(err, RejectReason::RiskBudget);
        assert_eq!(a.grants().count(), 0);
    }

    #[test]
    fn risk_gate_applies_to_naive_policy_too() {
        // Binning is a physical property of the part, not a policy choice.
        let plan = PowerModel::reference_server().plan();
        let mut a = agent(PolicyKind::NaiveOClock);
        a.set_silicon(marginal_part(plan.max_overclock(), 0.8), 0.0);
        let err = a
            .request_overclock(SimTime::ZERO, oc_request(8))
            .unwrap_err();
        assert_eq!(err, RejectReason::RiskBudget);
    }

    #[test]
    #[should_panic(expected = "risk budget must be in [0, 1]")]
    fn set_silicon_rejects_bad_risk_budget() {
        let plan = PowerModel::reference_server().plan();
        agent(PolicyKind::SmartOClock).set_silicon(SiliconPart::uniform(&plan), 1.5);
    }

    #[test]
    fn restart_revokes_grants_and_rejoins_conservatively() {
        let mut a = agent(PolicyKind::SmartOClock);
        let grant = a
            .request_overclock(SimTime::ZERO, oc_request(8))
            .expect("headroom before the fault");
        // The process restarts: volatile state is gone.
        let events = a.restart(SimTime::from_secs(30));
        assert!(
            events.iter().any(|e| matches!(
                e,
                SoaEvent::GrantEnded {
                    grant: g,
                    reason: GrantEndReason::AgentRestart,
                } if *g == grant
            )),
            "restart must revoke the live grant: {events:?}"
        );
        assert!(a.grant(grant).is_none());
        // Conservative re-join: no budget yet, so admission denies.
        let err = a
            .request_overclock(SimTime::from_secs(31), oc_request(8))
            .unwrap_err();
        assert_eq!(err, RejectReason::PowerBudget);
        // A fresh gOA assignment restores service.
        a.set_power_budget(Watts::new(450.0));
        assert!(a
            .request_overclock(SimTime::from_secs(32), oc_request(8))
            .is_ok());
    }

    #[test]
    fn restart_preserves_silicon_identity_and_wear_ledger() {
        let plan = PowerModel::reference_server().plan();
        let part = marginal_part(plan.max_overclock(), 0.3);
        let mut a = binned_agent(1.0, part);
        a.set_power_template(flat_template(Watts::new(200.0)));
        let _ = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
        // Ramp above turbo and let accounting charge the ageing ledger.
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t += SimDuration::from_minutes(1);
            let _ = a.control_tick(t, Watts::new(250.0), None, 0);
        }
        let worn = a.wear.actual_days();
        assert!(worn > 0.0, "overclocked intervals must accrue wear");
        let _ = a.restart(t);
        assert_eq!(a.silicon(), Some(&part), "bin identity is durable");
        assert_eq!(
            a.wear.actual_days(),
            worn,
            "the wear ledger survives a restart"
        );
        // The risk gate still enforces after the restart.
        a.set_power_budget(Watts::new(450.0));
        assert!(a.request_overclock(t, oc_request(8)).is_ok());
    }

    #[test]
    fn wear_accrues_faster_on_marginal_silicon() {
        let plan = PowerModel::reference_server().plan();
        let run = |part: SiliconPart| {
            let mut a = binned_agent(1.0, part);
            a.set_power_template(flat_template(Watts::new(200.0)));
            let _ = a.request_overclock(SimTime::ZERO, oc_request(8)).unwrap();
            let mut t = SimTime::ZERO;
            for _ in 0..10 {
                t += SimDuration::from_minutes(1);
                let _ = a.control_tick(t, Watts::new(250.0), None, 0);
            }
            a.wear.actual_days()
        };
        let pristine = run(SiliconPart::uniform(&plan));
        let marginal = run(marginal_part(plan.max_overclock(), 0.3));
        assert!(
            marginal > pristine,
            "higher wear multipliers must age faster: {marginal} vs {pristine}"
        );
    }

    #[test]
    fn core_budget_rejection_when_all_cores_worn() {
        let mut a = agent(PolicyKind::SmartOClock);
        a.set_power_template(flat_template(Watts::new(200.0)));
        // Exhaust every core's per-epoch budget except the lifetime budget.
        for c in 0..a.model().cores() {
            a.tracker.record(c, SimDuration::from_days(7));
        }
        let err = a
            .request_overclock(SimTime::ZERO, oc_request(4))
            .unwrap_err();
        assert_eq!(err, RejectReason::CoreBudget);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn wear_is_monotone_across_restarts(
            binned in 0u32..2,
            ops in prop::collection::vec((0u32..5, 1u64..20, 1usize..17), 1..80),
        ) {
            // Physical wear is a durable fact about the part: no sequence of
            // requests, budget grants, control ticks, releases and agent
            // restarts may ever make the ledger read less.
            let plan = PowerModel::reference_server().plan();
            let part = if binned == 1 {
                marginal_part(plan.max_overclock(), 0.3)
            } else {
                SiliconPart::uniform(&plan)
            };
            let template = flat_template(Watts::new(200.0));
            let mut a = binned_agent(1.0, part);
            a.set_power_template(template.clone());
            let mut t = SimTime::ZERO;
            let mut worn = a.wear.actual_days();
            for (op, minutes, cores) in ops {
                t += SimDuration::from_minutes(minutes);
                match op {
                    0 => {
                        let _ = a.request_overclock(t, oc_request(cores));
                    }
                    // The gOA grants a budget (and the template a restart
                    // dropped) back.
                    1 => {
                        a.set_power_budget(Watts::new(450.0));
                        a.set_power_template(template.clone());
                    }
                    2 => {
                        let _ = a.control_tick(t, Watts::new(250.0), None, 0);
                    }
                    3 => {
                        let first = a.grants().map(|(id, _)| id).next();
                        if let Some(id) = first {
                            a.end_overclock(t, id);
                        }
                    }
                    _ => {
                        let _ = a.restart(t);
                    }
                }
                let now = a.wear.actual_days();
                prop_assert!(now >= worn, "wear fell from {worn} to {now} after op {op}");
                worn = now;
            }
        }
    }
}
