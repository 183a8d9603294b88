//! Workload Intelligence (WI) agents.
//!
//! "Applications can use metrics (e.g., latency, CPU utilization) or
//! schedule-based policies to trigger overclocking, and the decisions can be
//! made based on instance- and deployment-level monitoring" (paper §I,
//! §IV-A). Local agents collect per-VM metrics; the global agent aggregates
//! them per service, issues start/stop-overclocking signals, and takes
//! corrective action (scale-out) when overclocking is rejected or predicted
//! to run out.

use simcore::time::SimTime;
use soc_telemetry::{tm_event, Component, Severity, Telemetry};

/// Which metric a metrics-based trigger watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Tail (P99) latency in milliseconds.
    TailLatencyMs,
    /// Mean CPU utilization in `[0, 1]`.
    CpuUtilization,
    /// Queue length (requests waiting).
    QueueLength,
}

/// Threshold pair for a metrics-based trigger. Overclocking starts when the
/// aggregated metric exceeds `scale_up` and stops below `scale_down`
/// (hysteresis avoids dithering, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricTrigger {
    /// The watched metric.
    pub kind: MetricKind,
    /// Start-overclocking threshold.
    pub scale_up: f64,
    /// Stop-overclocking threshold (must be below `scale_up`).
    pub scale_down: f64,
}

impl MetricTrigger {
    /// Build a trigger.
    ///
    /// # Panics
    /// Panics if `scale_down >= scale_up`.
    pub fn new(kind: MetricKind, scale_up: f64, scale_down: f64) -> MetricTrigger {
        assert!(
            scale_down < scale_up,
            "scale_down must be below scale_up (hysteresis)"
        );
        MetricTrigger {
            kind,
            scale_up,
            scale_down,
        }
    }
}

/// A daily schedule window for schedule-based overclocking (e.g. "9-10 AM
/// local time", §IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleWindow {
    /// Window start, hours from midnight.
    pub start_hour: f64,
    /// Window end, hours from midnight (must exceed `start_hour`).
    pub end_hour: f64,
    /// Whether the window applies on weekends too.
    pub include_weekends: bool,
}

impl ScheduleWindow {
    /// Build a window.
    ///
    /// # Panics
    /// Panics unless `0 <= start < end <= 24`.
    pub fn new(start_hour: f64, end_hour: f64, include_weekends: bool) -> ScheduleWindow {
        assert!(
            (0.0..24.0).contains(&start_hour) && start_hour < end_hour && end_hour <= 24.0,
            "invalid schedule window [{start_hour}, {end_hour})"
        );
        ScheduleWindow {
            start_hour,
            end_hour,
            include_weekends,
        }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        if !self.include_weekends && t.weekday().is_weekend() {
            return false;
        }
        let h = t.time_of_day().as_hours_f64();
        h >= self.start_hour && h < self.end_hour
    }
}

/// Per-service overclocking policy configured by the workload owner.
#[derive(Debug, Clone, PartialEq)]
pub struct OverclockPolicy {
    /// Metrics-based trigger, if any.
    pub trigger: Option<MetricTrigger>,
    /// Schedule-based windows, if any (combinable with a trigger, §IV-A).
    pub schedule: Vec<ScheduleWindow>,
    /// Corrective action: create `scale_out_step` new VMs once
    /// `rejections_before_scale_out` overclocking attempts were rejected.
    pub rejections_before_scale_out: usize,
    /// How many VMs a corrective scale-out adds.
    pub scale_out_step: usize,
    /// Deployment-level utilization goal (WebConf-style): when set,
    /// overclocking is suppressed while the deployment-level mean CPU
    /// utilization meets the goal, regardless of hot individual VMs (Fig. 4).
    pub deployment_goal: Option<f64>,
}

impl OverclockPolicy {
    /// A latency-triggered policy: overclock when aggregated P99 exceeds
    /// `up_ms`, stop below `down_ms`.
    pub fn latency(up_ms: f64, down_ms: f64) -> OverclockPolicy {
        OverclockPolicy {
            trigger: Some(MetricTrigger::new(
                MetricKind::TailLatencyMs,
                up_ms,
                down_ms,
            )),
            schedule: Vec::new(),
            rejections_before_scale_out: 4,
            scale_out_step: 1,
            deployment_goal: None,
        }
    }

    /// A schedule-only policy.
    pub fn scheduled(windows: Vec<ScheduleWindow>) -> OverclockPolicy {
        OverclockPolicy {
            trigger: None,
            schedule: windows,
            rejections_before_scale_out: 2,
            scale_out_step: 1,
            deployment_goal: None,
        }
    }
}

/// One VM's metric snapshot, as reported by its local WI agent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VmMetrics {
    /// P99 latency over the last window, ms (NaN when idle).
    pub tail_latency_ms: f64,
    /// Mean CPU utilization over the last window.
    pub cpu_utilization: f64,
    /// Current queue length.
    pub queue_length: f64,
}

/// Local WI agent: smooths raw per-VM metrics with an EWMA before they reach
/// the global agent (jittery single-window tails would cause dithering).
#[derive(Debug, Clone)]
pub struct LocalWiAgent {
    alpha: f64,
    smoothed: Option<VmMetrics>,
    telemetry: Telemetry,
    vm: usize,
}

impl LocalWiAgent {
    /// Create an agent with EWMA factor `alpha` (weight of the newest
    /// sample).
    ///
    /// # Panics
    /// Panics unless `alpha` is in `(0, 1]`.
    pub fn new(alpha: f64) -> LocalWiAgent {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        LocalWiAgent {
            alpha,
            smoothed: None,
            telemetry: Telemetry::disabled(),
            vm: 0,
        }
    }

    /// Attach a telemetry handle, labelling this agent's `wi_observe`
    /// records with `vm`. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, vm: usize) {
        self.telemetry = telemetry;
        self.vm = vm;
    }

    /// Feed one raw window observation; returns the smoothed metrics to
    /// forward to the global agent. With telemetry attached, also emits a
    /// `wi_observe` record (high-volume, `Debug` severity).
    pub fn observe(&mut self, now: SimTime, raw: VmMetrics) -> VmMetrics {
        let s = match self.smoothed {
            None => raw,
            Some(prev) => VmMetrics {
                tail_latency_ms: ewma(self.alpha, prev.tail_latency_ms, raw.tail_latency_ms),
                cpu_utilization: ewma(self.alpha, prev.cpu_utilization, raw.cpu_utilization),
                queue_length: ewma(self.alpha, prev.queue_length, raw.queue_length),
            },
        };
        self.smoothed = Some(s);
        tm_event!(self.telemetry, now, Component::Wi, Severity::Debug, "wi_observe",
            "vm" => self.vm,
            "latency_ms" => s.tail_latency_ms,
            "util" => s.cpu_utilization,
            "queue" => s.queue_length);
        s
    }

    /// The current smoothed metrics, if any observation arrived yet.
    pub fn current(&self) -> Option<VmMetrics> {
        self.smoothed
    }
}

fn ewma(alpha: f64, prev: f64, new: f64) -> f64 {
    if new.is_nan() {
        return prev;
    }
    if prev.is_nan() {
        return new;
    }
    alpha * new + (1.0 - alpha) * prev
}

/// What the global agent wants the platform to do this round.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WiDecision {
    /// Whether the service should be overclocked right now.
    pub overclock: bool,
    /// Additional VM instances to create (corrective / proactive scale-out).
    pub scale_out: usize,
    /// Whether load has dropped enough to retire an instance.
    pub scale_in: bool,
}

/// Global WI agent for one service deployment.
#[derive(Debug, Clone)]
pub struct GlobalWiAgent {
    policy: OverclockPolicy,
    latest: Vec<VmMetrics>,
    overclocking: bool,
    rejections: usize,
    pending_scale_out: usize,
    /// Causal decision id of the `wi_oc_start` that opened the current
    /// overclocking episode (`0` when not overclocking or telemetry is off).
    /// Tracing-only: never feeds back into [`decide`](Self::decide).
    current_decision: u64,
    /// Causal decision id of the event (denial, exhaustion warning) that made
    /// the next `wi_scale_out` necessary; `0` when unknown.
    scale_out_cause: u64,
    telemetry: Telemetry,
    service: usize,
}

impl GlobalWiAgent {
    /// Create an agent with the given per-service policy.
    pub fn new(policy: OverclockPolicy) -> GlobalWiAgent {
        GlobalWiAgent {
            policy,
            latest: Vec::new(),
            overclocking: false,
            rejections: 0,
            pending_scale_out: 0,
            current_decision: 0,
            scale_out_cause: 0,
            telemetry: Telemetry::disabled(),
            service: 0,
        }
    }

    /// Attach a telemetry handle, labelling this agent's events and metrics
    /// with `service`. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, service: usize) {
        self.telemetry = telemetry;
        self.service = service;
    }

    /// The configured policy.
    pub fn policy(&self) -> &OverclockPolicy {
        &self.policy
    }

    /// Replace all VM metric reports for this round (index = VM).
    pub fn report(&mut self, metrics: Vec<VmMetrics>) {
        self.latest = metrics;
    }

    /// A local agent reported that its overclocking request was rejected.
    /// `cause` is the causal decision id of the denial (the sOA's `oc_deny`;
    /// `0` when unknown), so that a resulting `wi_scale_out` can point back
    /// at it.
    pub fn notify_rejection(&mut self, cause: u64) {
        self.rejections += 1;
        if self.rejections >= self.policy.rejections_before_scale_out {
            self.pending_scale_out += self.policy.scale_out_step;
            self.rejections = 0;
            self.scale_out_cause = cause;
        }
    }

    /// The sOA predicted resource exhaustion: proactively scale out so the
    /// replacement capacity is ready before overclocking stops (§IV-D).
    /// `cause` is the causal decision id of the `exhaustion_warning` that
    /// prompted the scale-out (`0` when unknown).
    pub fn notify_exhaustion(&mut self, cause: u64) {
        self.pending_scale_out += self.policy.scale_out_step;
        self.scale_out_cause = cause;
    }

    /// Aggregate the deployment-level value of a metric (max for latency and
    /// queue — the tail is what violates SLOs — mean for utilization).
    fn aggregate(&self, kind: MetricKind) -> Option<f64> {
        if self.latest.is_empty() {
            return None;
        }
        let vals = self.latest.iter();
        Some(match kind {
            MetricKind::TailLatencyMs => vals
                .map(|m| m.tail_latency_ms)
                .filter(|v| !v.is_nan())
                .fold(f64::NEG_INFINITY, f64::max),
            MetricKind::CpuUtilization => {
                self.latest.iter().map(|m| m.cpu_utilization).sum::<f64>()
                    / self.latest.len() as f64
            }
            MetricKind::QueueLength => vals
                .map(|m| m.queue_length)
                .fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// Compute this round's decision. With telemetry attached, also emits
    /// `wi_oc_start` / `wi_oc_stop` on trigger transitions and
    /// `wi_scale_out` / `wi_scale_in` on corrective actions, labelled with
    /// the service index.
    pub fn decide(&mut self, now: SimTime) -> WiDecision {
        let was_overclocking = self.overclocking;
        let mut want = false;
        // Schedule-based component.
        if self.policy.schedule.iter().any(|w| w.contains(now)) {
            want = true;
        }
        // Metrics-based component with hysteresis.
        if let Some(trigger) = self.policy.trigger {
            if let Some(value) = self.aggregate(trigger.kind) {
                if value.is_finite() {
                    if value > trigger.scale_up {
                        want = true;
                    } else if value >= trigger.scale_down && self.overclocking {
                        // Inside the hysteresis band: keep the current state.
                        want = true;
                    }
                    // Below the scale-down threshold `want` is left as the
                    // schedule set it: explicit stop only if the schedule
                    // does not demand overclocking.
                }
            }
        }
        // Deployment-level goal suppresses unnecessary overclocking (Fig. 4).
        if let Some(goal) = self.policy.deployment_goal {
            if let Some(mean_util) = self.aggregate(MetricKind::CpuUtilization) {
                if mean_util <= goal {
                    want = false;
                }
            }
        }
        self.overclocking = want;
        let scale_out = std::mem::take(&mut self.pending_scale_out);
        // Scale-in hint: the metric has dropped below the scale-down
        // threshold, so the extra capacity added during the spike can retire.
        let scale_in = !want
            && self
                .policy
                .trigger
                .and_then(|t| self.aggregate(t.kind).map(|v| v < t.scale_down))
                .unwrap_or(false);
        let decision = WiDecision {
            overclock: want,
            scale_out,
            scale_in,
        };
        if self.telemetry.is_enabled() {
            self.trace_decision(now, was_overclocking, &decision);
        }
        decision
    }

    fn trace_decision(&mut self, now: SimTime, was_overclocking: bool, decision: &WiDecision) {
        let telemetry = &self.telemetry;
        let service = self.service;
        if decision.overclock != was_overclocking {
            if decision.overclock {
                self.current_decision = telemetry.next_id();
                tm_event!(telemetry, now, Component::Wi, Severity::Info, "wi_oc_start",
                    "service" => service,
                    "decision_id" => self.current_decision);
            } else {
                tm_event!(telemetry, now, Component::Wi, Severity::Info, "wi_oc_stop",
                    "service" => service,
                    "decision_id" => telemetry.next_id(),
                    "cause_id" => self.current_decision);
                self.current_decision = 0;
            }
        }
        if decision.scale_out > 0 {
            tm_event!(telemetry, now, Component::Wi, Severity::Info, "wi_scale_out",
                "service" => service,
                "instances" => decision.scale_out,
                "decision_id" => telemetry.next_id(),
                "cause_id" => std::mem::take(&mut self.scale_out_cause));
            telemetry.metrics(|m| {
                m.inc_counter_by(
                    "wi_scale_outs",
                    &[("service", service.into())],
                    decision.scale_out as u64,
                );
            });
        }
        if decision.scale_in {
            tm_event!(telemetry, now, Component::Wi, Severity::Debug, "wi_scale_in",
                "service" => service,
                "decision_id" => telemetry.next_id());
        }
    }

    /// Causal decision id of the `wi_oc_start` that opened the current
    /// overclocking episode; `0` when idle or when telemetry is disabled.
    /// Store it in the request's [`cause`] field so downstream
    /// `oc_grant`/`oc_deny` events chain back to the WI trigger.
    ///
    /// [`cause`]: crate::messages::OverclockRequest::cause
    pub fn current_decision(&self) -> u64 {
        self.current_decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    fn metrics(latency: f64, util: f64) -> VmMetrics {
        VmMetrics {
            tail_latency_ms: latency,
            cpu_utilization: util,
            queue_length: 0.0,
        }
    }

    #[test]
    fn latency_trigger_with_hysteresis() {
        let mut agent = GlobalWiAgent::new(OverclockPolicy::latency(100.0, 60.0));
        agent.report(vec![metrics(120.0, 0.5)]);
        assert!(agent.decide(SimTime::ZERO).overclock);
        // Inside the band: stays on.
        agent.report(vec![metrics(80.0, 0.5)]);
        assert!(agent.decide(SimTime::ZERO).overclock);
        // Below scale-down: stops.
        agent.report(vec![metrics(40.0, 0.5)]);
        assert!(!agent.decide(SimTime::ZERO).overclock);
        // Inside the band from below: stays off (no dithering).
        agent.report(vec![metrics(80.0, 0.5)]);
        assert!(!agent.decide(SimTime::ZERO).overclock);
    }

    #[test]
    fn deployment_aggregation_uses_worst_tail() {
        let mut agent = GlobalWiAgent::new(OverclockPolicy::latency(100.0, 60.0));
        agent.report(vec![metrics(30.0, 0.2), metrics(150.0, 0.9)]);
        assert!(
            agent.decide(SimTime::ZERO).overclock,
            "one hot VM trips the service"
        );
    }

    #[test]
    fn schedule_window_fires_on_weekdays() {
        let policy = OverclockPolicy::scheduled(vec![ScheduleWindow::new(9.0, 10.0, false)]);
        let mut agent = GlobalWiAgent::new(policy);
        let mon_930 = SimTime::ZERO + SimDuration::from_hours(9) + SimDuration::from_minutes(30);
        assert!(agent.decide(mon_930).overclock);
        let mon_11 = SimTime::ZERO + SimDuration::from_hours(11);
        assert!(!agent.decide(mon_11).overclock);
        let sat_930 = mon_930 + SimDuration::from_days(5);
        assert!(!agent.decide(sat_930).overclock);
    }

    #[test]
    fn deployment_goal_suppresses_overclocking() {
        // Fig. 4: VM1 at 10%, VM2 at 80% — deployment at 45% meets the 50%
        // goal, so no overclocking even though VM2 is hot.
        let mut policy = OverclockPolicy::latency(0.5, 0.3);
        policy.trigger = Some(MetricTrigger::new(MetricKind::CpuUtilization, 0.7, 0.4));
        policy.deployment_goal = Some(0.5);
        let mut agent = GlobalWiAgent::new(policy);
        agent.report(vec![metrics(f64::NAN, 0.10), metrics(f64::NAN, 0.80)]);
        assert!(!agent.decide(SimTime::ZERO).overclock);
        // Once the deployment itself exceeds the goal, overclocking engages.
        agent.report(vec![metrics(f64::NAN, 0.75), metrics(f64::NAN, 0.80)]);
        assert!(agent.decide(SimTime::ZERO).overclock);
    }

    #[test]
    fn rejections_trigger_corrective_scale_out() {
        let mut agent = GlobalWiAgent::new(OverclockPolicy::latency(100.0, 60.0));
        for _ in 0..3 {
            agent.notify_rejection(0);
            assert_eq!(agent.decide(SimTime::ZERO).scale_out, 0);
        }
        agent.notify_rejection(0);
        assert_eq!(agent.decide(SimTime::ZERO).scale_out, 1);
        // The counter resets after acting.
        assert_eq!(agent.decide(SimTime::ZERO).scale_out, 0);
    }

    #[test]
    fn exhaustion_notification_scales_out_proactively() {
        let mut agent = GlobalWiAgent::new(OverclockPolicy::latency(100.0, 60.0));
        agent.notify_exhaustion(0);
        assert_eq!(agent.decide(SimTime::ZERO).scale_out, 1);
    }

    #[test]
    fn scale_in_hint_when_idle() {
        let mut agent = GlobalWiAgent::new(OverclockPolicy::latency(100.0, 60.0));
        agent.report(vec![metrics(10.0, 0.1)]);
        let d = agent.decide(SimTime::ZERO);
        assert!(!d.overclock);
        assert!(d.scale_in);
    }

    #[test]
    fn local_agent_smooths_spikes() {
        let mut local = LocalWiAgent::new(0.5);
        local.observe(SimTime::ZERO, metrics(100.0, 0.5));
        let s = local.observe(SimTime::ZERO, metrics(200.0, 0.7));
        assert!((s.tail_latency_ms - 150.0).abs() < 1e-9);
        assert!((s.cpu_utilization - 0.6).abs() < 1e-9);
    }

    #[test]
    fn local_agent_ignores_nan_windows() {
        let mut local = LocalWiAgent::new(0.5);
        local.observe(SimTime::ZERO, metrics(100.0, 0.5));
        let s = local.observe(
            SimTime::ZERO,
            VmMetrics {
                tail_latency_ms: f64::NAN,
                cpu_utilization: 0.5,
                queue_length: 0.0,
            },
        );
        assert_eq!(s.tail_latency_ms, 100.0);
    }

    #[test]
    fn telemetry_is_pure_observation() {
        // Same inputs with and without a live handle: identical decisions,
        // identical smoothing. The traced run must still have emitted.
        let (tm, sink) = Telemetry::memory();
        let mut plain = GlobalWiAgent::new(OverclockPolicy::latency(100.0, 60.0));
        let mut traced = plain.clone();
        traced.set_telemetry(tm.clone(), 3);
        let mut plain_local = LocalWiAgent::new(0.5);
        let mut traced_local = plain_local.clone();
        traced_local.set_telemetry(tm, 3);
        let latencies = [120.0, 10.0, 10.0, 150.0, 10.0, 10.0, 200.0, 5.0];
        for (k, &latency) in latencies.iter().enumerate() {
            let now = SimTime::from_secs(k as u64);
            let a = plain_local.observe(now, metrics(latency, 0.5));
            let b = traced_local.observe(now, metrics(latency, 0.5));
            assert_eq!(a, b);
            if k % 3 == 2 {
                plain.notify_rejection(0);
                traced.notify_rejection(7);
            }
            if k == 5 {
                plain.notify_exhaustion(0);
                traced.notify_exhaustion(9);
            }
            plain.report(vec![a]);
            traced.report(vec![b]);
            assert_eq!(plain.decide(now), traced.decide(now), "round {k}");
        }
        assert_eq!(plain.current_decision(), 0);
        assert_eq!(sink.named("wi_observe").len(), latencies.len());
        assert!(!sink.named("wi_oc_start").is_empty());
        assert!(!sink.named("wi_oc_stop").is_empty());
        let scale_outs = sink.named("wi_scale_out");
        assert!(!scale_outs.is_empty());
        assert!(scale_outs
            .iter()
            .all(|e| e.get("service") == Some(&soc_telemetry::FieldValue::U64(3))));
    }

    #[test]
    #[should_panic(expected = "scale_down must be below")]
    fn trigger_validates_hysteresis() {
        let _ = MetricTrigger::new(MetricKind::TailLatencyMs, 50.0, 60.0);
    }

    #[test]
    #[should_panic(expected = "invalid schedule window")]
    fn window_validates_hours() {
        let _ = ScheduleWindow::new(10.0, 9.0, false);
    }
}
