//! Types exchanged between the Workload Intelligence agents, the Server
//! Overclocking Agent, and the Global Overclocking Agent.

use simcore::time::{SimDuration, SimTime};
use soc_power::units::MegaHertz;
use std::fmt;

/// Identifier of a granted overclocking request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GrantId(pub u64);

impl fmt::Display for GrantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grant{}", self.0)
    }
}

/// An overclocking request submitted by a local WI agent to its sOA.
#[derive(Debug, Clone, PartialEq)]
pub struct OverclockRequest {
    /// Label of the requesting VM (for reporting).
    pub vm: String,
    /// Number of cores to overclock.
    pub cores: usize,
    /// Target frequency.
    pub target: MegaHertz,
    /// Expected utilization of the overclocked cores (worst case for
    /// admission, §IV-D "at a given core frequency and worst-case CPU
    /// utilization").
    pub expected_utilization: f64,
    /// Expected duration; `Some` for schedule-based requests (which reserve
    /// lifetime budget), `None` for open-ended metrics-based requests.
    pub duration: Option<SimDuration>,
    /// Priority: higher is more important; scheduled VMs typically outrank
    /// unscheduled ones (§IV-D).
    pub priority: u32,
    /// Causal decision id of the control-plane decision that triggered this
    /// request (e.g. the WI agent's `wi_oc_start`). `0` means "no cause";
    /// ids are allocated by `soc_telemetry::Telemetry::next_id`.
    pub cause: u64,
}

impl OverclockRequest {
    /// A metrics-based request with defaults suitable for tests/examples.
    pub fn metrics_based(
        vm: impl Into<String>,
        cores: usize,
        target: MegaHertz,
    ) -> OverclockRequest {
        OverclockRequest {
            vm: vm.into(),
            cores,
            target,
            expected_utilization: 0.9,
            duration: None,
            priority: 1,
            cause: 0,
        }
    }

    /// A schedule-based request for a known duration (reserves budget).
    pub fn scheduled(
        vm: impl Into<String>,
        cores: usize,
        target: MegaHertz,
        duration: SimDuration,
    ) -> OverclockRequest {
        OverclockRequest {
            vm: vm.into(),
            cores,
            target,
            expected_utilization: 0.9,
            duration: Some(duration),
            priority: 2,
            cause: 0,
        }
    }
}

/// Why an overclocking request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission control predicts the extra power would exceed the server's
    /// power budget.
    PowerBudget,
    /// The per-epoch overclocking lifetime budget is exhausted.
    LifetimeBudget,
    /// Not enough cores with remaining per-core time-in-state budget.
    CoreBudget,
    /// This part's silicon risk score exceeds the configured risk budget at
    /// every overclocked frequency level (frequency binning, §VI).
    RiskBudget,
    /// The request itself is malformed (zero cores, frequency not above
    /// turbo, …).
    Invalid,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::PowerBudget => "insufficient power budget",
            RejectReason::LifetimeBudget => "overclocking lifetime budget exhausted",
            RejectReason::CoreBudget => "no cores with remaining overclock budget",
            RejectReason::RiskBudget => "per-part risk budget exceeded",
            RejectReason::Invalid => "invalid request",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RejectReason {}

/// Events emitted by the sOA's control loop for the platform to act on.
#[derive(Debug, Clone, PartialEq)]
pub enum SoaEvent {
    /// Set the effective frequency of a grant's cores.
    SetFrequency {
        /// The affected grant.
        grant: GrantId,
        /// New frequency.
        frequency: MegaHertz,
    },
    /// A grant ended (budget exhausted or explicitly stopped).
    GrantEnded {
        /// The ended grant.
        grant: GrantId,
        /// Why it ended.
        reason: GrantEndReason,
    },
    /// Power or lifetime exhaustion is predicted within the configured
    /// window; the global WI agent should take corrective action (§IV-D,
    /// Fig. 11).
    ExhaustionWarning {
        /// What is running out.
        resource: ExhaustedResource,
        /// Predicted exhaustion instant.
        eta: SimTime,
        /// Causal decision id of the warning itself (`0` when telemetry is
        /// disabled); consumers propagate it as the `cause_id` of whatever
        /// corrective action they take.
        decision: u64,
    },
}

/// Why a grant ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantEndReason {
    /// The workload released it.
    Released,
    /// The per-epoch lifetime budget ran out mid-grant.
    LifetimeBudgetExhausted,
    /// The scheduled duration completed.
    ScheduleComplete,
    /// The sOA restarted and lost its volatile grant state; the server
    /// re-joins conservatively at the default frequency.
    AgentRestart,
}

/// The resource an [`SoaEvent::ExhaustionWarning`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustedResource {
    /// Power headroom under the assigned budget.
    Power,
    /// Overclocking lifetime budget.
    Lifetime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_scheduling_fields() {
        let m = OverclockRequest::metrics_based("vm1", 4, MegaHertz::new(4000));
        assert_eq!(m.duration, None);
        let s = OverclockRequest::scheduled("vm2", 8, MegaHertz::new(3800), SimDuration::HOUR);
        assert_eq!(s.duration, Some(SimDuration::HOUR));
        assert!(s.priority > m.priority);
    }

    #[test]
    fn requests_default_to_no_cause() {
        let m = OverclockRequest::metrics_based("vm1", 4, MegaHertz::new(4000));
        assert_eq!(m.cause, 0);
    }

    #[test]
    fn reject_reason_displays() {
        assert_eq!(
            RejectReason::PowerBudget.to_string(),
            "insufficient power budget"
        );
        assert_eq!(GrantId(3).to_string(), "grant3");
    }
}
