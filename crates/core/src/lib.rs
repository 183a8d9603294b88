//! # smartoclock — workload- and risk-aware overclocking management
//!
//! A from-scratch reproduction of **SmartOClock** (Stojkovic et al., ISCA
//! 2024): the first distributed overclocking-management platform designed
//! for cloud environments. The system is organized hierarchically (paper
//! Fig. 10):
//!
//! * [`wi`] — **Workload Intelligence**: per-VM local agents collect metrics
//!   (tail latency, CPU utilization) and a per-service global agent decides
//!   when VMs need overclocking, using metrics-based and/or schedule-based
//!   policies; on rejection it takes corrective action (scale-out).
//! * [`soa`] — the **Server Overclocking Agent**: admission control against
//!   power and lifetime predictions, the prioritized power feedback loop,
//!   and the exploration/exploitation state machine that lets a server
//!   safely exceed a stale budget (warnings + exponential backoff).
//! * [`goa`] — the **Global Overclocking Agent**: aggregates server profiles
//!   and splits the rack power limit *heterogeneously* according to past
//!   overclocking demand (§IV-C's worked example is a doctest).
//! * [`policy`] — the system variants evaluated in Table I: `Central`,
//!   `NaiveOClock`, `NoFeedback`, `NoWarning`, and `SmartOClock`, expressed
//!   as feature flags consumed by the agents and the cluster harness.
//! * [`infer`] — overclocking-threshold inference from workload history
//!   (§IV-A's adoption aid: "use P90 of historical value if overclocking can
//!   be performed for 10% of the time").
//! * [`messages`] — request/grant/signal types exchanged between the layers.
//! * [`config`] — the sOA's fixed control constants, the values the paper
//!   gives (20 W explore step, 200 W explore cap, 30 s explore window,
//!   15-minute exhaustion window, 10 % weekly lifetime budget).
//!
//! The agents are deliberately I/O-free: they consume observations and emit
//! commands, so the same code drives the real-time cluster harness
//! (`soc-cluster`). The large-scale trace simulations model each server's
//! control state themselves; from this crate they share only the gOA,
//! [`EpochTracker`], [`PolicyKind`] and the exploration constants
//! [`config::EXPLORE_STEP`] and [`config::EXPLORE_CAP`], not the sOA. Every
//! agent is `Send` (asserted at compile time below), so an embedding may
//! also move each onto its own thread.
//!
//! Each control-plane decision has exactly one method: WI `observe`/`decide`/
//! `notify_rejection`/`notify_exhaustion`, sOA `request_overclock`/
//! `control_tick`, gOA `budgets_for`. Agents that emit telemetry hold their
//! handle, installed once with `set_telemetry(handle, index)`; the default
//! handle is disabled, and tracing never feeds back into a decision. Causal
//! ids ride as plain `u64` arguments where `0` means "no cause".

#![forbid(unsafe_code)]

pub mod config;
pub mod epoch;
pub mod goa;
pub mod infer;
pub mod messages;
pub mod policy;
pub mod soa;
pub mod wi;

pub use epoch::EpochTracker;
pub use goa::{GlobalOverclockAgent, ServerProfile};
pub use infer::{infer_trigger, InferError, InferenceConfig};
pub use messages::{GrantId, OverclockRequest, RejectReason, SoaEvent};
pub use policy::PolicyKind;
pub use soa::ServerOverclockAgent;
pub use wi::{GlobalWiAgent, MetricKind, OverclockPolicy, WiDecision};

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ServerOverclockAgent>();
    assert_send::<GlobalOverclockAgent>();
    assert_send::<GlobalWiAgent>();
    assert_send::<wi::LocalWiAgent>();
};
