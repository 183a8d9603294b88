//! Threaded rack runtime: one OS thread per Server Overclocking Agent.
//!
//! The paper's platform is distributed: every server runs its sOA locally
//! and decisions stay local even when the gOA is unreachable (§III-Q5,
//! "a decentralized approach ... improves fault tolerance"). The simulation
//! harnesses drive the agents synchronously for determinism; this module is
//! the deployment-shaped runtime — each sOA lives on its own thread behind
//! a message channel, exactly how a per-server daemon would embed the agent.
//!
//! The runtime demonstrates two properties the library guarantees:
//!
//! * agents are `Send` — they can be moved onto worker threads;
//! * all coordination is message-passing (requests, control ticks, budget
//!   pushes, emitted events), so a dead gOA merely stops budget refreshes
//!   while admission keeps working against the last assignment.

use crate::config::SoaConfig;
use crate::messages::{GrantId, OverclockRequest, RejectReason, SoaEvent};
use crate::policy::PolicyKind;
use crate::soa::{ServerOverclockAgent, SoaStats};
use simcore::time::SimTime;
use soc_power::model::PowerModel;
use soc_power::rack::RackSignal;
use soc_power::units::Watts;
use soc_predict::template::PowerTemplate;
use soc_telemetry::{tm_event, Component, Event, LocalSpool, Severity, Telemetry};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Messages accepted by an agent thread.
enum AgentMsg {
    Request {
        now: SimTime,
        request: OverclockRequest,
        reply: SyncSender<Result<GrantId, RejectReason>>,
    },
    End {
        now: SimTime,
        grant: GrantId,
    },
    Tick {
        now: SimTime,
        measured: Watts,
        signal: Option<RackSignal>,
        /// Causal decision id of the event that raised `signal` (e.g. a rack
        /// monitor's `rack_capping`); `0` when unknown. Rides the channel so
        /// the sOA's corrective events can chain back across threads.
        signal_cause: u64,
    },
    SetBudget(Watts),
    SetTemplate(Box<PowerTemplate>),
    /// Fault injection: the agent process restarts, losing volatile state;
    /// revocation events flow out through the regular event stream.
    Restart {
        now: SimTime,
    },
    /// Barrier: the thread replies once every earlier message is processed.
    Sync(SyncSender<()>),
    Shutdown,
}

/// A rack of sOA threads plus an event stream.
///
/// ```
/// use smartoclock::runtime::RackRuntime;
/// use smartoclock::messages::OverclockRequest;
/// use smartoclock::policy::PolicyKind;
/// use smartoclock::config::SoaConfig;
/// use soc_power::model::PowerModel;
/// use soc_power::units::{MegaHertz, Watts};
/// use simcore::time::SimTime;
///
/// let mut rack = RackRuntime::start(
///     4,
///     PowerModel::reference_server(),
///     SoaConfig::reference(),
///     PolicyKind::SmartOClock,
/// );
/// rack.set_budget(0, Watts::new(400.0));
/// let req = OverclockRequest::metrics_based("vm", 4, MegaHertz::new(4000));
/// let grant = rack.request(0, SimTime::ZERO, req).expect("fits under 400W");
/// rack.end(0, SimTime::from_secs(60), grant);
/// rack.shutdown();
/// ```
pub struct RackRuntime {
    senders: Vec<Sender<AgentMsg>>,
    handles: Vec<JoinHandle<()>>,
    events_rx: Receiver<(SimTime, usize, SoaEvent)>,
    stats: Arc<Mutex<Vec<SoaStats>>>,
    telemetry: Telemetry,
}

impl RackRuntime {
    /// Spawn `servers` agent threads with telemetry disabled.
    ///
    /// # Panics
    /// Panics if `servers == 0` or the configuration is invalid.
    pub fn start(
        servers: usize,
        model: PowerModel,
        config: SoaConfig,
        policy: PolicyKind,
    ) -> RackRuntime {
        RackRuntime::start_with_telemetry(servers, model, config, policy, Telemetry::disabled())
    }

    /// Spawn `servers` agent threads sharing `telemetry`.
    ///
    /// Each thread buffers its own lifecycle records in a
    /// [`LocalSpool`] (flushed at barriers and shutdown); the agents
    /// themselves emit decision events through the shared handle.
    ///
    /// # Panics
    /// Panics if `servers == 0` or the configuration is invalid.
    pub fn start_with_telemetry(
        servers: usize,
        model: PowerModel,
        config: SoaConfig,
        policy: PolicyKind,
        telemetry: Telemetry,
    ) -> RackRuntime {
        assert!(servers > 0, "need at least one server");
        let (events_tx, events_rx) = mpsc::channel();
        let stats = Arc::new(Mutex::new(vec![SoaStats::default(); servers]));
        let mut senders = Vec::with_capacity(servers);
        let mut handles = Vec::with_capacity(servers);
        for index in 0..servers {
            let (tx, rx) = mpsc::channel::<AgentMsg>();
            let events_tx = events_tx.clone();
            let stats = Arc::clone(&stats);
            let thread_telemetry = telemetry.clone();
            let handle = std::thread::Builder::new()
                .name(format!("soa-{index}"))
                .spawn(move || {
                    let mut agent = ServerOverclockAgent::new(model, config, policy);
                    agent.set_telemetry(thread_telemetry.clone(), index);
                    let mut spool = LocalSpool::new(thread_telemetry);
                    let mut last_tick = SimTime::ZERO;
                    spool.push(
                        Event::new(last_tick, Component::Rack, Severity::Debug, "agent_start")
                            .field("server", index),
                    );
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            AgentMsg::Request {
                                now,
                                request,
                                reply,
                            } => {
                                let _ = reply.send(agent.request_overclock(now, request));
                            }
                            AgentMsg::End { now, grant } => {
                                let _ = agent.end_overclock(now, grant);
                            }
                            AgentMsg::Tick {
                                now,
                                measured,
                                signal,
                                signal_cause,
                            } => {
                                last_tick = now;
                                for event in
                                    agent.control_tick_traced(now, measured, signal, signal_cause)
                                {
                                    let _ = events_tx.send((now, index, event));
                                }
                                lock_stats(&stats)[index] = agent.stats();
                            }
                            AgentMsg::SetBudget(b) => agent.set_power_budget(b),
                            AgentMsg::SetTemplate(t) => agent.set_power_template(*t),
                            AgentMsg::Restart { now } => {
                                last_tick = now;
                                for event in agent.restart(now) {
                                    let _ = events_tx.send((now, index, event));
                                }
                                lock_stats(&stats)[index] = agent.stats();
                            }
                            AgentMsg::Sync(reply) => {
                                spool.flush();
                                let _ = reply.send(());
                            }
                            AgentMsg::Shutdown => break,
                        }
                    }
                    spool.push(
                        Event::new(last_tick, Component::Rack, Severity::Debug, "agent_stop")
                            .field("server", index),
                    );
                })
                .expect("spawn agent thread");
            senders.push(tx);
            handles.push(handle);
        }
        RackRuntime {
            senders,
            handles,
            events_rx,
            stats,
            telemetry,
        }
    }

    /// Number of agent threads.
    pub fn servers(&self) -> usize {
        self.senders.len()
    }

    /// Submit an overclocking request to server `index` and wait for the
    /// admission decision.
    ///
    /// # Errors
    /// Returns the agent's [`RejectReason`] when admission fails.
    ///
    /// # Panics
    /// Panics if `index` is out of range or the agent thread is gone.
    pub fn request(
        &self,
        index: usize,
        now: SimTime,
        request: OverclockRequest,
    ) -> Result<GrantId, RejectReason> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.senders[index]
            .send(AgentMsg::Request {
                now,
                request,
                reply: reply_tx,
            })
            .expect("agent thread is alive");
        reply_rx.recv().expect("agent replies to requests")
    }

    /// Release a grant on server `index` (fire-and-forget).
    ///
    /// # Panics
    /// Panics if `index` is out of range or the agent thread is gone.
    pub fn end(&self, index: usize, now: SimTime, grant: GrantId) {
        self.senders[index]
            .send(AgentMsg::End { now, grant })
            .expect("agent thread is alive");
    }

    /// Push a budget assignment (the gOA's role).
    ///
    /// # Panics
    /// Panics if `index` is out of range or the agent thread is gone.
    pub fn set_budget(&self, index: usize, budget: Watts) {
        self.senders[index]
            .send(AgentMsg::SetBudget(budget))
            .expect("agent thread is alive");
    }

    /// Inject an sOA restart on server `index` (fault injection): the agent
    /// loses its volatile state and re-joins conservatively — its grants are
    /// revoked (visible via [`drain_events`](Self::drain_events)) and
    /// admission denies everything until a fresh budget arrives via
    /// [`set_budget`](Self::set_budget).
    ///
    /// # Panics
    /// Panics if `index` is out of range or the agent thread is gone.
    pub fn restart(&self, index: usize, now: SimTime) {
        self.senders[index]
            .send(AgentMsg::Restart { now })
            .expect("agent thread is alive");
    }

    /// Push a power template to server `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range or the agent thread is gone.
    pub fn set_template(&self, index: usize, template: PowerTemplate) {
        self.senders[index]
            .send(AgentMsg::SetTemplate(Box::new(template)))
            .expect("agent thread is alive");
    }

    /// Broadcast one control tick with per-server measured draws.
    ///
    /// # Panics
    /// Panics if `measured.len()` differs from the server count.
    pub fn tick_all(&self, now: SimTime, measured: &[Watts], signal: Option<RackSignal>) {
        self.tick_all_caused(now, measured, signal, 0);
    }

    /// [`tick_all`](Self::tick_all) carrying the causal decision id of the
    /// event that raised `signal` (e.g. the rack monitor's `rack_capping`),
    /// so agent-side corrective events (`capping_reset`, `warning_retreat`)
    /// chain back to it across the channel. Pass `0` when there is no cause.
    ///
    /// # Panics
    /// Panics if `measured.len()` differs from the server count.
    pub fn tick_all_caused(
        &self,
        now: SimTime,
        measured: &[Watts],
        signal: Option<RackSignal>,
        signal_cause: u64,
    ) {
        assert_eq!(measured.len(), self.servers(), "one measurement per server");
        tm_event!(self.telemetry, now, Component::Rack, Severity::Debug, "tick_all",
            "servers" => self.servers(),
            "signal" => signal.is_some(),
            "decision_id" => self.telemetry.next_id(),
            "cause_id" => signal_cause);
        for (tx, &m) in self.senders.iter().zip(measured) {
            tx.send(AgentMsg::Tick {
                now,
                measured: m,
                signal,
                signal_cause,
            })
            .expect("agent thread is alive");
        }
    }

    /// Wait until every agent thread has processed all messages sent so far
    /// (and flushed its telemetry spool). After `sync`, `drain_events`
    /// returns the complete, deterministic event set of earlier ticks.
    ///
    /// # Panics
    /// Panics if an agent thread is gone.
    pub fn sync(&self) {
        let replies: Vec<Receiver<()>> = self
            .senders
            .iter()
            .map(|tx| {
                let (reply_tx, reply_rx) = mpsc::sync_channel(1);
                tx.send(AgentMsg::Sync(reply_tx))
                    .expect("agent thread is alive");
                reply_rx
            })
            .collect();
        for rx in replies {
            rx.recv().expect("agent answers sync barrier");
        }
    }

    /// Drain all events emitted since the last drain, in deterministic
    /// `(SimTime, server index)` order. Does not block; call
    /// [`sync`](Self::sync) first to guarantee all in-flight ticks are
    /// included.
    ///
    /// Events from the same server at the same instant keep their emission
    /// order (stable sort), so per-grant sequences stay intact.
    pub fn drain_events(&self) -> Vec<(usize, SoaEvent)> {
        let mut raw: Vec<(SimTime, usize, SoaEvent)> = self.events_rx.try_iter().collect();
        raw.sort_by_key(|(time, server, _)| (*time, *server));
        raw.into_iter()
            .map(|(_, server, event)| (server, event))
            .collect()
    }

    /// Snapshot of per-agent statistics (updated at each tick).
    pub fn stats(&self) -> Vec<SoaStats> {
        lock_stats(&self.stats).clone()
    }

    /// Stop all agent threads and wait for them to exit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(AgentMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Lock the shared stats snapshot. Each agent thread overwrites only its own
/// slot with a complete value, so a poisoned lock (a panicked agent thread)
/// still holds consistent per-agent snapshots and is read through.
fn lock_stats(stats: &Mutex<Vec<SoaStats>>) -> std::sync::MutexGuard<'_, Vec<SoaStats>> {
    stats.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Drop for RackRuntime {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;
    use soc_power::units::MegaHertz;

    fn runtime(n: usize) -> RackRuntime {
        let rt = RackRuntime::start(
            n,
            PowerModel::reference_server(),
            SoaConfig::reference(),
            PolicyKind::SmartOClock,
        );
        for i in 0..n {
            rt.set_budget(i, Watts::new(450.0));
        }
        rt
    }

    fn oc_request() -> OverclockRequest {
        OverclockRequest::metrics_based("vm", 8, MegaHertz::new(4000))
    }

    #[test]
    fn request_roundtrip_through_thread() {
        let rt = runtime(2);
        let grant = rt
            .request(0, SimTime::ZERO, oc_request())
            .expect("headroom");
        rt.end(0, SimTime::from_secs(10), grant);
        rt.shutdown();
    }

    #[test]
    fn ticks_emit_frequency_events() {
        let rt = runtime(1);
        let _ = rt.request(0, SimTime::ZERO, oc_request()).unwrap();
        for s in 1..=5u64 {
            rt.tick_all(SimTime::from_secs(s), &[Watts::new(300.0)], None);
        }
        rt.sync();
        let events = rt.drain_events();
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, SoaEvent::SetFrequency { .. })),
            "feedback loop should ramp the grant: {events:?}"
        );
        rt.shutdown();
    }

    #[test]
    fn stats_snapshot_reflects_requests() {
        let rt = runtime(3);
        let _ = rt.request(1, SimTime::ZERO, oc_request()).unwrap();
        rt.tick_all(SimTime::from_secs(1), &[Watts::new(200.0); 3], None);
        rt.sync();
        let stats = rt.stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[1].requests, 1);
        assert_eq!(stats[1].granted, 1);
        assert_eq!(stats[0].requests, 0);
        rt.shutdown();
    }

    #[test]
    fn agents_work_without_budget_refreshes() {
        // Decentralization: no gOA messages after startup — admission still
        // works against the last assignment.
        let rt = runtime(1);
        for k in 0..5 {
            let t = SimTime::ZERO + SimDuration::from_minutes(k);
            let grant = rt
                .request(0, t, oc_request())
                .expect("local decisions keep working");
            rt.end(0, t + SimDuration::from_secs(30), grant);
        }
        rt.shutdown();
    }

    #[test]
    fn drop_joins_threads() {
        let rt = runtime(4);
        drop(rt); // must not hang or panic
    }

    #[test]
    fn rejects_propagate_through_channel() {
        let rt = RackRuntime::start(
            1,
            PowerModel::reference_server(),
            SoaConfig::reference(),
            PolicyKind::SmartOClock,
        );
        rt.set_budget(0, Watts::new(10.0)); // far below any regular draw
        let err = rt.request(0, SimTime::ZERO, oc_request()).unwrap_err();
        assert_eq!(err, RejectReason::PowerBudget);
        rt.shutdown();
    }

    #[test]
    fn drained_events_are_ordered_by_time_then_server() {
        let rt = runtime(4);
        for i in 0..4 {
            let _ = rt.request(i, SimTime::ZERO, oc_request()).unwrap();
        }
        // Several ticks: every server emits SetFrequency events each tick.
        for s in 1..=3u64 {
            rt.tick_all(SimTime::from_secs(s), &[Watts::new(300.0); 4], None);
        }
        rt.sync();
        let events = rt.drain_events();
        assert!(!events.is_empty());
        // Reconstruct the (time, server) keys: each tick's batch must come
        // out grouped by tick and, within a tick, by ascending server index.
        let servers: Vec<usize> = events.iter().map(|(s, _)| *s).collect();
        let mut per_tick = servers.chunks(4);
        for chunk in &mut per_tick {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable();
            assert_eq!(
                chunk,
                &sorted[..],
                "within one tick, servers ascend: {servers:?}"
            );
        }
        rt.shutdown();
    }

    #[test]
    fn restart_revokes_grants_and_rejoins_conservatively() {
        let rt = runtime(1);
        let grant = rt
            .request(0, SimTime::ZERO, oc_request())
            .expect("headroom before the fault");
        // The process restarts: volatile state is gone.
        rt.restart(0, SimTime::from_secs(30));
        rt.sync();
        let events = rt.drain_events();
        assert!(
            events.iter().any(|(_, e)| matches!(
                e,
                SoaEvent::GrantEnded {
                    grant: g,
                    reason: crate::messages::GrantEndReason::AgentRestart,
                } if *g == grant
            )),
            "restart must revoke the live grant: {events:?}"
        );
        // Conservative re-join: no budget yet, so admission denies.
        let err = rt
            .request(0, SimTime::from_secs(31), oc_request())
            .unwrap_err();
        assert_eq!(err, RejectReason::PowerBudget);
        // A fresh gOA assignment restores service.
        rt.set_budget(0, Watts::new(450.0));
        let _ = rt
            .request(0, SimTime::from_secs(32), oc_request())
            .expect("fresh budget restores admission");
        rt.shutdown();
    }

    #[test]
    fn runtime_threads_emit_telemetry() {
        let (tm, sink) = Telemetry::memory();
        let rt = RackRuntime::start_with_telemetry(
            2,
            PowerModel::reference_server(),
            SoaConfig::reference(),
            PolicyKind::SmartOClock,
            tm,
        );
        rt.set_budget(0, Watts::new(450.0));
        rt.set_budget(1, Watts::new(450.0));
        let _ = rt.request(0, SimTime::ZERO, oc_request()).unwrap();
        rt.tick_all(SimTime::from_secs(1), &[Watts::new(300.0); 2], None);
        rt.sync();
        assert_eq!(
            sink.named("oc_grant").len(),
            1,
            "sOA emits through the shared handle"
        );
        assert_eq!(sink.named("tick_all").len(), 1);
        assert_eq!(
            sink.named("agent_start").len(),
            2,
            "spools flush at the sync barrier"
        );
        rt.shutdown();
    }
}
