//! Open-loop queueing simulator for latency-critical microservices.
//!
//! Each simulated service instance (VM) is a multi-core FIFO queue; requests
//! arrive from a Poisson process with a piecewise-constant rate schedule and
//! are routed to the least-loaded active VM. Service demand is heavy-tailed
//! (log-normal) and scales inversely with core frequency, so overclocking a
//! VM from 3.3 GHz to 4.0 GHz shortens every request by ~17.5 % — which is
//! what collapses the queueing tail at high load (the Fig. 2 effect).
//!
//! The simulator is built for *closed-loop control*: callers advance it in
//! windows, observe [`WindowStats`] (P99/mean latency, SLO misses, CPU
//! utilization), and may change VM frequencies or the active VM count before
//! the next window — exactly the observation/actuation interface autoscalers
//! and SmartOClock's agents use.
//!
//! The load is open-loop: when requests arrive and how much work each
//! carries depend only on the rate schedule and the seed, never on VM
//! frequencies, VM counts or queue state. So the arrival process lives
//! apart from the queues, in a [`Traffic`] generator that samples ahead into
//! a buffer the simulator reads. Any number of simulators fed the same
//! `(service demand, schedule, seed)` can share one generator and see
//! exactly the stream each would have drawn alone: the draws come in the
//! same order (an exponential gap, then for each arrival its log-normal
//! demand followed by the next gap, resampling at rate changes), only
//! earlier. The cluster harness relies on this to sample each SocialNet
//! instance once for every system it compares.
//!
//! Pending events live in state shaped like the system rather than in a
//! generic priority queue: one pending arrival and one departure slot per
//! busy core. The next event is the earliest `(time, seq)` among them, where
//! `seq` counts scheduled events, so events due in the same microsecond fire
//! in the order they were scheduled.

use crate::loadgen::RateSchedule;
use simcore::rng::Pcg32;
use simcore::stats::percentile_in_place;
use simcore::time::{SimDuration, SimTime};
use soc_power::units::MegaHertz;
use std::collections::VecDeque;

/// Static description of one microservice.
#[derive(Debug, PartialEq)]
pub struct ServiceSpec {
    /// Service name (e.g. `"UrlShort"`).
    pub name: String,
    /// Mean service demand at max turbo, milliseconds.
    pub mean_service_ms: f64,
    /// Coefficient of variation of service demand (tail heaviness).
    pub cv: f64,
    /// Cores per VM instance.
    pub cores_per_vm: usize,
    /// SLO as a multiple of unloaded execution time (the paper uses 5×).
    pub slo_multiplier: f64,
}

impl ServiceSpec {
    /// Build a spec.
    ///
    /// # Panics
    /// Panics if any numeric parameter is non-positive.
    pub fn new(
        name: impl Into<String>,
        mean_service_ms: f64,
        cv: f64,
        cores_per_vm: usize,
    ) -> ServiceSpec {
        assert!(mean_service_ms > 0.0, "service time must be positive");
        assert!(cv > 0.0, "coefficient of variation must be positive");
        assert!(cores_per_vm > 0, "need at least one core per VM");
        ServiceSpec {
            name: name.into(),
            mean_service_ms,
            cv,
            cores_per_vm,
            slo_multiplier: 5.0,
        }
    }

    /// The service-level objective on end-to-end latency, in milliseconds:
    /// `slo_multiplier ×` the unloaded execution time (§III, §V-A).
    pub fn slo_ms(&self) -> f64 {
        self.slo_multiplier * self.mean_service_ms
    }

    /// Theoretical throughput capacity of one VM at the given frequency
    /// ratio (`f / f_turbo`), requests per second.
    pub fn capacity_per_vm(&self, freq_ratio: f64) -> f64 {
        self.cores_per_vm as f64 / (self.mean_service_ms / 1000.0) * freq_ratio
    }

    /// Log-normal parameters `(mu, sigma)` matching the mean and CV.
    fn lognormal_params(&self) -> (f64, f64) {
        let sigma2 = (1.0 + self.cv * self.cv).ln();
        let mu = (self.mean_service_ms / 1000.0).ln() - sigma2 / 2.0;
        (mu, sigma2.sqrt())
    }
}

impl Clone for ServiceSpec {
    fn clone(&self) -> Self {
        ServiceSpec {
            name: self.name.clone(),
            mean_service_ms: self.mean_service_ms,
            cv: self.cv,
            cores_per_vm: self.cores_per_vm,
            slo_multiplier: self.slo_multiplier,
        }
    }

    /// Keeps the name's buffer (see `MicroserviceSim`'s `clone_from`).
    fn clone_from(&mut self, source: &Self) {
        let ServiceSpec {
            name,
            mean_service_ms,
            cv,
            cores_per_vm,
            slo_multiplier,
        } = source;
        self.name.clone_from(name);
        self.mean_service_ms = *mean_service_ms;
        self.cv = *cv;
        self.cores_per_vm = *cores_per_vm;
        self.slo_multiplier = *slo_multiplier;
    }
}

/// Aggregated observations over one control window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Window length.
    pub window: SimDuration,
    /// Completed requests in the window.
    pub completions: u64,
    /// Arrivals in the window.
    pub arrivals: u64,
    /// Mean latency of completions, ms (NaN when no completions).
    pub mean_ms: f64,
    /// P99 latency of completions, ms (NaN when no completions).
    pub p99_ms: f64,
    /// Fraction of completions above the SLO (0 when no completions).
    pub slo_miss_frac: f64,
    /// Mean CPU utilization of active VMs over the window, `[0, 1]`.
    pub cpu_utilization: f64,
    /// Active VM count at window end.
    pub active_vms: usize,
}

/// One arrival of the open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    time: SimTime,
    /// Service demand in seconds at max turbo.
    work: f64,
}

/// The open-loop arrival process of one service instance: Poisson arrivals
/// under a piecewise-constant [`RateSchedule`], each carrying a log-normal
/// service demand matched to the [`ServiceSpec`].
///
/// [`fill`](Traffic::fill) samples ahead into a buffer that any number of
/// [`MicroserviceSim`]s read through
/// [`advance_window`](MicroserviceSim::advance_window);
/// [`release`](Traffic::release) drops what every reader has consumed.
/// Generators built from the same demand distribution, schedule and seed
/// compare equal, and produce the same stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    schedule: RateSchedule,
    /// The schedule's current segment: its rate, and when the rate next
    /// changes (`None`: never).
    rate: f64,
    rate_until: Option<SimTime>,
    rng: Pcg32,
    lognormal_mu: f64,
    lognormal_sigma: f64,
    /// Where the next inter-arrival gap starts: the last arrival drawn, or
    /// time zero before the first.
    last: SimTime,
    /// `true` once the rate stays zero for good: the stream has ended.
    ended: bool,
    /// Stream index of `buffered[0]`: how many arrivals were released.
    released: u64,
    buffered: Vec<Arrival>,
}

impl Traffic {
    /// The arrival stream of one instance of `spec` under `schedule`.
    pub fn new(spec: &ServiceSpec, schedule: RateSchedule, seed: u64) -> Traffic {
        let (mu, sigma) = spec.lognormal_params();
        Traffic {
            rate: schedule.rate_at(SimTime::ZERO),
            rate_until: schedule.next_change_after(SimTime::ZERO),
            schedule,
            rng: Pcg32::seed_from_u64(seed),
            lognormal_mu: mu,
            lognormal_sigma: sigma,
            last: SimTime::ZERO,
            ended: false,
            released: 0,
            buffered: Vec::new(),
        }
    }

    /// Sample arrivals up to and including the first one after `until`
    /// (none once the stream has ended). Returns the generator, so a
    /// standalone caller can fill and advance its simulator in one
    /// expression.
    pub fn fill(&mut self, until: SimTime) -> &Traffic {
        if !self.ended && self.last <= until {
            // Room for the expected arrivals plus five standard deviations:
            // the buffer settles near its busiest fill, not at the next
            // power of two above it.
            let n = self.expected_arrivals(self.last, until);
            self.buffered
                .reserve_exact((n + 5.0 * n.sqrt()).ceil() as usize + 1);
        }
        while !self.ended && self.last <= until {
            match self.next_arrival_time(self.last) {
                Some(time) => {
                    let work = self
                        .rng
                        .sample_lognormal(self.lognormal_mu, self.lognormal_sigma);
                    self.buffered.push(Arrival { time, work });
                    self.last = time;
                }
                None => self.ended = true,
            }
        }
        self
    }

    /// Mean number of arrivals in `[from, until]` under the schedule.
    fn expected_arrivals(&self, from: SimTime, until: SimTime) -> f64 {
        let mut t = from;
        let mut n = 0.0;
        while t < until {
            let end = self
                .schedule
                .next_change_after(t)
                .map_or(until, |change| change.min(until));
            n += self.schedule.rate_at(t) * end.since(t).as_secs_f64();
            t = end;
        }
        n
    }

    /// Drop the buffered arrivals before stream index `consumed`: pass the
    /// least [`MicroserviceSim::total_arrivals`] over the simulators that
    /// still read this stream (any larger value drops the whole buffer).
    pub fn release(&mut self, consumed: u64) {
        let n = consumed
            .saturating_sub(self.released)
            .min(self.buffered.len() as u64);
        self.buffered.drain(..n as usize);
        self.released += n;
    }

    /// The buffered arrivals from stream index `consumed` on.
    ///
    /// # Panics
    /// Panics if the stream is not sampled past `until`, or if arrivals
    /// from `consumed` on were already released.
    fn unread(&self, consumed: u64, until: SimTime) -> &[Arrival] {
        assert!(
            self.ended || self.last > until,
            "traffic must be filled past the window's end"
        );
        assert!(
            consumed >= self.released,
            "traffic released arrivals a simulator has not consumed"
        );
        let skip = usize::try_from(consumed - self.released).unwrap_or(usize::MAX);
        self.buffered.get(skip..).unwrap_or(&[])
    }

    /// Next Poisson arrival at or after `t` under the rate schedule, or
    /// `None` when the rate is zero for all remaining time.
    fn next_arrival_time(&mut self, t: SimTime) -> Option<SimTime> {
        let mut t = t;
        loop {
            // Time only moves forward, so the cached segment needs a refresh
            // only once `t` reaches its end.
            if self.rate_until.is_some_and(|change| t >= change) {
                self.rate = self.schedule.rate_at(t);
                self.rate_until = self.schedule.next_change_after(t);
            }
            let (rate, next_change) = (self.rate, self.rate_until);
            if rate <= 0.0 {
                t = next_change?;
                continue;
            }
            let dt = SimDuration::from_secs_f64(self.rng.sample_exp(rate));
            let candidate = t + dt;
            match next_change {
                Some(change) if candidate >= change => {
                    // The sampled gap crosses a rate change; resample from
                    // the boundary (memorylessness makes this exact).
                    t = change;
                }
                _ => return Some(candidate),
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    arrival: SimTime,
    /// Service demand in seconds at max turbo.
    work: f64,
}

#[derive(Debug)]
struct Vm {
    frequency: MegaHertz,
    /// Busy cores; this VM's first `busy` departure slots are in use.
    busy: usize,
    queue: VecDeque<Request>,
    active: bool,
}

impl Clone for Vm {
    fn clone(&self) -> Self {
        Vm {
            frequency: self.frequency,
            busy: self.busy,
            queue: self.queue.clone(),
            active: self.active,
        }
    }

    /// Keeps the queue's buffer (see `MicroserviceSim`'s `clone_from`).
    fn clone_from(&mut self, source: &Self) {
        let Vm {
            frequency,
            busy,
            queue,
            active,
        } = source;
        self.frequency = *frequency;
        self.busy = *busy;
        self.queue.clone_from(queue);
        self.active = *active;
    }
}

/// A request in service on one core.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Departure {
    due: SimTime,
    /// Scheduling order; breaks ties between events due at the same time.
    seq: u64,
    arrival: SimTime,
}

/// The next event to fire.
#[derive(Debug, Clone, Copy)]
enum Next {
    /// The pending arrival, with its service demand.
    Arrival(f64),
    /// Index into the departure slots.
    Departure(usize),
}

/// The event-driven microservice simulator, fed by a [`Traffic`] stream.
///
/// ```
/// use soc_workloads::microservice::{MicroserviceSim, ServiceSpec, Traffic};
/// use soc_workloads::loadgen::RateSchedule;
/// use soc_power::units::MegaHertz;
/// use simcore::time::SimTime;
///
/// let spec = ServiceSpec::new("demo", 20.0, 1.0, 4);
/// let rate = RateSchedule::constant(0.5 * spec.capacity_per_vm(1.0));
/// let mut traffic = Traffic::new(&spec, rate, 7);
/// let mut sim = MicroserviceSim::new(spec, MegaHertz::new(3300), 1);
/// let until = SimTime::from_secs(30);
/// let stats = sim.advance_window(until, traffic.fill(until), &mut Vec::new());
/// assert!(stats.completions > 0);
/// assert!(stats.p99_ms >= stats.mean_ms);
/// ```
#[derive(Debug)]
pub struct MicroserviceSim {
    spec: ServiceSpec,
    turbo: MegaHertz,
    /// Sequence number of the pending arrival (the stream's next unread
    /// one), given when the arrival before it fired.
    arrival_seq: u64,
    /// `cores_per_vm` departure slots per VM, VM-major.
    slots: Vec<Departure>,
    /// Sequence number of the next scheduled event.
    next_seq: u64,
    vms: Vec<Vm>,
    /// `Σ vm.busy`.
    busy_cores: usize,
    now: SimTime,
    last_integration: SimTime,
    // Window accumulators.
    window_start: SimTime,
    window_arrivals: u64,
    busy_core_seconds: f64,
    // Lifetime counters.
    total_arrivals: u64,
    total_completions: u64,
}

/// The cluster lockstep copies each tick's representative into its
/// followers (`follower.clone_from(rep)`); this `clone_from` keeps the
/// follower's slot, VM, queue and name buffers instead of allocating new
/// ones, as the derived one would. The `clone_from`s here destructure their
/// source, so a new field fails to compile until it is copied.
impl Clone for MicroserviceSim {
    fn clone(&self) -> Self {
        MicroserviceSim {
            spec: self.spec.clone(),
            turbo: self.turbo,
            arrival_seq: self.arrival_seq,
            slots: self.slots.clone(),
            next_seq: self.next_seq,
            vms: self.vms.clone(),
            busy_cores: self.busy_cores,
            now: self.now,
            last_integration: self.last_integration,
            window_start: self.window_start,
            window_arrivals: self.window_arrivals,
            busy_core_seconds: self.busy_core_seconds,
            total_arrivals: self.total_arrivals,
            total_completions: self.total_completions,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let MicroserviceSim {
            spec,
            turbo,
            arrival_seq,
            slots,
            next_seq,
            vms,
            busy_cores,
            now,
            last_integration,
            window_start,
            window_arrivals,
            busy_core_seconds,
            total_arrivals,
            total_completions,
        } = source;
        self.spec.clone_from(spec);
        self.turbo = *turbo;
        self.arrival_seq = *arrival_seq;
        self.slots.clone_from(slots);
        self.next_seq = *next_seq;
        // `Vec::clone_from` calls `Vm::clone_from` on the common prefix.
        self.vms.clone_from(vms);
        self.busy_cores = *busy_cores;
        self.now = *now;
        self.last_integration = *last_integration;
        self.window_start = *window_start;
        self.window_arrivals = *window_arrivals;
        self.busy_core_seconds = *busy_core_seconds;
        self.total_arrivals = *total_arrivals;
        self.total_completions = *total_completions;
    }
}

impl MicroserviceSim {
    /// Create a simulator with `initial_vms` active VMs at max turbo.
    ///
    /// # Panics
    /// Panics if `initial_vms == 0`.
    pub fn new(spec: ServiceSpec, turbo: MegaHertz, initial_vms: usize) -> MicroserviceSim {
        assert!(initial_vms > 0, "need at least one VM");
        let slots = vec![Departure::default(); initial_vms * spec.cores_per_vm];
        let vms = (0..initial_vms)
            .map(|_| Vm {
                frequency: turbo,
                busy: 0,
                queue: VecDeque::new(),
                active: true,
            })
            .collect();
        MicroserviceSim {
            spec,
            turbo,
            // The first arrival is the first event scheduled.
            arrival_seq: 0,
            slots,
            next_seq: 1,
            vms,
            busy_cores: 0,
            now: SimTime::ZERO,
            last_integration: SimTime::ZERO,
            window_start: SimTime::ZERO,
            window_arrivals: 0,
            busy_core_seconds: 0.0,
            total_arrivals: 0,
            total_completions: 0,
        }
    }

    /// The service specification.
    pub fn spec(&self) -> &ServiceSpec {
        &self.spec
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of *active* VMs (routing targets).
    pub fn active_vms(&self) -> usize {
        self.vms.iter().filter(|v| v.active).count()
    }

    /// Current frequency of VM `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn vm_frequency(&self, i: usize) -> MegaHertz {
        self.vms[i].frequency
    }

    /// Change the frequency of VM `i` (affects newly dispatched requests).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_vm_frequency(&mut self, i: usize, f: MegaHertz) {
        self.vms[i].frequency = f;
    }

    /// Set the frequency of all active VMs.
    pub fn set_all_frequencies(&mut self, f: MegaHertz) {
        for vm in &mut self.vms {
            if vm.active {
                vm.frequency = f;
            }
        }
    }

    /// Grow or shrink the active VM pool. Shrinking drains the removed VMs:
    /// their queued requests are redistributed, in-flight work completes.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn set_active_vm_count(&mut self, n: usize) {
        assert!(n > 0, "need at least one active VM");
        let mut active = self.active_vms();
        // Reactivate drained VMs first, then create new ones.
        if n > active {
            for vm in &mut self.vms {
                if active == n {
                    break;
                }
                if !vm.active {
                    vm.active = true;
                    vm.frequency = self.turbo;
                    active += 1;
                }
            }
            while active < n {
                self.vms.push(Vm {
                    frequency: self.turbo,
                    busy: 0,
                    queue: VecDeque::new(),
                    active: true,
                });
                let slots = self.vms.len() * self.spec.cores_per_vm;
                self.slots.resize(slots, Departure::default());
                active += 1;
            }
        } else if n < active {
            // Deactivate the highest-indexed active VMs.
            let mut to_drop = active - n;
            let mut orphaned: Vec<Request> = Vec::new();
            for vm in self.vms.iter_mut().rev() {
                if to_drop == 0 {
                    break;
                }
                if vm.active {
                    vm.active = false;
                    orphaned.extend(vm.queue.drain(..));
                    to_drop -= 1;
                }
            }
            for req in orphaned {
                self.route(req);
            }
        }
    }

    /// Total arrivals since construction.
    pub fn total_arrivals(&self) -> u64 {
        self.total_arrivals
    }

    /// Requests currently queued or in service.
    pub fn in_system(&self) -> u64 {
        self.total_arrivals - self.total_completions
    }

    /// Whether `other` holds exactly this simulator's state: every field
    /// [`advance_window`](MicroserviceSim::advance_window) reads, floats by
    /// their bits. Of the departure slots only each VM's busy prefix counts;
    /// the slots past it are stale and never read.
    ///
    /// Two simulators in the same state, advanced to the same `until` over
    /// the same [`Traffic`], return the same [`WindowStats`] and end in the
    /// same state, so a driver may advance one and copy it to the other.
    pub fn same_state(&self, other: &MicroserviceSim) -> bool {
        let scalars = |s: &MicroserviceSim| {
            (
                s.total_arrivals,
                s.total_completions,
                s.next_seq,
                s.arrival_seq,
                s.busy_cores,
                s.window_arrivals,
                s.busy_core_seconds.to_bits(),
                (s.now, s.last_integration, s.window_start),
                (s.turbo, s.vms.len()),
            )
        };
        let spec = |s: &ServiceSpec| {
            (
                s.mean_service_ms.to_bits(),
                s.cv.to_bits(),
                s.cores_per_vm,
                s.slo_multiplier.to_bits(),
            )
        };
        let request = |r: &Request| (r.arrival, r.work.to_bits());
        let cores = self.spec.cores_per_vm;
        scalars(self) == scalars(other)
            && spec(&self.spec) == spec(&other.spec)
            && self.spec.name == other.spec.name
            && self
                .vms
                .iter()
                .zip(&other.vms)
                .enumerate()
                .all(|(v, (a, b))| {
                    let busy = v * cores..v * cores + a.busy;
                    (a.frequency, a.busy, a.active, a.queue.len())
                        == (b.frequency, b.busy, b.active, b.queue.len())
                        && a.queue.iter().map(request).eq(b.queue.iter().map(request))
                        && self.slots[busy.clone()] == other.slots[busy]
                })
    }

    /// Advance the simulation to `until`, reading arrivals from `traffic`,
    /// and return the window statistics accumulated since the previous call
    /// (or construction).
    ///
    /// `traffic` is the stream this simulator has read from the start,
    /// filled past `until` ([`Traffic::fill`]). `latencies` is scratch space
    /// for the window's completion latencies: cleared on entry and left
    /// unspecified on return, so one buffer can serve many simulators.
    ///
    /// # Panics
    /// Panics if `until` is not after the current time, if `traffic` is not
    /// filled past `until`, or if it released arrivals this simulator has
    /// not consumed.
    pub fn advance_window(
        &mut self,
        until: SimTime,
        traffic: &Traffic,
        latencies: &mut Vec<f64>,
    ) -> WindowStats {
        assert!(until > self.now, "window must move time forward");
        let mut arrivals = traffic.unread(self.total_arrivals, until).iter();
        let mut pending = arrivals.next();
        latencies.clear();
        while let Some((t, _, next)) = self.next_event(pending) {
            if t > until {
                break;
            }
            self.fire(t, next, latencies);
            if let Next::Arrival(_) = next {
                pending = arrivals.next();
            }
        }
        self.integrate_busy(until);
        self.now = until;
        self.collect_window(until, latencies)
    }

    fn collect_window(&mut self, until: SimTime, latencies_ms: &mut [f64]) -> WindowStats {
        let window = until.since(self.window_start);
        let active_cores = (self.active_vms() * self.spec.cores_per_vm) as f64;
        let denom = active_cores * window.as_secs_f64();
        let cpu = if denom > 0.0 {
            (self.busy_core_seconds / denom).min(1.0)
        } else {
            0.0
        };
        let slo = self.spec.slo_ms();
        let (mean, p99, miss) = if latencies_ms.is_empty() {
            (f64::NAN, f64::NAN, 0.0)
        } else {
            // The sum and the count read completion order; the P99 then
            // reorders the buffer.
            let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64;
            let misses = latencies_ms.iter().filter(|&&l| l > slo).count();
            let miss = misses as f64 / latencies_ms.len() as f64;
            let p99 = percentile_in_place(latencies_ms, 99.0);
            (mean, p99, miss)
        };
        let stats = WindowStats {
            window,
            completions: latencies_ms.len() as u64,
            arrivals: self.window_arrivals,
            mean_ms: mean,
            p99_ms: p99,
            slo_miss_frac: miss,
            cpu_utilization: cpu,
            active_vms: self.active_vms(),
        };
        self.window_arrivals = 0;
        self.busy_core_seconds = 0.0;
        self.window_start = until;
        stats
    }

    fn integrate_busy(&mut self, to: SimTime) {
        let dt = to.saturating_since(self.last_integration).as_secs_f64();
        if dt > 0.0 {
            self.busy_core_seconds += self.busy_cores as f64 * dt;
            self.last_integration = to;
        }
    }

    /// The earliest pending event as `(time, seq, event)`: the minimum
    /// `(time, seq)` over the pending arrival and every busy core.
    fn next_event(&self, arrival: Option<&Arrival>) -> Option<(SimTime, u64, Next)> {
        let mut best = arrival.map(|a| (a.time, self.arrival_seq, Next::Arrival(a.work)));
        let cores = self.spec.cores_per_vm;
        for (v, vm) in self.vms.iter().enumerate() {
            let first = v * cores;
            for (i, d) in self.slots[first..first + vm.busy].iter().enumerate() {
                if best.is_none_or(|(t, seq, _)| (d.due, d.seq) < (t, seq)) {
                    best = Some((d.due, d.seq, Next::Departure(first + i)));
                }
            }
        }
        best
    }

    fn fire(&mut self, t: SimTime, next: Next, latencies_ms: &mut Vec<f64>) {
        self.integrate_busy(t);
        self.now = t;
        match next {
            Next::Arrival(work) => self.handle_arrival(work),
            Next::Departure(slot) => self.handle_departure(slot, latencies_ms),
        }
    }

    fn handle_arrival(&mut self, work: f64) {
        self.total_arrivals += 1;
        self.window_arrivals += 1;
        let req = Request {
            arrival: self.now,
            work,
        };
        self.route(req);
        // The stream's next arrival is scheduled now, after this one's
        // dispatch.
        self.arrival_seq = self.next_seq;
        self.next_seq += 1;
    }

    fn route(&mut self, req: Request) {
        // Least-loaded active VM. Every VM has the same core count, so the
        // raw load orders VMs as the per-core load does; `min_by_key` keeps
        // the first of equal loads. At least one VM is always active
        // (deactivation never empties the set), so a missing target means a
        // construction bug — assert rather than route wrong.
        let target = self
            .vms
            .iter()
            .enumerate()
            .filter(|(_, v)| v.active)
            .min_by_key(|(_, v)| v.busy + v.queue.len())
            .map(|(i, _)| i);
        let Some(target) = target else {
            debug_assert!(false, "no active VM to route to");
            return;
        };
        if self.vms[target].busy < self.spec.cores_per_vm {
            self.dispatch(target, req);
        } else {
            self.vms[target].queue.push_back(req);
        }
    }

    fn dispatch(&mut self, vm: usize, req: Request) {
        let freq_ratio = self.vms[vm].frequency.ratio(self.turbo);
        let duration = SimDuration::from_secs_f64(req.work / freq_ratio.max(1e-9));
        let slot = vm * self.spec.cores_per_vm + self.vms[vm].busy;
        self.slots[slot] = Departure {
            due: self.now + duration,
            seq: self.next_seq,
            arrival: req.arrival,
        };
        self.next_seq += 1;
        self.vms[vm].busy += 1;
        self.busy_cores += 1;
    }

    fn handle_departure(&mut self, slot: usize, latencies_ms: &mut Vec<f64>) {
        let vm = slot / self.spec.cores_per_vm;
        self.total_completions += 1;
        let latency_ms = self.now.since(self.slots[slot].arrival).as_millis_f64();
        latencies_ms.push(latency_ms);
        self.vms[vm].busy -= 1;
        self.busy_cores -= 1;
        // Keep the VM's busy slots a prefix: the last one fills the hole.
        self.slots[slot] = self.slots[vm * self.spec.cores_per_vm + self.vms[vm].busy];
        if let Some(next) = self.vms[vm].queue.pop_front() {
            self.dispatch(vm, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServiceSpec {
        ServiceSpec::new("test", 20.0, 1.0, 4)
    }

    fn turbo() -> MegaHertz {
        MegaHertz::new(3300)
    }

    fn oc() -> MegaHertz {
        MegaHertz::new(4000)
    }

    /// A simulator reading a stream of its own, released window by window.
    struct Solo {
        sim: MicroserviceSim,
        traffic: Traffic,
    }

    impl Solo {
        fn new(spec: ServiceSpec, rate: RateSchedule, vms: usize, seed: u64) -> Solo {
            Solo {
                traffic: Traffic::new(&spec, rate, seed),
                sim: MicroserviceSim::new(spec, turbo(), vms),
            }
        }

        fn window(&mut self, until: SimTime) -> WindowStats {
            let stats = self
                .sim
                .advance_window(until, self.traffic.fill(until), &mut Vec::new());
            self.traffic.release(self.sim.total_arrivals());
            stats
        }
    }

    fn run_steady(load: f64, freq: MegaHertz, vms: usize, secs: u64) -> WindowStats {
        let s = spec();
        let rate = RateSchedule::constant(load * s.capacity_per_vm(1.0) * vms as f64);
        let mut solo = Solo::new(s, rate, vms, 42);
        solo.sim.set_all_frequencies(freq);
        // Warm up, then measure.
        let _ = solo.window(SimTime::from_secs(secs / 4));
        solo.window(SimTime::from_secs(secs))
    }

    #[test]
    fn slo_is_five_times_unloaded() {
        assert_eq!(spec().slo_ms(), 100.0);
    }

    #[test]
    fn capacity_scales_with_frequency() {
        let s = spec();
        let base = s.capacity_per_vm(1.0);
        assert!((s.capacity_per_vm(4000.0 / 3300.0) / base - 4000.0 / 3300.0).abs() < 1e-12);
        assert!((base - 200.0).abs() < 1e-9); // 4 cores / 20ms
    }

    #[test]
    fn unloaded_latency_near_service_time() {
        let stats = run_steady(0.05, turbo(), 1, 60);
        assert!(
            (stats.mean_ms - 20.0).abs() < 5.0,
            "unloaded mean {} should be ≈ service time",
            stats.mean_ms
        );
        assert!(stats.slo_miss_frac < 0.02);
    }

    #[test]
    fn latency_grows_with_load() {
        let low = run_steady(0.3, turbo(), 1, 120);
        let high = run_steady(0.85, turbo(), 1, 120);
        assert!(
            high.p99_ms > 1.5 * low.p99_ms,
            "P99 should blow up with load: low={} high={}",
            low.p99_ms,
            high.p99_ms
        );
        assert!(high.cpu_utilization > low.cpu_utilization);
    }

    #[test]
    fn overclocking_reduces_tail_latency_at_high_load() {
        let base = run_steady(0.85, turbo(), 1, 240);
        let boosted = run_steady(0.85, oc(), 1, 240);
        assert!(
            boosted.p99_ms < base.p99_ms,
            "overclocking should cut the tail: turbo={} oc={}",
            base.p99_ms,
            boosted.p99_ms
        );
        assert!(boosted.slo_miss_frac <= base.slo_miss_frac);
    }

    #[test]
    fn scale_out_reduces_tail_latency() {
        let one = run_steady(0.85, turbo(), 1, 240);
        // Same absolute arrival rate spread over two VMs.
        let s = spec();
        let rate = RateSchedule::constant(0.85 * s.capacity_per_vm(1.0));
        let mut solo = Solo::new(s, rate, 2, 42);
        let _ = solo.window(SimTime::from_secs(60));
        let two = solo.window(SimTime::from_secs(240));
        assert!(two.p99_ms < one.p99_ms);
        assert_eq!(two.active_vms, 2);
    }

    #[test]
    fn utilization_matches_offered_load() {
        let stats = run_steady(0.5, turbo(), 1, 300);
        assert!(
            (stats.cpu_utilization - 0.5).abs() < 0.06,
            "utilization {} should track offered load 0.5",
            stats.cpu_utilization
        );
    }

    #[test]
    fn overclocking_lowers_utilization_at_same_load() {
        // Fig. 16: same RPS, lower CPU utilization when overclocked.
        let base = run_steady(0.6, turbo(), 1, 300);
        let boosted = run_steady(0.6, oc(), 1, 300);
        assert!(
            boosted.cpu_utilization < base.cpu_utilization,
            "OC should lower utilization: {} vs {}",
            boosted.cpu_utilization,
            base.cpu_utilization
        );
    }

    #[test]
    fn shrink_drains_and_redistributes() {
        let s = spec();
        let rate = RateSchedule::constant(0.7 * s.capacity_per_vm(1.0) * 2.0);
        let mut solo = Solo::new(s, rate, 2, 9);
        let _ = solo.window(SimTime::from_secs(30));
        solo.sim.set_active_vm_count(1);
        assert_eq!(solo.sim.active_vms(), 1);
        let stats = solo.window(SimTime::from_secs(90));
        // All work keeps completing through the remaining VM.
        assert!(stats.completions > 0);
        // Conservation: nothing lost.
        assert!(solo.sim.total_completions <= solo.sim.total_arrivals());
    }

    #[test]
    fn grow_reactivates_then_creates() {
        let s = spec();
        let rate = RateSchedule::constant(10.0);
        let mut solo = Solo::new(s, rate, 3, 9);
        solo.sim.set_active_vm_count(1);
        solo.sim.set_active_vm_count(4);
        assert_eq!(solo.sim.active_vms(), 4);
    }

    #[test]
    fn window_counters_reset() {
        let s = spec();
        let rate = RateSchedule::constant(50.0);
        let mut solo = Solo::new(s, rate, 1, 4);
        let w1 = solo.window(SimTime::from_secs(10));
        let w2 = solo.window(SimTime::from_secs(20));
        assert!(w1.arrivals > 0 && w2.arrivals > 0);
        // Window counters partition the lifetime counters.
        assert_eq!(solo.sim.total_arrivals(), w1.arrivals + w2.arrivals);
        assert_eq!(solo.sim.total_completions, w1.completions + w2.completions);
        // Conservation: everything that arrived is either done or in system.
        assert_eq!(
            solo.sim.total_arrivals(),
            solo.sim.total_completions + solo.sim.in_system()
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let make = || {
            let s = spec();
            let rate = RateSchedule::constant(100.0);
            let mut solo = Solo::new(s, rate, 1, 77);
            solo.window(SimTime::from_secs(60))
        };
        let a = make();
        let b = make();
        assert_eq!(a, b);
    }

    #[test]
    fn equal_time_events_fire_in_seq_order() {
        // Three cores finish at `t` and the next arrival is due at `t` too;
        // they must fire in scheduling order, whatever slot each occupies.
        let mut sim = MicroserviceSim::new(spec(), turbo(), 1);
        let t = SimTime::from_secs(1);
        for (slot, seq) in [7, 3, 9].into_iter().enumerate() {
            sim.slots[slot] = Departure {
                due: t,
                seq,
                arrival: SimTime::ZERO,
            };
        }
        sim.vms[0].busy = 3;
        sim.busy_cores = 3;
        sim.total_arrivals = 3;
        sim.arrival_seq = 5;
        sim.next_seq = 10;
        let arrival = Arrival {
            time: t,
            work: 0.02,
        };

        let mut fired = Vec::new();
        let mut pending = Some(&arrival);
        let mut latencies = Vec::new();
        while let Some((when, seq, next)) = sim.next_event(pending) {
            if when > t {
                break;
            }
            fired.push(seq);
            sim.fire(when, next, &mut latencies);
            if let Next::Arrival(_) = next {
                pending = None;
            }
        }
        assert_eq!(fired, [3, 5, 7, 9]);
        // The arrival went into service on the core the first departure
        // freed; the next arrival took the sequence number after it.
        assert_eq!(sim.total_completions, 3);
        assert_eq!(latencies.len(), 3);
        assert_eq!((sim.vms[0].busy, sim.busy_cores), (1, 1));
        assert_eq!(sim.slots[0].seq, 10);
        assert_eq!(sim.arrival_seq, 11);
    }

    #[test]
    fn zero_rate_schedule_produces_no_arrivals() {
        let s = spec();
        let rate = RateSchedule::constant(0.0);
        let mut solo = Solo::new(s, rate, 1, 5);
        let stats = solo.window(SimTime::from_secs(60));
        assert_eq!(stats.arrivals, 0);
        assert_eq!(stats.completions, 0);
        assert!(stats.p99_ms.is_nan());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A schedule with a zero-rate gap and two rate changes, so streams
        /// resample at boundaries and skip idle time.
        fn churn_schedule(load: f64) -> RateSchedule {
            let peak = load * spec().capacity_per_vm(1.0);
            RateSchedule::constant(peak)
                .with_segment(SimTime::from_secs(20), 0.0)
                .with_segment(SimTime::from_secs(30), 2.0 * peak)
        }

        /// One control action after a window: resize the pool, set every
        /// VM's frequency, or set one VM's.
        fn apply(sim: &mut MicroserviceSim, op: u8, n: usize, step: u32) {
            let f = MegaHertz::new(3000 + 100 * step);
            match op {
                0 => sim.set_active_vm_count(n + 1),
                1 => sim.set_all_frequencies(f),
                _ => sim.set_vm_frequency(n % sim.vms.len(), f),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Little's-law bookkeeping under any sequence of frequency
            /// changes and VM scaling: every arrival is completed, queued or
            /// in service; the running busy total matches the VMs; window
            /// counters partition the lifetime counters; and no event due
            /// by the end of a window is left pending.
            #[test]
            fn conservation_under_control_churn(
                ops in prop::collection::vec((1u64..4, 0u8..3, 0usize..5, 0u32..8), 1..16),
                load in 0.3..1.2f64,
                seed in 0u64..1000,
            ) {
                let mut solo = Solo::new(spec(), churn_schedule(load), 1, seed);
                let mut now = SimTime::ZERO;
                let (mut arrivals, mut completions) = (0, 0);
                for &(advance_s, op, n, freq_step) in &ops {
                    now += SimDuration::from_secs(advance_s * 5);
                    let w = solo.window(now);
                    arrivals += w.arrivals;
                    completions += w.completions;
                    apply(&mut solo.sim, op, n, freq_step);

                    let sim = &solo.sim;
                    prop_assert_eq!(sim.total_arrivals(), arrivals);
                    prop_assert_eq!(sim.total_completions, completions);
                    prop_assert_eq!(
                        sim.total_arrivals(),
                        sim.total_completions + sim.in_system()
                    );
                    let held: usize = sim.vms.iter().map(|v| v.busy + v.queue.len()).sum();
                    prop_assert_eq!(sim.in_system(), held as u64);
                    prop_assert_eq!(sim.busy_cores, sim.vms.iter().map(|v| v.busy).sum::<usize>());
                    let cores = sim.spec.cores_per_vm;
                    prop_assert_eq!(sim.slots.len(), sim.vms.len() * cores);
                    for (v, vm) in sim.vms.iter().enumerate() {
                        prop_assert!(vm.busy <= cores);
                        for d in &sim.slots[v * cores..v * cores + vm.busy] {
                            prop_assert!(d.due > now && d.arrival <= now);
                        }
                    }
                    if let Some(a) = solo.traffic.unread(sim.total_arrivals(), now).first() {
                        prop_assert!(a.time > now);
                    }
                }
            }

            /// Sharing is exact: simulators under different control churn
            /// and window lengths, all reading one generator that samples
            /// ahead and releases only what every reader consumed, report
            /// bit for bit the windows each reports on a stream of its own.
            #[test]
            fn shared_traffic_matches_own_stream(
                runs in prop::collection::vec(
                    prop::collection::vec((1u64..40, 0u8..3, 0usize..5, 0u32..8), 1..12),
                    1..4,
                ),
                lookahead_ms in 0u64..20_000,
                load in 0.3..1.2f64,
                seed in 0u64..1000,
            ) {
                let window = |len: u64| SimDuration::from_millis(len * 250);
                let mut own: Vec<Vec<String>> = Vec::new();
                for ops in &runs {
                    let mut solo = Solo::new(spec(), churn_schedule(load), 1, seed);
                    let mut now = SimTime::ZERO;
                    let mut stats = Vec::new();
                    for &(len, op, n, freq_step) in ops {
                        now += window(len);
                        stats.push(format!("{:?}", solo.window(now)));
                        apply(&mut solo.sim, op, n, freq_step);
                    }
                    own.push(stats);
                }

                let mut shared = Traffic::new(&spec(), churn_schedule(load), seed);
                let mut sims: Vec<MicroserviceSim> =
                    runs.iter().map(|_| MicroserviceSim::new(spec(), turbo(), 1)).collect();
                let mut nows = vec![SimTime::ZERO; runs.len()];
                let mut latencies = Vec::new();
                let longest = runs.iter().map(Vec::len).max().unwrap_or(0);
                for w in 0..longest {
                    let live: Vec<usize> = (0..runs.len()).filter(|&r| w < runs[r].len()).collect();
                    for &r in &live {
                        nows[r] += window(runs[r][w].0);
                    }
                    let horizon = live.iter().map(|&r| nows[r]).max().unwrap_or(SimTime::ZERO);
                    shared.fill(horizon + SimDuration::from_millis(lookahead_ms));
                    for &r in &live {
                        let stats = sims[r].advance_window(nows[r], &shared, &mut latencies);
                        prop_assert_eq!(&format!("{stats:?}"), &own[r][w]);
                        let (_, op, n, freq_step) = runs[r][w];
                        apply(&mut sims[r], op, n, freq_step);
                    }
                    let still: Vec<usize> = live.into_iter().filter(|&r| w + 1 < runs[r].len()).collect();
                    shared.release(still.iter().map(|&r| sims[r].total_arrivals()).min().unwrap_or(u64::MAX));
                }
            }

            /// `same_state` is exact. Two simulators driven into one state by
            /// the same control churn (one of them taking a detour that undoes
            /// itself) compare equal, and advancing both over one shared
            /// stream gives bit-identical windows and post-states. The
            /// smallest change to one compared field makes them differ; a
            /// stale slot past a VM's busy prefix does not.
            #[test]
            fn same_state_is_exact(
                ops in prop::collection::vec((1u64..4, 0u8..3, 0usize..5, 0u32..8), 1..12),
                load in 0.3..1.2f64,
                seed in 0u64..1000,
            ) {
                let mut traffic = Traffic::new(&spec(), churn_schedule(load), seed);
                let mut a = MicroserviceSim::new(spec(), turbo(), 1);
                let mut b = MicroserviceSim::new(spec(), turbo(), 1);
                let mut latencies = Vec::new();
                let mut now = SimTime::ZERO;
                for &(advance_s, op, n, freq_step) in &ops {
                    now += SimDuration::from_secs(advance_s * 5);
                    traffic.fill(now);
                    prop_assert!(a.same_state(&b) && b.same_state(&a));
                    let wa = a.advance_window(now, &traffic, &mut latencies);
                    let wb = b.advance_window(now, &traffic, &mut latencies);
                    prop_assert_eq!(format!("{wa:?}"), format!("{wb:?}"));
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                    apply(&mut a, op, n, freq_step);
                    // `b` detours through another frequency on one VM first.
                    let v = n % b.vms.len();
                    let f = b.vm_frequency(v);
                    b.set_vm_frequency(v, MegaHertz::new(f.get() + 1));
                    b.set_vm_frequency(v, f);
                    apply(&mut b, op, n, freq_step);
                    prop_assert!(a.same_state(&b));

                    let differs = |change: &dyn Fn(&mut MicroserviceSim)| {
                        let mut c = b.clone();
                        change(&mut c);
                        !a.same_state(&c) && !c.same_state(&a)
                    };
                    let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
                    prop_assert!(differs(&|c| c.busy_core_seconds = next_up(c.busy_core_seconds)));
                    prop_assert!(differs(&|c| {
                        let f = c.vms[v].frequency;
                        c.vms[v].frequency = MegaHertz::new(f.get() + 1);
                    }));
                    prop_assert!(differs(&|c| c.vms[v].active = !c.vms[v].active));
                    if let Some(q) = b.vms.iter().position(|vm| !vm.queue.is_empty()) {
                        prop_assert!(differs(&|c| {
                            let req = &mut c.vms[q].queue[0];
                            req.work = next_up(req.work);
                        }));
                    }
                    let cores = b.spec.cores_per_vm;
                    if let Some(idle) = b.vms.iter().position(|vm| vm.busy < cores) {
                        let mut c = b.clone();
                        c.slots[idle * cores + c.vms[idle].busy].seq += 1;
                        prop_assert!(a.same_state(&c));
                    }
                }
            }

            /// The hand-written `clone_from` copies every field: a simulator
            /// of another shape (spec, VM count, cores per VM and history),
            /// overwritten from a driven one, is in its state both ways and
            /// prints the same.
            #[test]
            fn clone_from_reaches_the_source_state(
                ops in prop::collection::vec((1u64..4, 0u8..3, 0usize..5, 0u32..8), 1..10),
                other_ops in prop::collection::vec((1u64..4, 0u8..3, 0usize..5, 0u32..8), 0..10),
                other_vms in 1usize..6,
                load in 0.3..1.2f64,
                seed in 0u64..1000,
            ) {
                let drive = |sim: &mut MicroserviceSim, ops: &[(u64, u8, usize, u32)], seed| {
                    let mut traffic = Traffic::new(sim.spec(), churn_schedule(load), seed);
                    let mut now = SimTime::ZERO;
                    for &(advance_s, op, n, freq_step) in ops {
                        now += SimDuration::from_secs(advance_s * 5);
                        sim.advance_window(now, traffic.fill(now), &mut Vec::new());
                        apply(sim, op, n, freq_step);
                    }
                };
                let mut source = MicroserviceSim::new(spec(), turbo(), 1);
                drive(&mut source, &ops, seed);
                let mut copy =
                    MicroserviceSim::new(ServiceSpec::new("other-name", 35.0, 2.0, 2), oc(), other_vms);
                drive(&mut copy, &other_ops, seed + 1);
                copy.clone_from(&source);
                prop_assert!(copy.same_state(&source) && source.same_state(&copy));
                prop_assert_eq!(format!("{copy:?}"), format!("{source:?}"));
            }

            /// Latencies are never negative and windows never report more
            /// completions than lifetime totals.
            #[test]
            fn window_stats_are_sane(seed in 0u64..500, load in 0.1..0.9f64) {
                let s = spec();
                let rate = RateSchedule::constant(load * s.capacity_per_vm(1.0));
                let mut solo = Solo::new(s, rate, 1, seed);
                let w = solo.window(SimTime::from_secs(30));
                prop_assert!(w.completions <= solo.sim.total_completions);
                if !w.p99_ms.is_nan() {
                    prop_assert!(w.p99_ms >= 0.0);
                    prop_assert!(w.p99_ms + 1e-9 >= w.mean_ms);
                }
                prop_assert!((0.0..=1.0).contains(&w.cpu_utilization));
                prop_assert!((0.0..=1.0).contains(&w.slo_miss_frac));
            }
        }
    }

    #[test]
    fn rate_change_mid_run_shifts_throughput() {
        let s = spec();
        let rate = RateSchedule::constant(20.0).with_segment(SimTime::from_secs(60), 150.0);
        let mut solo = Solo::new(s, rate, 1, 6);
        let w1 = solo.window(SimTime::from_secs(60));
        let w2 = solo.window(SimTime::from_secs(120));
        assert!(w2.arrivals as f64 > 4.0 * w1.arrivals as f64);
    }
}
