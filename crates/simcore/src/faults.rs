//! Deterministic, seeded fault injection for the control plane.
//!
//! The paper's robustness argument (§III-Q5) is that decentralized budget
//! enforcement keeps servers safe when the control plane misbehaves: sOAs
//! keep enforcing their *last assigned* budget while the gOA is unreachable,
//! dropped budget messages merely leave a server on a stale limit, and a
//! restarted sOA re-joins conservatively at the default frequency. This
//! module provides the fault *schedule* that the simulators replay to test
//! that claim.
//!
//! Two kinds of faults are modelled, both pure functions of the plan seed:
//!
//! * **Windows** — gOA outages occupy `[start, end)` intervals drawn up
//!   front from a dedicated [`Pcg32`] stream ([`FaultPlan::generate`]).
//! * **Point faults** — per-`(instant, entity)` events (message drops,
//!   delays, telemetry gaps, prediction noise, sOA restarts) decided by a
//!   stateless hash of `(seed, kind, t, entity)` and asked through the
//!   [`StepFaults`] view of one instant ([`FaultPlan::at`]). Because no
//!   generator state is consumed at query time, answers are independent of
//!   query *order* — a sharded run asking rack 7 before rack 3 sees exactly the
//!   bytes a serial run sees, which is what lets fault plans compose with
//!   `--threads N` byte-identity for free.
//!
//! A zero-fault plan ([`FaultPlanConfig::none`], the `Default`) answers
//! `false`/`1.0`/zero-delay everywhere without hashing anything, so wiring
//! the faults layer into a simulator leaves fault-free runs byte-identical.

use crate::rng::{mix64, Pcg32};
use crate::time::{SimDuration, SimTime};

/// Dedicated PCG stream for fault-window generation, disjoint from the
/// workload/trace streams so adding faults never perturbs trace generation.
const FAULT_STREAM: u64 = 0xFA17;

/// Salts separating the point-fault hash families.
const SALT_BUDGET_DROP: u64 = 0xD201;
const SALT_BUDGET_DELAY: u64 = 0xD202;
const SALT_TELEMETRY_GAP: u64 = 0xD203;
const SALT_PREDICTION_NOISE: u64 = 0xD204;
const SALT_SOA_RESTART: u64 = 0xD205;

/// The kinds of control-plane faults a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The gOA is unreachable: no budget recomputation; sOAs run on stale
    /// budgets.
    GoaOutage,
    /// A budget-update message to one server is lost.
    BudgetDrop,
    /// A budget-update message to one server arrives late.
    BudgetDelay,
    /// A WI telemetry window is lost: the sOA sees no demand and issues no
    /// overclock request for that server this step.
    TelemetryGap,
    /// Prediction error injected into the power templates (static bias
    /// and/or per-step noise).
    PredictionError,
    /// The sOA process restarts: volatile control state is lost and the
    /// server re-joins conservatively at the default frequency.
    SoaRestart,
}

impl FaultKind {
    /// Stable lowercase label for telemetry fields.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::GoaOutage => "goa_outage",
            FaultKind::BudgetDrop => "budget_drop",
            FaultKind::BudgetDelay => "budget_delay",
            FaultKind::TelemetryGap => "telemetry_gap",
            FaultKind::PredictionError => "prediction_error",
            FaultKind::SoaRestart => "soa_restart",
        }
    }
}

/// A half-open `[start, end)` window during which a fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First affected instant.
    pub start: SimTime,
    /// First instant no longer affected.
    pub end: SimTime,
}

impl FaultWindow {
    /// Whether `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Window length.
    pub fn len(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Declarative description of a fault schedule. Fully serializable so an
/// experiment's fault plan can be pinned in a config file or golden test.
///
/// The default ([`FaultPlanConfig::none`]) injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// Seed of the fault schedule (independent of the workload seed).
    pub seed: u64,
    /// Number of gOA outage windows to place in the horizon.
    pub goa_outages: usize,
    /// Length of each gOA outage window.
    pub goa_outage_len: SimDuration,
    /// Per-(step, server) probability that a budget update is dropped.
    pub budget_drop_prob: f64,
    /// Per-(step, server) probability that a budget update is delayed.
    pub budget_delay_prob: f64,
    /// How late a delayed budget update arrives.
    pub budget_delay: SimDuration,
    /// Per-(step, server) probability of a WI telemetry gap.
    pub telemetry_gap_prob: f64,
    /// Static multiplicative bias applied to power-template predictions
    /// (`1.0` = unbiased; `1.1` = templates over-predict by 10 %).
    pub prediction_bias: f64,
    /// Amplitude of per-(step, server) multiplicative prediction noise:
    /// predictions are scaled by a factor in `[1 - a, 1 + a]` (`0.0` = none).
    pub prediction_noise: f64,
    /// Per-(step, server) probability that the sOA restarts and loses its
    /// volatile control state.
    pub soa_restart_prob: f64,
}

impl FaultPlanConfig {
    /// The zero-fault plan: every query answers "no fault".
    pub fn none() -> FaultPlanConfig {
        FaultPlanConfig {
            seed: 0,
            goa_outages: 0,
            goa_outage_len: SimDuration::ZERO,
            budget_drop_prob: 0.0,
            budget_delay_prob: 0.0,
            budget_delay: SimDuration::ZERO,
            telemetry_gap_prob: 0.0,
            prediction_bias: 1.0,
            prediction_noise: 0.0,
            soa_restart_prob: 0.0,
        }
    }

    /// Whether this configuration injects nothing at all.
    pub fn is_noop(&self) -> bool {
        (self.goa_outages == 0 || self.goa_outage_len.is_zero())
            && self.budget_drop_prob <= 0.0
            && (self.budget_delay_prob <= 0.0 || self.budget_delay.is_zero())
            && self.telemetry_gap_prob <= 0.0
            && self.prediction_bias == 1.0
            && self.prediction_noise <= 0.0
            && self.soa_restart_prob <= 0.0
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]`, the noise amplitude is
    /// outside `[0, 1]`, or the bias is not positive and finite.
    pub fn validate(&self) {
        for (name, p) in [
            ("budget_drop_prob", self.budget_drop_prob),
            ("budget_delay_prob", self.budget_delay_prob),
            ("telemetry_gap_prob", self.telemetry_gap_prob),
            ("soa_restart_prob", self.soa_restart_prob),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0, 1]");
        }
        assert!(
            (0.0..=1.0).contains(&self.prediction_noise),
            "prediction_noise must be in [0, 1]"
        );
        assert!(
            self.prediction_bias.is_finite() && self.prediction_bias > 0.0,
            "prediction_bias must be positive and finite"
        );
    }
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig::none()
    }
}

/// A realized fault schedule over a simulation horizon.
///
/// Construction pre-draws the gOA outage windows; point faults are
/// stateless hashes asked through one instant's view ([`FaultPlan::at`]).
/// Same config + horizon ⇒ byte-identical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: FaultPlanConfig,
    outages: Vec<FaultWindow>,
}

impl FaultPlan {
    /// The zero-fault plan.
    pub fn none() -> FaultPlan {
        FaultPlan {
            config: FaultPlanConfig::none(),
            outages: Vec::new(),
        }
    }

    /// Realize `config` over the horizon `[start, end)`.
    ///
    /// Outage windows are drawn uniformly inside the horizon from a
    /// dedicated [`Pcg32`] stream seeded by `config.seed` and sorted by
    /// start time; windows may overlap (overlaps simply merge in effect).
    /// Outages that cannot fit (horizon shorter than the outage length) are
    /// not placed.
    ///
    /// # Panics
    /// Panics if `config` fails [`FaultPlanConfig::validate`].
    pub fn generate(config: &FaultPlanConfig, start: SimTime, end: SimTime) -> FaultPlan {
        config.validate();
        let horizon = end.saturating_since(start);
        let mut outages = Vec::new();
        if config.goa_outages > 0
            && !config.goa_outage_len.is_zero()
            && horizon >= config.goa_outage_len
        {
            let slack = (horizon - config.goa_outage_len).as_micros();
            let mut rng = Pcg32::new(config.seed, FAULT_STREAM);
            for _ in 0..config.goa_outages {
                let offset = if slack == 0 {
                    0
                } else {
                    rng.gen_range_u64(0, slack + 1)
                };
                let ws = start + SimDuration::from_micros(offset);
                outages.push(FaultWindow {
                    start: ws,
                    end: ws + config.goa_outage_len,
                });
            }
            outages.sort_by_key(|w| (w.start, w.end));
        }
        FaultPlan {
            config: config.clone(),
            outages,
        }
    }

    /// The configuration this plan realizes.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    /// The realized gOA outage windows, sorted by start time.
    pub fn outages(&self) -> &[FaultWindow] {
        &self.outages
    }

    /// Whether this plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.outages.is_empty() && self.config.is_noop()
    }

    /// Canonical entity key for per-server point faults.
    #[inline]
    pub fn entity_id(rack: usize, server: usize) -> u64 {
        ((rack as u64) << 32) | (server as u64 & 0xFFFF_FFFF)
    }

    /// Whether the gOA is unreachable at `t`.
    #[inline]
    pub fn goa_unreachable(&self, t: SimTime) -> bool {
        self.outages.iter().any(|w| w.contains(t))
    }

    /// The point faults of instant `t`: the only way to ask whether an
    /// entity's budget update is dropped or delayed, its telemetry lost, its
    /// prediction perturbed or its sOA restarted at `t`.
    ///
    /// An answer is a stateless draw `u` in `[0, 1)` from four `mix64`
    /// rounds over `(seed, kind, t, entity)`. The view hashes the first
    /// three once per kind whose probability (or noise amplitude) is
    /// positive, so each per-entity query is a single round; kinds that
    /// cannot fire hash nothing, and a no-op plan's view costs five
    /// comparisons.
    #[inline]
    pub fn at(&self, t: SimTime) -> StepFaults {
        let c = &self.config;
        let key = |on: bool, salt| if on { step_key(c.seed, salt, t) } else { 0 };
        let delay_on = c.budget_delay_prob > 0.0 && !c.budget_delay.is_zero();
        StepFaults {
            budget_drop_prob: c.budget_drop_prob,
            budget_drop_key: key(c.budget_drop_prob > 0.0, SALT_BUDGET_DROP),
            budget_delay_prob: if delay_on { c.budget_delay_prob } else { 0.0 },
            budget_delay: c.budget_delay,
            budget_delay_key: key(delay_on, SALT_BUDGET_DELAY),
            telemetry_gap_prob: c.telemetry_gap_prob,
            telemetry_gap_key: key(c.telemetry_gap_prob > 0.0, SALT_TELEMETRY_GAP),
            prediction_noise: c.prediction_noise,
            prediction_key: key(c.prediction_noise > 0.0, SALT_PREDICTION_NOISE),
            soa_restart_prob: c.soa_restart_prob,
            soa_restart_key: key(c.soa_restart_prob > 0.0, SALT_SOA_RESTART),
        }
    }
}

/// The point faults of one instant ([`FaultPlan::at`]): each kind's
/// probability and its `(seed, kind, t)` hash, so an entity's answer is one
/// more `mix64` round away. A disabled kind has probability zero and answers
/// "no fault" without hashing.
#[derive(Debug, Clone, Copy)]
pub struct StepFaults {
    budget_drop_prob: f64,
    budget_drop_key: u64,
    /// Zero unless delays are configured with a non-zero length.
    budget_delay_prob: f64,
    budget_delay: SimDuration,
    budget_delay_key: u64,
    telemetry_gap_prob: f64,
    telemetry_gap_key: u64,
    prediction_noise: f64,
    prediction_key: u64,
    soa_restart_prob: f64,
    soa_restart_key: u64,
}

impl StepFaults {
    /// Whether the budget update addressed to `entity` at this instant is
    /// dropped.
    #[inline]
    pub fn drops_budget_update(&self, entity: u64) -> bool {
        self.budget_drop_prob > 0.0
            && unit_of(mix64(self.budget_drop_key ^ entity)) < self.budget_drop_prob
    }

    /// Delivery delay of the budget update addressed to `entity` at this
    /// instant (zero when the message is on time).
    #[inline]
    pub fn budget_update_delay(&self, entity: u64) -> SimDuration {
        if self.budget_delay_prob > 0.0
            && unit_of(mix64(self.budget_delay_key ^ entity)) < self.budget_delay_prob
        {
            self.budget_delay
        } else {
            SimDuration::ZERO
        }
    }

    /// Whether `entity`'s WI telemetry window at this instant is lost (the
    /// sOA sees no demand and issues no overclock request).
    #[inline]
    pub fn telemetry_gap(&self, entity: u64) -> bool {
        self.telemetry_gap_prob > 0.0
            && unit_of(mix64(self.telemetry_gap_key ^ entity)) < self.telemetry_gap_prob
    }

    /// Multiplicative noise factor applied to `entity`'s power prediction at
    /// this instant, in `[1 - a, 1 + a]` for noise amplitude `a`. Exactly
    /// `1.0` when no noise is configured (so fault-free arithmetic is
    /// bit-identical to not applying it at all). The static
    /// `prediction_bias` is *not* included: apply it once at template-build
    /// time (e.g. via `PowerTemplate::map_values`).
    #[inline]
    pub fn prediction_factor(&self, entity: u64) -> f64 {
        if self.prediction_noise <= 0.0 {
            return 1.0;
        }
        let u = unit_of(mix64(self.prediction_key ^ entity));
        (1.0 + self.prediction_noise * (2.0 * u - 1.0)).max(0.0)
    }

    /// Whether `entity`'s sOA restarts at this instant (volatile state
    /// loss).
    #[inline]
    pub fn soa_restarts(&self, entity: u64) -> bool {
        self.soa_restart_prob > 0.0
            && unit_of(mix64(self.soa_restart_key ^ entity)) < self.soa_restart_prob
    }

    /// Whether any sOA can restart at this instant (a loop over every
    /// server can be skipped when not).
    #[inline]
    pub fn any_soa_restarts(&self) -> bool {
        self.soa_restart_prob > 0.0
    }
}

/// The entity-independent rounds of the point-fault hash: `(seed, salt, t)`.
#[inline]
fn step_key(seed: u64, salt: u64, t: SimTime) -> u64 {
    mix64(mix64(seed ^ mix64(salt)) ^ t.as_micros())
}

/// 53 high bits of a hash → `[0, 1)` with full double precision.
#[inline]
fn unit_of(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> (SimTime, SimTime) {
        (SimTime::ZERO, SimTime::ZERO + SimDuration::WEEK)
    }

    fn faulty_config(seed: u64) -> FaultPlanConfig {
        FaultPlanConfig {
            seed,
            goa_outages: 3,
            goa_outage_len: SimDuration::from_hours(4),
            budget_drop_prob: 0.05,
            budget_delay_prob: 0.05,
            budget_delay: SimDuration::from_minutes(30),
            telemetry_gap_prob: 0.02,
            prediction_bias: 1.05,
            prediction_noise: 0.1,
            soa_restart_prob: 0.001,
        }
    }

    #[test]
    fn default_plan_is_noop_everywhere() {
        let (s, e) = horizon();
        let plan = FaultPlan::generate(&FaultPlanConfig::default(), s, e);
        assert!(plan.is_noop());
        assert!(plan.outages().is_empty());
        let mut t = s;
        let step = SimDuration::from_hours(1);
        while t < e {
            let at = plan.at(t);
            assert!(!at.any_soa_restarts());
            for entity in 0..4 {
                assert!(!plan.goa_unreachable(t));
                assert!(!at.drops_budget_update(entity));
                assert!(at.budget_update_delay(entity).is_zero());
                assert!(!at.telemetry_gap(entity));
                assert_eq!(at.prediction_factor(entity), 1.0);
                assert!(!at.soa_restarts(entity));
            }
            t += step;
        }
    }

    #[test]
    fn same_seed_plans_are_identical() {
        let (s, e) = horizon();
        let a = FaultPlan::generate(&faulty_config(7), s, e);
        let b = FaultPlan::generate(&faulty_config(7), s, e);
        assert_eq!(a, b);
        // Point faults agree at every probe.
        let t = s + SimDuration::from_hours(13);
        let (a, b) = (a.at(t), b.at(t));
        for entity in 0..64 {
            assert_eq!(a.drops_budget_update(entity), b.drops_budget_update(entity));
            assert_eq!(a.prediction_factor(entity), b.prediction_factor(entity));
        }
    }

    #[test]
    fn different_seeds_change_the_schedule() {
        let (s, e) = horizon();
        let a = FaultPlan::generate(&faulty_config(7), s, e);
        let b = FaultPlan::generate(&faulty_config(8), s, e);
        assert_ne!(a.outages(), b.outages());
    }

    #[test]
    fn outage_windows_stay_inside_the_horizon_and_are_sorted() {
        let (s, e) = horizon();
        let plan = FaultPlan::generate(&faulty_config(42), s, e);
        assert_eq!(plan.outages().len(), 3);
        for w in plan.outages() {
            assert!(w.start >= s);
            assert!(w.end <= e);
            assert_eq!(w.len(), SimDuration::from_hours(4));
            assert!(!w.is_empty());
            // The window answers its own containment probes.
            assert!(plan.goa_unreachable(w.start));
            assert!(!plan.goa_unreachable(w.end));
        }
        for pair in plan.outages().windows(2) {
            assert!(pair[0].start <= pair[1].start, "windows must be sorted");
        }
    }

    #[test]
    fn outages_longer_than_horizon_are_not_placed() {
        let mut cfg = faulty_config(1);
        cfg.goa_outage_len = SimDuration::WEEK * 2;
        let (s, e) = horizon();
        let plan = FaultPlan::generate(&cfg, s, e);
        assert!(plan.outages().is_empty());
    }

    #[test]
    fn point_faults_are_query_order_independent() {
        let (s, e) = horizon();
        let plan = FaultPlan::generate(&faulty_config(3), s, e);
        let at = plan.at(s + SimDuration::from_hours(50));
        // Probe forwards and backwards; a stateful implementation would
        // give different answers.
        let forwards: Vec<bool> = (0..100).map(|i| at.telemetry_gap(i)).collect();
        let backwards: Vec<bool> = (0..100)
            .rev()
            .map(|i| at.telemetry_gap(i))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        assert_eq!(forwards, backwards);
        assert!(
            forwards.iter().any(|&g| g),
            "2% gap probability over 100 probes should hit at least once"
        );
    }

    #[test]
    fn probabilities_are_roughly_honoured() {
        let (s, e) = horizon();
        let mut cfg = FaultPlanConfig::none();
        cfg.budget_drop_prob = 0.25;
        let plan = FaultPlan::generate(&cfg, s, e);
        let mut hits = 0u64;
        let n = 10_000u64;
        for i in 0..n {
            let t = s + SimDuration::from_secs(i);
            if plan.at(t).drops_budget_update(1) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn prediction_factor_stays_in_band() {
        let (s, e) = horizon();
        let plan = FaultPlan::generate(&faulty_config(9), s, e);
        for i in 0..1000u64 {
            let f = plan.at(s + SimDuration::from_secs(i)).prediction_factor(2);
            assert!((0.9..=1.1).contains(&f), "noise amplitude 0.1: got {f}");
        }
    }

    #[test]
    fn entity_ids_are_disjoint_across_racks_and_servers() {
        let mut seen = Vec::new();
        for rack in 0..8 {
            for server in 0..32 {
                seen.push(FaultPlan::entity_id(rack, server));
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8 * 32);
    }

    #[test]
    #[should_panic(expected = "budget_drop_prob must be in [0, 1]")]
    fn validate_rejects_bad_probability() {
        let mut cfg = FaultPlanConfig::none();
        cfg.budget_drop_prob = 1.5;
        let (s, e) = horizon();
        let _ = FaultPlan::generate(&cfg, s, e);
    }

    /// A probability that is exactly 0, exactly 1, or drawn from `(0, 1)`.
    fn prob(pick: u32, u: f64) -> f64 {
        match pick {
            0 => 0.0,
            1 => 1.0,
            _ => u,
        }
    }

    /// The four-round point-fault draw, written out: `u` in `[0, 1)` from
    /// `(seed, salt, t, entity)`, with each kind's literal salt.
    fn four_round_unit(seed: u64, salt: u64, t: SimTime, entity: u64) -> f64 {
        let mut h = mix64(seed ^ mix64(salt));
        h = mix64(h ^ t.as_micros());
        h = mix64(h ^ entity);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn step_view_matches_the_four_round_formula(
            seed in 0u64..u64::MAX,
            picks in (0u32..4, 0u32..4, 0u32..4, 0u32..4, 0u32..4),
            us in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
            delay_min in 0u64..3,
            t_us in 0u64..u64::MAX / 2,
            entities in proptest::collection::vec(0u64..u64::MAX, 1..24),
        ) {
            let cfg = FaultPlanConfig {
                seed,
                budget_drop_prob: prob(picks.0, us.0),
                budget_delay_prob: prob(picks.1, us.1),
                budget_delay: SimDuration::from_minutes(delay_min),
                telemetry_gap_prob: prob(picks.2, us.2),
                prediction_noise: prob(picks.3, us.3),
                soa_restart_prob: prob(picks.4, us.4),
                ..FaultPlanConfig::none()
            };
            let plan = FaultPlan::generate(&cfg, SimTime::ZERO, SimTime::ZERO);
            let t = SimTime::from_micros(t_us);
            let at = plan.at(t);
            let u = |salt, e| four_round_unit(seed, salt, t, e);
            proptest::prop_assert_eq!(at.any_soa_restarts(), cfg.soa_restart_prob > 0.0);
            for e in entities.into_iter().chain([0, 1, u64::MAX]) {
                let delayed = cfg.budget_delay_prob > 0.0
                    && delay_min > 0
                    && u(0xD202, e) < cfg.budget_delay_prob;
                let factor = if cfg.prediction_noise > 0.0 {
                    (1.0 + cfg.prediction_noise * (2.0 * u(0xD204, e) - 1.0)).max(0.0)
                } else {
                    1.0
                };
                proptest::prop_assert_eq!(
                    at.drops_budget_update(e),
                    cfg.budget_drop_prob > 0.0 && u(0xD201, e) < cfg.budget_drop_prob
                );
                proptest::prop_assert_eq!(
                    at.budget_update_delay(e),
                    if delayed { cfg.budget_delay } else { SimDuration::ZERO }
                );
                proptest::prop_assert_eq!(
                    at.telemetry_gap(e),
                    cfg.telemetry_gap_prob > 0.0 && u(0xD203, e) < cfg.telemetry_gap_prob
                );
                proptest::prop_assert_eq!(at.prediction_factor(e).to_bits(), factor.to_bits());
                proptest::prop_assert_eq!(
                    at.soa_restarts(e),
                    cfg.soa_restart_prob > 0.0 && u(0xD205, e) < cfg.soa_restart_prob
                );
            }
        }
    }

    #[test]
    fn fault_kind_labels_are_stable() {
        assert_eq!(FaultKind::GoaOutage.label(), "goa_outage");
        assert_eq!(FaultKind::SoaRestart.label(), "soa_restart");
        assert_eq!(FaultKind::PredictionError.label(), "prediction_error");
    }
}
