//! Property-style tests for the simcore statistics primitives.
//!
//! No external property-testing framework: cases are generated in seeded
//! `Pcg32` loops, so the suite is deterministic, dependency-free, and every
//! failure reproduces from the loop seed printed in the assertion message.
//!
//! Pinned invariants:
//!
//! * quantiles are monotone in `q` and bounded by `[min, max]` — for both
//!   the exact `Ecdf` and the sketching `Histogram`;
//! * `Histogram::merge` is associative and equivalent to recording the
//!   union of samples directly (the property the sharded telemetry merge
//!   in `soc-cluster` relies on);
//! * `Pcg32` streams derived from distinct `(seed, stream)` pairs are
//!   independent, and equal pairs reproduce bit-identical sequences (the
//!   property the per-rack shard RNG derivation relies on);
//! * `TimeSeries::daily_profile`, which strides through the series once per
//!   day slot with one scratch buffer, agrees bit for bit with one bucket
//!   per slot filled in a single pass (the property the DailyMed/DailyMax
//!   power templates rely on).

use simcore::hist::Histogram;
use simcore::rng::Pcg32;
use simcore::series::TimeSeries;
use simcore::stats::{mean, percentile, percentile_in_place, Ecdf};
use simcore::time::{SimDuration, SimTime, Weekday};

/// Draw `n` non-negative samples from a mix of shapes so buckets spread
/// over several orders of magnitude.
fn samples(rng: &mut Pcg32, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| match i % 4 {
            0 => rng.gen_range_f64(0.0, 1.0),
            1 => rng.gen_range_f64(1.0, 100.0),
            2 => rng.sample_exp(0.01),
            _ => rng.sample_lognormal(2.0, 1.0),
        })
        .collect()
}

#[test]
fn ecdf_quantiles_are_monotone_and_bounded() {
    for case in 0..50u64 {
        let mut rng = Pcg32::seed_from_u64(1000 + case);
        let n = 1 + rng.gen_index(400);
        let xs = samples(&mut rng, n);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let ecdf = Ecdf::from_samples(&xs);
        let mut prev = f64::NEG_INFINITY;
        for step in 0..=100 {
            let q = f64::from(step) / 100.0;
            let v = ecdf.quantile(q);
            assert!(v >= prev, "case {case}: quantile not monotone at q={q}");
            assert!(
                (min..=max).contains(&v),
                "case {case}: quantile({q})={v} outside [{min}, {max}]"
            );
            prev = v;
        }
        assert_eq!(ecdf.quantile(0.0), min, "case {case}: q=0 must be the min");
        assert_eq!(ecdf.quantile(1.0), max, "case {case}: q=1 must be the max");
    }
}

#[test]
fn percentile_agrees_with_ecdf_and_is_bounded() {
    for case in 0..50u64 {
        let mut rng = Pcg32::seed_from_u64(2000 + case);
        let n = 1 + rng.gen_index(200);
        let xs = samples(&mut rng, n);
        let ecdf = Ecdf::from_samples(&xs);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            // `percentile` is scaled 0–100, `Ecdf::quantile` 0–1; same math.
            let v = percentile(&xs, q * 100.0);
            assert_eq!(
                v,
                ecdf.quantile(q),
                "case {case}: percentile and Ecdf::quantile disagree at q={q}"
            );
        }
    }
}

#[test]
fn histogram_quantiles_are_monotone_and_bounded() {
    for case in 0..30u64 {
        let mut rng = Pcg32::seed_from_u64(3000 + case);
        let n = 1 + rng.gen_index(500);
        let xs = samples(&mut rng, n);
        let mut h = Histogram::new(0.01);
        for &x in &xs {
            h.record(x);
        }
        // Sketch buckets widen values by at most the relative precision.
        let lo = h.min() * (1.0 - 0.011);
        let hi = h.max() * (1.0 + 0.011);
        let mut prev = f64::NEG_INFINITY;
        for step in 0..=100 {
            let q = f64::from(step) / 100.0;
            let v = h.quantile(q);
            assert!(
                v >= prev,
                "case {case}: histogram quantile not monotone at q={q}"
            );
            assert!(
                v >= lo && v <= hi,
                "case {case}: quantile({q})={v} outside [{lo}, {hi}]"
            );
            prev = v;
        }
    }
}

#[test]
fn histogram_merge_is_associative() {
    for case in 0..30u64 {
        let mut rng = Pcg32::seed_from_u64(4000 + case);
        let parts: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                let n = 1 + rng.gen_index(150);
                samples(&mut rng, n)
            })
            .collect();
        let hist_of = |xs: &[f64]| {
            let mut h = Histogram::new(0.01);
            for &x in xs {
                h.record(x);
            }
            h
        };
        let (a, b, c) = (hist_of(&parts[0]), hist_of(&parts[1]), hist_of(&parts[2]));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.count(), right.count(), "case {case}: counts differ");
        assert_eq!(left.min(), right.min(), "case {case}: min differs");
        assert_eq!(left.max(), right.max(), "case {case}: max differs");
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(
                left.quantile(q),
                right.quantile(q),
                "case {case}: quantile({q}) differs between associations"
            );
        }
        // Bucket sums are float additions in different orders; means agree
        // only to rounding.
        assert!(
            (left.mean() - right.mean()).abs() <= 1e-9 * left.mean().abs().max(1.0),
            "case {case}: means differ beyond float tolerance"
        );
    }
}

#[test]
fn histogram_merge_equals_recording_the_union() {
    for case in 0..30u64 {
        let mut rng = Pcg32::seed_from_u64(5000 + case);
        let nx = 1 + rng.gen_index(200);
        let xs = samples(&mut rng, nx);
        let ny = 1 + rng.gen_index(200);
        let ys = samples(&mut rng, ny);
        let mut merged = Histogram::new(0.01);
        for &x in &xs {
            merged.record(x);
        }
        let mut other = Histogram::new(0.01);
        for &y in &ys {
            other.record(y);
        }
        merged.merge(&other);
        let mut direct = Histogram::new(0.01);
        for &v in xs.iter().chain(ys.iter()) {
            direct.record(v);
        }
        assert_eq!(merged.count(), direct.count(), "case {case}: counts differ");
        assert_eq!(merged.min(), direct.min(), "case {case}: min differs");
        assert_eq!(merged.max(), direct.max(), "case {case}: max differs");
        for q in [0.0, 0.1, 0.5, 0.9, 0.999, 1.0] {
            assert_eq!(
                merged.quantile(q),
                direct.quantile(q),
                "case {case}: quantile({q}) differs from direct recording"
            );
        }
    }
}

#[test]
fn rng_streams_reproduce_and_distinct_pairs_diverge() {
    // Equal (seed, stream) pairs → bit-identical sequences: the shard layer
    // derives one stream per rack and replays it on any thread count.
    for seed in [0u64, 1, 42, u64::MAX] {
        for stream in [0u64, 1, 7, 1 << 40] {
            let a: Vec<u64> = {
                let mut r = Pcg32::new(seed, stream);
                (0..64).map(|_| r.next_u64()).collect()
            };
            let b: Vec<u64> = {
                let mut r = Pcg32::new(seed, stream);
                (0..64).map(|_| r.next_u64()).collect()
            };
            assert_eq!(a, b, "({seed}, {stream}) must reproduce exactly");
        }
    }
    // Distinct (seed, stream) pairs → distinct sequences. 64 draws of 64
    // bits colliding by chance is ~2^-4096; any equality is a derivation
    // bug (e.g. the stream being ignored).
    let pairs: Vec<(u64, u64)> = (0..8)
        .flat_map(|seed| (0..8).map(move |rack| (seed, rack)))
        .collect();
    let sequences: Vec<Vec<u64>> = pairs
        .iter()
        .map(|&(seed, rack)| {
            let mut r = Pcg32::new(seed, rack);
            (0..64).map(|_| r.next_u64()).collect()
        })
        .collect();
    for i in 0..sequences.len() {
        for j in (i + 1)..sequences.len() {
            assert_ne!(
                sequences[i], sequences[j],
                "pairs {:?} and {:?} produced the same stream",
                pairs[i], pairs[j]
            );
        }
    }
}

#[test]
fn forked_rng_does_not_echo_the_parent() {
    for seed in 0..16u64 {
        let mut parent = Pcg32::seed_from_u64(seed);
        let mut fork = parent.fork(1);
        let parent_seq: Vec<u64> = (0..32).map(|_| parent.next_u64()).collect();
        let fork_seq: Vec<u64> = (0..32).map(|_| fork.next_u64()).collect();
        assert_ne!(parent_seq, fork_seq, "seed {seed}: fork mirrors its parent");
    }
}

/// Per-day-slot aggregation with one bucket per slot, filled in one pass
/// over the series: the oracle for `TimeSeries::daily_profile`.
fn bucketed_daily_profile(
    ts: &TimeSeries,
    day_filter: impl Fn(Weekday) -> bool,
    aggregate: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let step = ts.step().as_micros();
    let slots_per_day = (SimDuration::DAY.as_micros() / step) as usize;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slots_per_day];
    for (t, v) in ts.iter() {
        if day_filter(t.weekday()) {
            let slot = (t.time_of_day().as_micros() / step) as usize;
            buckets[slot % slots_per_day].push(v);
        }
    }
    buckets
        .iter()
        .map(|b| if b.is_empty() { f64::NAN } else { aggregate(b) })
        .collect()
}

fn max_of(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn daily_profile_matches_the_bucketed_oracle() {
    let step_minutes = [1u64, 5, 15, 60, 360, 1440];
    for case in 0..200u64 {
        let mut rng = Pcg32::seed_from_u64(5000 + case);
        let step = SimDuration::from_minutes(step_minutes[rng.gen_index(step_minutes.len())]);
        // Any start instant, so almost never aligned to a slot boundary.
        let start = SimTime::from_micros(rng.gen_range_u64(0, 3 * SimDuration::WEEK.as_micros()));
        let slots_per_day = (SimDuration::DAY.as_micros() / step.as_micros()) as usize;
        let len = rng.gen_index(9 * slots_per_day + 1);
        // Signed zeros and small integers make ties and duplicates.
        let values: Vec<f64> = (0..len)
            .map(|_| match rng.gen_index(4) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range_u64(0, 5) as f64,
                _ => rng.gen_range_f64(-1e3, 1e3),
            })
            .collect();
        let ts = TimeSeries::from_values(start, step, values);
        let days = rng.gen_range_u64(0, 128);
        let day_filter = |d: Weekday| (days >> d.index()) & 1 == 1;

        let pairs = [
            (
                "mean",
                ts.daily_profile(day_filter, |xs| mean(xs)),
                bucketed_daily_profile(&ts, day_filter, mean),
            ),
            (
                "median",
                ts.daily_profile(day_filter, |xs| percentile_in_place(xs, 50.0)),
                bucketed_daily_profile(&ts, day_filter, |xs| percentile(xs, 50.0)),
            ),
            (
                "max",
                ts.daily_profile(day_filter, |xs| max_of(xs)),
                bucketed_daily_profile(&ts, day_filter, max_of),
            ),
        ];
        for (name, got, want) in pairs {
            assert_eq!(got.len(), slots_per_day, "case {case}: {name} slot count");
            for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "case {case}: {name} differs at slot {slot} ({g} vs {w}); \
                     start {start}, step {step}, {len} samples, days {days:07b}"
                );
            }
        }
    }
}
