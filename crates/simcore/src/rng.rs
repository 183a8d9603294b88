//! Deterministic random number generation.
//!
//! All stochastic behaviour in the workspace flows through [`Pcg32`], a
//! permuted-congruential generator (PCG-XSH-RR 64/32). It is small, fast, has
//! good statistical quality for simulation purposes, and — crucially for a
//! reproduction artifact — produces identical streams on every platform.
//!
//! The sampling methods ([`Pcg32::sample_normal`], [`Pcg32::sample_exp`], …)
//! cover every distribution the trace generator and queueing simulator use.

use std::f64::consts::PI;

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

/// A PCG-XSH-RR 64/32 pseudo-random generator.
///
/// ```
/// use simcore::rng::Pcg32;
///
/// let mut a = Pcg32::seed_from_u64(42);
/// let mut b = Pcg32::seed_from_u64(42);
/// assert_eq!(a.next_u32(), b.next_u32()); // identical streams
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Create a generator from a 64-bit seed (stream constant fixed).
    pub fn seed_from_u64(seed: u64) -> Pcg32 {
        Pcg32::new(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Create a generator with an explicit stream selector.
    ///
    /// Different `stream` values yield statistically independent sequences
    /// for the same seed; the workspace derives per-entity streams this way
    /// (e.g. one stream per simulated server).
    pub fn new(seed: u64, stream: u64) -> Pcg32 {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        let _ = rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        let _ = rng.next_u32();
        rng
    }

    /// Derive a child generator; used to give independent streams to
    /// sub-components without sharing mutable state.
    pub fn fork(&mut self, salt: u64) -> Pcg32 {
        let seed = self.next_u64() ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Pcg32::new(seed, salt.wrapping_add(0x5851_f42d_4c95_7f2d))
    }

    /// Next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[lo, hi)` (Lemire-style rejection-free mapping;
    /// bias is negligible for simulation ranges).
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        let span = hi - lo;
        lo + (((self.next_u64() as u128 * span as u128) >> 64) as u64)
    }

    /// Uniform index in `[0, len)`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn gen_index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick an index from an empty range");
        self.gen_range_u64(0, len as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller.
    pub fn sample_standard_normal(&mut self) -> f64 {
        // Avoid log(0).
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative.
    pub fn sample_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.sample_standard_normal()
    }

    /// Exponential with the given rate `lambda` (mean `1/lambda`).
    ///
    /// # Panics
    /// Panics if `lambda <= 0`.
    pub fn sample_exp(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "rate must be positive");
        let u = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        -u.ln() / lambda
    }

    /// Log-normal parameterized by the underlying normal's `mu` and `sigma`.
    ///
    /// # Panics
    /// Panics if `sigma` is negative.
    pub fn sample_lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        (mu + sigma * self.sample_standard_normal()).exp()
    }

    /// Poisson-distributed count with the given mean (Knuth for small means,
    /// normal approximation above 64 to stay O(1)).
    ///
    /// # Panics
    /// Panics if `mean` is negative or not finite.
    pub fn sample_poisson(&mut self, mean: f64) -> u64 {
        assert!(
            mean.is_finite() && mean >= 0.0,
            "mean must be finite and non-negative"
        );
        if mean == 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let x = self.sample_normal(mean, mean.sqrt());
            return x.max(0.0).round() as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Bounded Pareto sample in `[scale, cap]` with shape `alpha`; used for
    /// heavy-tailed service times in the microservice model.
    ///
    /// # Panics
    /// Panics if `alpha <= 0`, `scale <= 0`, or `cap < scale`.
    pub fn sample_bounded_pareto(&mut self, alpha: f64, scale: f64, cap: f64) -> f64 {
        assert!(
            alpha > 0.0 && scale > 0.0 && cap >= scale,
            "invalid Pareto parameters"
        );
        let u = self.next_f64();
        let ha = cap.powf(-alpha);
        let la = scale.powf(-alpha);
        (u * (ha - la) + la).powf(-1.0 / alpha)
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_and_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Pcg32::seed_from_u64(123);
        let mut b = Pcg32::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg32::seed_from_u64(1);
        let mut b = Pcg32::seed_from_u64(2);
        let va: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forked_streams_are_independent_of_parent_continuation() {
        let mut parent = Pcg32::seed_from_u64(7);
        let mut child = parent.fork(1);
        let c: Vec<u32> = (0..4).map(|_| child.next_u32()).collect();
        let p: Vec<u32> = (0..4).map(|_| parent.next_u32()).collect();
        assert_ne!(c, p);
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = Pcg32::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_f64_mean_near_half() {
        let mut rng = Pcg32::seed_from_u64(6);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.next_f64()).collect();
        let (mean, _) = mean_and_var(&xs);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_u64_bounds() {
        let mut rng = Pcg32::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.gen_range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Pcg32::seed_from_u64(11);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.sample_normal(3.0, 2.0)).collect();
        let (mean, var) = mean_and_var(&xs);
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Pcg32::seed_from_u64(12);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.sample_exp(2.0)).collect();
        let (mean, _) = mean_and_var(&xs);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut rng = Pcg32::seed_from_u64(13);
        let small: Vec<f64> = (0..20_000)
            .map(|_| rng.sample_poisson(3.5) as f64)
            .collect();
        let (m, _) = mean_and_var(&small);
        assert!((m - 3.5).abs() < 0.1, "small mean {m}");
        let large: Vec<f64> = (0..20_000)
            .map(|_| rng.sample_poisson(200.0) as f64)
            .collect();
        let (m, _) = mean_and_var(&large);
        assert!((m - 200.0).abs() < 1.0, "large mean {m}");
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let mut rng = Pcg32::seed_from_u64(14);
        for _ in 0..10_000 {
            let x = rng.sample_bounded_pareto(1.5, 1.0, 100.0);
            assert!((1.0..=100.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::seed_from_u64(15);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = Pcg32::seed_from_u64(16);
        let hits = (0..50_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 50_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exp_rejects_nonpositive_rate() {
        let mut rng = Pcg32::seed_from_u64(1);
        let _ = rng.sample_exp(0.0);
    }
}
