//! Deterministic random number generation.
//!
//! All stochastic behaviour in the workspace flows through [`Pcg32`], a
//! permuted-congruential generator (PCG-XSH-RR 64/32). It is small, fast, has
//! good statistical quality for simulation purposes, and — crucially for a
//! reproduction artifact — produces identical streams on every platform.
//!
//! The sampling methods ([`Pcg32::sample_normal`], [`Pcg32::sample_exp`], …)
//! cover every distribution the trace generator and queueing simulator use.
//!
//! [`Pcg32::fill_standard_normal`] is the batch form of
//! [`Pcg32::sample_standard_normal`]: it draws the same uniforms in the same
//! order and evaluates the same Box–Muller expression on them, so its output
//! and the generator's end state equal a loop of single draws bit for bit.
//! It is faster for two reasons. It draws all the uniforms first and then
//! runs the `ln` and `cos` calls in loops of their own, where calls for
//! different elements, which do not depend on each other, can overlap. And
//! it takes the `cos` calls in order of their angle's bucket, so the branches
//! inside `cos` are predictable. The trace generator fills a block of
//! samples' noise this way.

use std::f64::consts::PI;

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

/// Elements per pass of `Pcg32::fill_standard_normal`: the second uniforms
/// of one chunk wait in a stack buffer of this length, and the chunk's
/// indices fit a `u8`.
const NORMAL_CHUNK: usize = 256;
const _: () = assert!(NORMAL_CHUNK <= 1 << u8::BITS);

/// Buckets of `u2` that `Pcg32::fill_standard_normal` takes the angles in.
/// The platform `cos` branches on its argument's range, quadrant and sign,
/// so over uniformly random angles it mispredicts about every other call;
/// within one of 32 equal slices of `[0, 2π)` the branches mostly go the
/// same way. (Measured on glibc 2.36: `cos` over random angles about 19 ns
/// a call, over sorted ones about 7.5 ns, on a shared 2-vCPU x86-64 box.)
const COS_BUCKETS: usize = 32;

/// The bucket of a uniform `u` in `[0, 1)`: `0..COS_BUCKETS`.
#[inline]
fn cos_bucket(u: f64) -> usize {
    (u * COS_BUCKETS as f64) as usize
}

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
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
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
    #[inline]
    pub fn sample_standard_normal(&mut self) -> f64 {
        // Avoid log(0).
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
    }

    /// Fill `out` with standard normals, bit-identical to
    /// `for z in out { *z = self.sample_standard_normal() }` and leaving the
    /// generator in the same state.
    ///
    /// Each chunk of up to 256 elements first draws every element's
    /// `(u1, u2)` pair in the single-draw order. It then computes every
    /// radius `(-2·ln u1).sqrt()` in order, and multiplies each by its
    /// `cos(2π·u2)` with the angles taken in order of `u2`'s 1/32-wide
    /// bucket. Each element goes through the single draw's operations on
    /// the same values; only the order across elements changes, and
    /// elements do not depend on each other.
    pub fn fill_standard_normal(&mut self, out: &mut [f64]) {
        let mut u2 = [0.0; NORMAL_CHUNK];
        let mut order = [0u8; NORMAL_CHUNK];
        for chunk in out.chunks_mut(NORMAL_CHUNK) {
            // `ends[b + 1]` counts bucket `b`; after the prefix sum,
            // `ends[b]` is where bucket `b` starts in `order`. Every bucket
            // is below `COS_BUCKETS` and every position below the chunk's
            // length, so none of the lookups below can miss.
            let mut ends = [0u16; COS_BUCKETS + 1];
            for (u1, u2) in chunk.iter_mut().zip(u2.iter_mut()) {
                *u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
                *u2 = self.next_f64();
                if let Some(count) = ends.get_mut(cos_bucket(*u2) + 1) {
                    *count += 1;
                }
            }
            let mut sum = 0;
            for end in ends.iter_mut() {
                sum += *end;
                *end = sum;
            }
            for (i, &u) in u2.iter().take(chunk.len()).enumerate() {
                if let Some(next) = ends.get_mut(cos_bucket(u)) {
                    if let Some(slot) = order.get_mut(usize::from(*next)) {
                        *slot = i as u8;
                    }
                    *next += 1;
                }
            }
            for z in chunk.iter_mut() {
                *z = (-2.0 * z.ln()).sqrt();
            }
            for &i in order.iter().take(chunk.len()) {
                let i = usize::from(i);
                if let (Some(z), Some(&u)) = (chunk.get_mut(i), u2.get(i)) {
                    *z *= (2.0 * PI * u).cos();
                }
            }
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn gen_bool_probability() {
        let mut rng = Pcg32::seed_from_u64(16);
        let hits = (0..50_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 50_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The batch fill is the single draw repeated: the same values bit
        /// for bit and the same end state, at every length from 0 to 300
        /// (the trace generator's 64-sample block and the 256-element chunk
        /// included), each fill continuing the previous one's stream.
        #[test]
        fn batch_normals_equal_single_draws(
            seed in 0u64..=u64::MAX,
            stream in 0u64..=u64::MAX,
        ) {
            let mut batch = Pcg32::new(seed, stream);
            let mut single = batch.clone();
            let mut out = Vec::new();
            for len in 0..=300 {
                out.clear();
                out.resize(len, f64::NAN);
                batch.fill_standard_normal(&mut out);
                for (i, z) in out.iter().enumerate() {
                    let want = single.sample_standard_normal();
                    prop_assert_eq!(z.to_bits(), want.to_bits(), "length {} element {}", len, i);
                }
                prop_assert_eq!(&batch, &single, "state after length {}", len);
            }
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exp_rejects_nonpositive_rate() {
        let mut rng = Pcg32::seed_from_u64(1);
        let _ = rng.sample_exp(0.0);
    }
}
