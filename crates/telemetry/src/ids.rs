//! The decision-id layout of sharded runs.
//!
//! A sharded run gives every shard a buffered handle whose id counter starts
//! at [`shard_id_base`]: `run_id << 44 | (shard + 1) << 24 | local`. Every
//! shard of every traced run gets a disjoint id range (16M local ids per
//! shard, ~1M shards per run) without any cross-thread coordination.
//! `run_id` comes from the outer handle's counter *before* the fan-out, so
//! it is identical for every thread count. The writer (the sharded engine)
//! and the readers (the health sections of `soc-analyze`) both go through
//! this module, so the layout is written down once.

/// Bit position of the run id.
const RUN_SHIFT: u32 = 44;
/// Bit position of the (one-based) shard index.
const SHARD_SHIFT: u32 = 24;

/// Deterministic id base for shard `shard` of traced run `run_id`.
pub fn shard_id_base(run_id: u64, shard: usize) -> u64 {
    (run_id << RUN_SHIFT) | ((shard as u64 + 1) << SHARD_SHIFT)
}

/// The run a decision id was allocated in: the inverse of
/// [`shard_id_base`] for every id below the next shard's base.
pub fn run_of(id: u64) -> u64 {
    id >> RUN_SHIFT
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Pcg32;

    #[test]
    fn shard_id_bases_are_disjoint_and_ordered() {
        let bases: Vec<u64> = (0..100).map(|s| shard_id_base(1, s)).collect();
        for pair in bases.windows(2) {
            assert!(
                pair[1] - pair[0] >= 1 << SHARD_SHIFT,
                "shards must have disjoint id ranges"
            );
        }
        assert!(shard_id_base(2, 0) > shard_id_base(1, 99));
    }

    #[test]
    fn run_of_inverts_shard_id_base() {
        let mut rng = Pcg32::seed_from_u64(44);
        for _ in 0..10_000 {
            let run = rng.gen_range_u64(0, 1 << 20);
            let shard = rng.gen_index((1 << 20) - 1);
            let local = rng.gen_range_u64(0, 1 << SHARD_SHIFT);
            assert_eq!(
                run_of(shard_id_base(run, shard) + local),
                run,
                "run {run}, shard {shard}, local {local}"
            );
        }
    }
}
