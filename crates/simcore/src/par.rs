//! Deterministic sharded parallel execution.
//!
//! The large-scale experiments are embarrassingly parallel between gOA
//! budget-reconciliation epochs: racks only interact at epoch boundaries, so
//! whole racks (or whole independent simulations) can run on worker threads.
//! What makes naive threading unacceptable here is *ordering*: the workspace
//! guarantees byte-identical traces per seed, and scheduler-dependent
//! interleaving breaks that. This module is the one sanctioned threading
//! primitive for sim-state crates (soc-lint D005 forbids `std::thread` and
//! channels elsewhere): it shards work deterministically, runs shards on
//! scoped worker threads, and merges results back **in canonical input
//! order**, so the output of [`par_map`] is a pure function of its inputs —
//! independent of thread count, core count, and scheduling.
//!
//! Design rules that keep this true:
//!
//! * every item knows its input index; results are reassembled by index;
//! * workers claim items one at a time, in index order, from one shared
//!   queue, so load balances at run time; which worker runs an item depends
//!   on timing, and nothing else may: results are keyed by index;
//! * items must not share mutable state; each returns its own result
//!   (callers buffer telemetry per item and merge after the join);
//! * a panicking item propagates its payload to the caller after all
//!   workers have been joined, and it is the payload the inline path would
//!   raise: that of the lowest-index panicking item.
//!
//! ```
//! use simcore::par::par_map;
//!
//! let squares = par_map(4, (0u64..100).collect(), |_, x| x * x);
//! assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
//! ```

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Number of hardware threads available to this process (at least 1).
///
/// This is the default worker count for `--threads` in the bench binaries.
/// It never influences simulation *results* — only how many workers claim
/// work — so reading it does not compromise determinism.
pub fn available_parallelism() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve a requested thread count: `0` means "use
/// [`available_parallelism`]", anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_parallelism()
    } else {
        requested
    }
}

/// Map `f` over `items` on up to `threads` worker threads, preserving input
/// order in the output.
///
/// `f` receives `(input_index, item)` and must be a pure function of them
/// (plus captured shared immutable state): the contract is that
/// `par_map(t, items, f)` returns the same bytes for every `t`. Workers
/// claim the next unclaimed item, in index order, whenever they finish one,
/// so a few heavy items never leave a worker idle behind a fixed share;
/// which worker runs an item decides nothing about the output.
///
/// `threads == 0` resolves to [`available_parallelism`]; `threads <= 1` (or
/// fewer than two items) runs inline on the calling thread with no thread
/// machinery at all.
///
/// # Panics
/// Re-raises the payload of the lowest-index panicking item, as the inline
/// map would, after all workers have been joined. Items are claimed in index
/// order and no worker claims another after a panic, so every item before
/// the panicking one has run (and that is the item the inline map would
/// stop at).
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = resolve_threads(threads).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // The one shared queue. Only `next` runs under the lock and `f` runs
    // outside it, so the lock is never poisoned; a panic in `f` stops
    // further claims through `panicked`.
    let queue = Mutex::new(items.into_iter().enumerate());
    let panicked = AtomicBool::new(false);
    let claim = || {
        if panicked.load(Ordering::Relaxed) {
            return None;
        }
        queue.lock().unwrap_or_else(PoisonError::into_inner).next()
    };
    let run = || {
        let mut done: Vec<(usize, R)> = Vec::new();
        while let Some((i, item)) = claim() {
            match panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(r) => done.push((i, r)),
                Err(payload) => {
                    panicked.store(true, Ordering::Relaxed);
                    return (done, Some((i, payload)));
                }
            }
        }
        (done, None)
    };

    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run)).collect();
        for handle in handles {
            // `run` catches every panic of `f`, so the join itself succeeds.
            let (done, failed) = handle.join().unwrap_or_else(|p| panic::resume_unwind(p));
            indexed.extend(done);
            if let Some((i, payload)) = failed {
                if first_panic.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_panic = Some((i, payload));
                }
            }
        }
    });
    if let Some((_, payload)) = first_panic {
        panic::resume_unwind(payload);
    }

    // Canonical merge: results come back grouped by worker; restore input
    // order. Indices are unique, so an unstable sort is deterministic.
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 3, 4, 7] {
            let out = par_map(threads, (0u64..50).collect(), |i, x| {
                assert_eq!(i as u64, x, "index must match the input position");
                x * 3
            });
            assert_eq!(out, (0u64..50).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn matches_inline_map_for_any_thread_count() {
        // A seeded per-item computation: the parallel result must be
        // byte-identical to the serial one for every worker count.
        let work = |_: usize, seed: u64| {
            let mut rng = Pcg32::seed_from_u64(seed);
            (0..100).map(|_| rng.next_f64()).sum::<f64>()
        };
        let serial = par_map(1, (0u64..33).collect(), work);
        for threads in [2, 4, 8, 33, 64] {
            let parallel = par_map(threads, (0u64..33).collect(), work);
            assert_eq!(serial, parallel, "threads={threads} diverged");
        }
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u32> = par_map(4, Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(4, vec![9u32], |_, x| x + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(par_map(64, vec![1, 2, 3], |_, x| x), vec![1, 2, 3]);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(available_parallelism() >= 1);
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(3), 3);
        let out = par_map(0, (0u32..10).collect(), |_, x| x);
        assert_eq!(out, (0u32..10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, (0u32..16).collect(), |_, x| {
                assert!(x != 11, "boom on item {x}");
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom on item 11"), "got: {msg}");
    }

    /// A seeded sum whose cost grows with `rounds`.
    fn seeded_sum(seed: u64, rounds: usize) -> f64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        (0..rounds).map(|_| rng.next_f64()).sum()
    }

    #[test]
    fn skewed_item_costs_return_the_serial_output() {
        // Item 5 costs about 100 times any other, so the worker that claims
        // it falls behind while the others drain the queue.
        let work = |i: usize, seed: u64| seeded_sum(seed, if i == 5 { 20_000 } else { 200 });
        let items = || (0u64..40).collect::<Vec<_>>();
        let serial: Vec<f64> = items()
            .into_iter()
            .enumerate()
            .map(|(i, x)| work(i, x))
            .collect();
        for threads in 1..=8 {
            assert_eq!(par_map(threads, items(), work), serial, "threads={threads}");
        }
    }

    #[test]
    fn the_lowest_index_panic_wins_at_every_thread_count() {
        // Item 9 panics at once; item 3 works first, so item 9 usually
        // panics before item 3 does, on a worker that may come earlier or
        // later in join order. The slow items before 3 spread the claims
        // over the workers.
        for threads in 1..=8 {
            for trial in 0..4 {
                let result = std::panic::catch_unwind(|| {
                    par_map(threads, (0u64..16).collect(), |i, x| {
                        match i {
                            0..=2 => drop(seeded_sum(x, 5_000)),
                            3 => drop(seeded_sum(x, 50_000)),
                            _ => {}
                        }
                        assert!(i != 3 && i != 9, "boom on item {i}");
                        x
                    })
                });
                let payload = result.expect_err("panic must propagate");
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(
                    msg.contains("boom on item 3"),
                    "threads={threads} trial={trial}: {msg}"
                );
            }
        }
    }

    #[test]
    fn empty_and_short_inputs_match_the_inline_map() {
        let work = |i: usize, x: u64| seeded_sum(x, 10 + i);
        for n in 0u64..4 {
            let inline: Vec<f64> = (0..n).enumerate().map(|(i, x)| work(i, x)).collect();
            for threads in 0..=8 {
                assert_eq!(
                    par_map(threads, (0..n).collect(), work),
                    inline,
                    "n={n} threads={threads}"
                );
            }
        }
    }
}
