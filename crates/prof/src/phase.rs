//! Per-phase wall-clock statistics.
//!
//! Every span folds into the profiler through [`crate::Profiler::record`]
//! under a literal path (`shard/sim`, `policy/SmartOClock`): no nesting is
//! inferred from the calling thread, so the snapshot keys are identical
//! for `--threads 1` and `--threads N`.

use std::time::Duration;

/// Accumulated statistics for one phase path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall time across spans.
    pub total: Duration,
    /// Shortest span.
    pub min: Duration,
    /// Longest span.
    pub max: Duration,
}

impl PhaseStats {
    /// Fold one completed span into the stats.
    pub fn record(&mut self, elapsed: Duration) {
        if self.count == 0 {
            self.min = elapsed;
            self.max = elapsed;
        } else {
            self.min = self.min.min(elapsed);
            self.max = self.max.max(elapsed);
        }
        self.count += 1;
        self.total += elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fold_min_max() {
        let mut s = PhaseStats::default();
        s.record(Duration::from_millis(4));
        s.record(Duration::from_millis(2));
        s.record(Duration::from_millis(6));
        assert_eq!(s.count, 3);
        assert_eq!(s.total, Duration::from_millis(12));
        assert_eq!(s.min, Duration::from_millis(2));
        assert_eq!(s.max, Duration::from_millis(6));
    }
}
