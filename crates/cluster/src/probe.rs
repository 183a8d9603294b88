//! Pure observation hooks for performance instrumentation.
//!
//! `soc_cluster` is a sim-state crate: wall-clock reads are forbidden here
//! (soc-lint D002), because a clock read inside simulation code is one
//! accidental `if elapsed > ..` away from scheduler-dependent behaviour.
//! Performance observability still wants to know how long the shard phases
//! take — so the sharded engine accepts a [`ShardProbe`], a trait of *pure
//! hooks*: the sim announces "a named phase starts here" and "this counter
//! advanced", and an implementation living in a bench binary (where clocks
//! are allowed) attaches wall-clock timing on the other side of the trait.
//!
//! Nothing observable by the simulation flows back through the probe: the
//! hooks return opaque drop tokens and `()`, so a probed run and a
//! [`NoopProbe`] run execute byte-identical simulation work by construction.

/// Opaque token ending a probe span when dropped.
///
/// Implementations carry whatever state they need (a start instant, a
/// profiler handle); the simulation only holds the box and drops it.
pub trait SpanToken: Send {}

/// Observation hooks called by the sharded engine.
///
/// Span names are flat literals (`"shard/sim"`, `"merge"`), not nested:
/// workers run the same code whether the pool is inline (`threads <= 1`)
/// or fanned out, and flat names keep the recorded keys identical across
/// every thread count.
pub trait ShardProbe: Sync {
    /// Begin the named span. `None` means "not observing" and costs nothing;
    /// a `Some` token ends the span when dropped.
    fn span(&self, name: &'static str) -> Option<Box<dyn SpanToken>>;

    /// Advance a named monotonic counter.
    fn add(&self, counter: &'static str, n: u64);

    /// Observe one telemetry event.
    ///
    /// Called only from the serial merge loop, in canonical rack order, so
    /// implementations see events in a deterministic sequence at every
    /// thread count. Default is a no-op.
    fn event(&self, _event: &soc_telemetry::Event) {}
}

/// The disabled probe: every hook is a no-op the optimizer can erase.
pub struct NoopProbe;

impl ShardProbe for NoopProbe {
    fn span(&self, _name: &'static str) -> Option<Box<dyn SpanToken>> {
        None
    }

    fn add(&self, _counter: &'static str, _n: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct CountingToken(Arc<AtomicU64>);
    impl SpanToken for CountingToken {}
    impl Drop for CountingToken {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    struct CountingProbe {
        spans_closed: Arc<AtomicU64>,
        counted: AtomicU64,
    }

    impl ShardProbe for CountingProbe {
        fn span(&self, _name: &'static str) -> Option<Box<dyn SpanToken>> {
            Some(Box::new(CountingToken(Arc::clone(&self.spans_closed))))
        }
        fn add(&self, _counter: &'static str, n: u64) {
            self.counted.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[test]
    fn noop_probe_observes_nothing() {
        let probe = NoopProbe;
        assert!(probe.span("anything").is_none());
        probe.add("anything", 7);
    }

    #[test]
    fn tokens_fire_on_drop() {
        let probe = CountingProbe {
            spans_closed: Arc::new(AtomicU64::new(0)),
            counted: AtomicU64::new(0),
        };
        {
            let _a = probe.span("a");
            let _b = probe.span("b");
            assert_eq!(probe.spans_closed.load(Ordering::Relaxed), 0);
        }
        assert_eq!(probe.spans_closed.load(Ordering::Relaxed), 2);
        probe.add("n", 5);
        assert_eq!(probe.counted.load(Ordering::Relaxed), 5);
    }
}
