//! Allocation ceilings of the enabled telemetry hot path.
//!
//! The disabled path never allocates (one branch per emission site). The
//! enabled path is held to:
//!
//! * updating an existing counter, gauge or histogram series allocates
//!   nothing — lookups borrow the caller's label slice;
//! * an event whose fields are static strings and numbers allocates once,
//!   for its fields `Vec`, and a memory sink stores it without a copy;
//! * absorbing a shard's buffer into a memory sink moves every event.
//!
//! One `#[test]` runs every check in sequence: the counting allocator is
//! process-wide, so a second test running in parallel would add its own
//! allocations to the counts.

use simcore::time::SimTime;
use soc_prof::{alloc_counts, CountingAlloc};
use soc_telemetry::{
    tm_event, Component, Event, LabelValue, MetricsRegistry, MetricsSnapshot, Severity, Telemetry,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = alloc_counts().0;
    f();
    alloc_counts().0 - before
}

fn restart_event(tm: &Telemetry, server: usize) {
    tm_event!(tm, SimTime::from_secs(60), Component::Fault, Severity::Warn, "fault_injected",
        "rack" => 3usize,
        "server" => server,
        "kind" => "soa_restart",
        "decision_id" => tm.next_id(),
        "cause_id" => 1u64);
}

#[test]
fn enabled_hot_path_allocation_ceilings() {
    let labels = [
        ("rack", LabelValue::from(3usize)),
        ("policy", LabelValue::from("SmartOClock")),
    ];
    let m = MetricsRegistry::new();
    m.inc_counter("requests", &labels);
    m.set_gauge("draw_w", &labels, 1.0);
    m.observe("draw_hist_w", &labels, 250.0);
    let n = allocations(|| {
        for _ in 0..100 {
            m.inc_counter("requests", &labels);
            m.inc_counter_by("requests", &labels, 7);
            m.set_gauge("draw_w", &labels, 2.0);
            m.observe("draw_hist_w", &labels, 250.0);
        }
    });
    assert_eq!(n, 0, "updates to existing series must not allocate");
    assert_eq!(m.counter("requests", &labels), 801);
    assert!(
        allocations(|| m.inc_counter("grants", &labels)) > 0,
        "a new series owns its key"
    );

    let off = Telemetry::disabled();
    assert_eq!(allocations(|| restart_event(&off, 0)), 0, "disabled path");

    // Grow the sink's buffer first, so only the event itself is counted.
    let (tm, sink) = Telemetry::memory();
    for s in 0..64 {
        restart_event(&tm, s);
    }
    sink.clear();
    assert_eq!(
        allocations(|| restart_event(&tm, 0)),
        1,
        "static-string and numeric fields allocate only the fields Vec"
    );

    // A shard's buffer, absorbed into a memory sink with room for it.
    let (shard, buffer) = Telemetry::buffered(1 << 24);
    for s in 0..32 {
        restart_event(&shard, s);
        shard.emit(
            Event::new(SimTime::ZERO, Component::Sim, Severity::Info, "e")
                .field("vm", format!("vm-{s}")),
        );
    }
    let events = buffer.take();
    assert_eq!(events.len(), 64);
    let expected = events.clone();
    sink.clear();
    let empty = MetricsSnapshot::default();
    assert_eq!(
        allocations(|| tm.absorb(events, &empty)),
        0,
        "absorb must move events, not clone them"
    );
    assert_eq!(sink.events(), expected);
}
