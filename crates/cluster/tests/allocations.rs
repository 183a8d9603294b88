//! Allocation ceiling of one prepared policy run on the columnar engine.
//!
//! Training builds each rack's prediction rows once; a policy run over the
//! trained fleet keeps only its per-step columns and the lazily filled gOA
//! budget rows, one per day class. A run that rebuilt per-weekly-slot
//! tables would allocate at least one `WEEK / step × servers` column of
//! 8-byte values per rack, so the bytes of a whole run must stay below
//! that.
//!
//! One `#[test]` runs the check: the counting allocator is process-wide,
//! so a second test running in parallel would add its own allocations.

use simcore::time::SimDuration;
use smartoclock::policy::PolicyKind;
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::probe::NoopProbe;
use soc_cluster::shard::{
    generate_fleet_probed, simulate_policy_prepared_probed, train_fleet_probed,
};
use soc_prof::{alloc_counts, CountingAlloc};
use soc_telemetry::Telemetry;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn prepared_run_allocates_less_than_one_weekly_column_per_rack() {
    let config = LargeScaleConfig::small_test();
    let fleet = generate_fleet_probed(&config, 1, &NoopProbe);
    let trained = train_fleet_probed(&config, &fleet, 1, &NoopProbe);
    let telemetry = Telemetry::disabled();
    let run = || {
        simulate_policy_prepared_probed(
            &config,
            PolicyKind::SmartOClock,
            &fleet,
            &trained,
            &telemetry,
            1,
            &NoopProbe,
        )
    };
    let warmup = run();
    let (_, before) = alloc_counts();
    let measured = run();
    let (_, after) = alloc_counts();
    assert_eq!(warmup, measured, "sim must be deterministic");
    let slots = SimDuration::WEEK.as_micros() / config.step.as_micros();
    let ceiling: u64 = fleet
        .iter()
        .map(|(rack, _)| slots * rack.servers.len() as u64 * 8)
        .sum();
    let bytes = after - before;
    assert!(
        bytes < ceiling,
        "a prepared run allocated {bytes} bytes, at least one weekly \
         column per rack ({ceiling} bytes): per-run weekly tables are back"
    );
}
