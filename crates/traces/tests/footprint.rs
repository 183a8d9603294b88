//! Bytes one bench-shaped rack allocates while it is generated.
//!
//! A server-sample is stored in 10 bytes: its utilization (`f64`) and its
//! count of overclock-demanding cores (`u16`); its power is derived from
//! the utilization on read. So one `generate_rack` may allocate 10 bytes
//! per server-sample, 8 per sample for the rack series, and 256 KiB for the
//! VM placement, the noise block and the rack's small tables. Storing power
//! and demand as `f64` series beside the utilization (24 bytes per
//! server-sample) exceeds that ceiling.
//!
//! One `#[test]` runs the check: the counting allocator is process-wide,
//! so a second test running in parallel would add its own allocations.

use simcore::time::SimDuration;
use soc_prof::{alloc_counts, CountingAlloc};
use soc_traces::gen::{FleetConfig, TraceGenerator};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn one_rack_allocates_ten_bytes_per_server_sample() {
    // The large-scale bench shape: 14 servers, 3 weeks at 5 minutes.
    let config = FleetConfig {
        racks: 1,
        servers_per_rack_min: 14,
        servers_per_rack_max: 14,
        span: SimDuration::WEEK * 3,
        step: SimDuration::from_minutes(5),
        keep_server_series: true,
        ..FleetConfig::small_test()
    };
    let generator = TraceGenerator::new(42);
    // The service catalog is built once per process, on first use: build
    // it before counting.
    let warm_up = FleetConfig {
        span: SimDuration::DAY,
        ..config.clone()
    };
    drop(generator.generate_rack(&warm_up, 0));

    let (_, before) = alloc_counts();
    let rack = generator.generate_rack(&config, 0);
    let (_, after) = alloc_counts();

    let servers = rack.servers.len() as u64;
    let samples = rack.power.len() as u64;
    assert_eq!((servers, samples), (14, 3 * 7 * 288));
    let ceiling = servers * samples * 10 + samples * 8 + 256 * 1024;
    let allocated = after - before;
    assert!(
        allocated <= ceiling,
        "{allocated} bytes allocated for {servers} servers × {samples} samples; \
         the ceiling is {ceiling}"
    );
}
