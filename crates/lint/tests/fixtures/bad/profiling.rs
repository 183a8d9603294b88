//! Known-bad fixture: a sim-state crate linking bench-side observability.
//! `soc_prof` (wall-clock profiling) and `soc_analyze` (health recording)
//! live outside the deterministic core; sim-state crates must expose pure
//! probe hooks (`soc_cluster::probe::ShardProbe`) instead and let the bench
//! binaries attach timers and recorders. Never compiled.

use soc_analyze::Recorder;
use soc_prof::Profiler;

struct Shard {
    profiler: Profiler,
    recorder: Recorder,
}

fn time_a_step(shard: &Shard) {
    let prof = soc_prof::Profiler::new("sim");
    let health = soc_analyze::Recorder::new("sim");
    let _guard = prof.phase("step");
    let _ = (&shard.profiler, &shard.recorder, health);
}
