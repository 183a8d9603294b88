//! Known-bad fixture: the sim-state crate that launders non-determinism
//! and panics through its allowed `util`-layer dependency. No line in this
//! file touches a clock, the environment, or an unwrap — the per-file
//! D/R lints see nothing — yet `step` is wall-clock-dependent (D006),
//! panic-reachable (R004), and pulls the observation layer into the sim's
//! transitive closure (A002). Never compiled.

pub fn step(xs: &[u64]) -> u64 {
    let t = helper::now_ms();
    t + helper::first_of(xs)
}

fn clamped(v: u64) -> u64 {
    helper::clamp_ms(v)
}
