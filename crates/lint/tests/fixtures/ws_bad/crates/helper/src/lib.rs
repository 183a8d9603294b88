//! Known-bad fixture: the laundering helper. A `util`-layer crate that
//! wraps wall-clock time in an innocent-looking function, reaches up into
//! the observation layer, and hides a panic behind a clean signature.
//! Every file here lints clean under the per-file D-lints alone — the
//! workspace passes (A001/A002, D006, R004) are what catch it. Never
//! compiled.

use soc_health::Recorder;

pub fn now_ms() -> u64 {
    let t = std::time::SystemTime::now();
    t.duration_since(std::time::UNIX_EPOCH).unwrap().as_millis() as u64
}

pub fn record(r: &Recorder, v: u64) {
    r.push(v);
}

pub fn first_of(xs: &[u64]) -> u64 {
    xs[0]
}

// --- A003: which public items count as used -----------------------------

/// Called from the sibling `simx` crate: A003-clean.
pub fn clamp_ms(v: u64) -> u64 {
    v.min(1_000)
}

/// Named by no code outside this crate: A003 flags it (as it flags
/// `record` above, which nothing calls either).
pub fn orphan() -> u64 {
    first_of(&[1])
}

/// Named only in the exported macro below, whose expansion runs in the
/// calling crate: A003-clean.
pub fn macro_target(v: u64) -> u64 {
    v + 1
}

#[macro_export]
macro_rules! bump {
    ($v:expr) => {
        $crate::macro_target($v)
    };
}

/// Named only in this doctest, which compiles as an outside crate:
/// A003-clean.
///
/// ```
/// assert_eq!(helper::doc_only(), 7);
/// ```
pub fn doc_only() -> u64 {
    7
}
