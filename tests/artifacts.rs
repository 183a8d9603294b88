//! A requested artifact that cannot be written fails the run.
//!
//! Runs a real bench binary: its trace goes to `/dev/full`, where the file
//! opens but every write fails, so the error surfaces only when the trace
//! is flushed at the end of the run. The binary must still print its table
//! and then exit non-zero, naming the trace.

#![cfg(target_os = "linux")]

use std::process::Command;

#[test]
fn a_trace_whose_writes_fail_fails_the_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig06_rack_week"))
        .args(["--fast", "--trace-out", "/dev/full"])
        .output()
        .expect("run fig06_rack_week");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("error: cannot write trace /dev/full"),
        "stderr: {stderr}"
    );
    assert!(
        !out.stdout.is_empty(),
        "the table is printed before failing"
    );
}
