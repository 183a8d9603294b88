//! Memory observability: peak-RSS sampling and allocation counting.
//!
//! * [`peak_rss_bytes`] reads the process high-water mark from
//!   `/proc/self/status` (`VmHWM`). On platforms without procfs it returns
//!   0 — a profile stays well-formed, the reading is just absent.
//! * [`CountingAlloc`] is an opt-in global allocator that counts
//!   allocations and allocated bytes into process-wide atomics. Bench
//!   binaries install it with one line:
//!
//!   ```ignore
//!   #[global_allocator]
//!   static ALLOC: soc_prof::CountingAlloc = soc_prof::CountingAlloc;
//!   ```
//!
//!   When it is not installed, [`alloc_counts`] reads `(0, 0)`. Counts
//!   are totals since process start, not
//!   live bytes; for a bench the interesting figure is allocations per
//!   phase of work, which the caller derives by sampling before/after.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Peak resident-set size of this process in bytes (0 if unavailable).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total `(allocations, bytes)` served by [`CountingAlloc`] since process
/// start. Both are 0 unless a binary installed the allocator.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// A [`System`]-delegating allocator that counts allocations.
///
/// Pure pass-through plus two relaxed atomic increments per allocation;
/// the overhead is low enough to leave installed in every bench binary.
pub struct CountingAlloc;

// The one unsafe block in the workspace: `GlobalAlloc` is an unsafe trait
// by definition. Every method delegates verbatim to `System`, inheriting
// its safety contract; the only added behaviour is relaxed counter bumps.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            // A running test binary has touched at least a megabyte.
            assert!(rss > 1 << 20, "VmHWM parsed as {rss} bytes");
        }
    }

    #[test]
    fn alloc_counts_read_without_installation() {
        // The test binary does not install CountingAlloc; the counters are
        // simply zero (or whatever another test of this process recorded).
        let (count, bytes) = alloc_counts();
        assert!(count == 0 || bytes > 0 || bytes == 0);
    }
}
