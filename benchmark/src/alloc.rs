//! A counting global allocator for the traced run.
//!
//! Counting is off unless [`start`] turned it on, so the untraced run
//! pays one relaxed load per allocation and nothing else. Counts are
//! taken between two points at which every connection is drained, so on a
//! workload whose requests all allocate alike the per-operation count
//! repeats exactly and may carry a count-based claim.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters.
pub struct CountingAllocator;

fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls (alloc, zeroed alloc, realloc) and bytes requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls counted.
    pub allocations: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Zero the counters and start counting.
pub fn start() {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop counting and return what was counted since [`start`].
pub fn stop() -> AllocCount {
    ENABLED.store(false, Ordering::SeqCst);
    AllocCount {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test binary installs the allocator too (see `main.rs`). The
    /// counters are process-wide and `cargo test` runs tests on parallel
    /// threads, so the pattern is repeated until two consecutive counts
    /// agree, which means no other thread allocated in between.
    #[test]
    fn counts_a_known_pattern_exactly() {
        fn pattern(n: usize) -> AllocCount {
            let mut last = None;
            for _ in 0..1000 {
                start();
                let mut keep = Vec::with_capacity(n);
                for i in 0..n {
                    keep.push(std::hint::black_box(Box::new([i as u8; 48])));
                }
                let got = stop();
                drop(keep);
                if last == Some(got) {
                    return got;
                }
                last = Some(got);
            }
            panic!("allocation count never repeated");
        }
        let small = pattern(10);
        let large = pattern(110);
        // 100 more 48-byte boxes, and a `keep` vector 100 pointers larger.
        assert_eq!(large.allocations - small.allocations, 100);
        assert_eq!(large.bytes - small.bytes, 100 * 48 + 100 * std::mem::size_of::<usize>() as u64);
        assert_eq!(small.allocations, 11, "ten boxes and one vector");
    }
}
