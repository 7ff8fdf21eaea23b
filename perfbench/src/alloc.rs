//! A counting global allocator: every allocation adds its size to a
//! process-wide total and to the calling thread's own total, so a probe
//! can charge the bytes one call allocates to that call even while
//! server threads allocate concurrently. It also tracks live heap bytes
//! and their peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`] plus byte counters.
pub struct Counting;

static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
    // `try_with`: the slot is gone while the thread tears down its
    // thread-locals, and allocations there must still succeed.
    let _ = THREAD_BYTES.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counting
// touches only atomics and a const-initialised thread-local, neither of
// which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc allocates the difference; a shrinking one
        // allocates nothing new and frees the rest.
        count(new_size.saturating_sub(layout.size()));
        LIVE_BYTES.fetch_sub(
            layout.size().saturating_sub(new_size) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Bytes allocated by the calling thread so far.
pub fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

/// Bytes allocated by the whole process so far.
pub fn total_bytes() -> u64 {
    TOTAL_BYTES.load(Ordering::Relaxed)
}

/// Restart the live-heap peak at the current live bytes.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Live heap bytes now.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}
