//! Counts the bytes this process holds from the allocator, and the most it
//! ever held at once. The system allocator still does all the work; two
//! relaxed atomic updates ride on each call.
//!
//! Peak *resident* memory (`VmHWM`) is not what the runs report, because with
//! glibc's allocator it does not repeat: which arena a short-lived thread
//! gets, where the sliding mmap threshold stands and what each arena's top
//! has trimmed depend on timing, and the same run reads 470 or 585 MB. The
//! bytes the program asked for do repeat, and they are the part of the
//! footprint a change to the crates decides.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` is enough.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is passed to `System` unchanged and its result returned
// unchanged, so `System`'s own guarantees are this allocator's; the counters
// are touched only after `System` has answered.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

/// The most bytes held at once so far, in MB (10^6 bytes).
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / 1e6
}
