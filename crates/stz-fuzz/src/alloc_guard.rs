//! Allocation-tracking global allocator — the "allocation bounded" oracle.
//!
//! The harness binaries (and the corpus replay test) install
//! [`TrackingAlloc`] as their `#[global_allocator]`. It forwards to the
//! system allocator and records the **largest single allocation** since
//! the last [`reset_peak`], a running net-bytes balance and that balance's
//! high-water mark. The engine resets the peak before each target execution
//! and asserts afterwards that no single allocation exceeded the configured
//! cap: a parser that reserves a dims-sized buffer *before* validating
//! hostile geometry trips this oracle even when the subsequent read fails
//! cleanly. `tests/alloc_bounds.rs` reads the high-water mark: the most a
//! call holds at once.
//!
//! In processes that do not install the allocator (ordinary unit tests),
//! [`peak_single`] stays 0 and the engine skips the oracle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

static PEAK_SINGLE: AtomicUsize = AtomicUsize::new(0);
static NET_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_NET: AtomicIsize = AtomicIsize::new(0);

/// Forwarding allocator that records allocation sizes.
pub struct TrackingAlloc;

/// Record an allocation of `size` bytes that changes the balance by `delta`.
fn record(size: usize, delta: isize) {
    PEAK_SINGLE.fetch_max(size, Ordering::Relaxed);
    let net = NET_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_NET.fetch_max(net, Ordering::Relaxed);
}

// SAFETY: pure forwarding to `System`; the atomics add no aliasing or
// reentrancy (no allocation happens inside the hooks).
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Clear both high-water marks — the largest single allocation and the
/// largest balance — before a measured region.
pub fn reset_peak() {
    PEAK_SINGLE.store(0, Ordering::Relaxed);
    PEAK_NET.store(NET_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Largest single allocation since the last [`reset_peak`]; 0 when
/// [`TrackingAlloc`] is not installed as the global allocator.
pub fn peak_single() -> usize {
    PEAK_SINGLE.load(Ordering::Relaxed)
}

/// Net allocated-minus-freed bytes since process start (drifts only with
/// live data: corpus growth, lazily initialized registries, …).
pub fn net_bytes() -> isize {
    NET_BYTES.load(Ordering::Relaxed)
}

/// Highest [`net_bytes`] since the last [`reset_peak`]: subtract the
/// balance at the reset to get the most a measured region held at once.
pub fn peak_net_bytes() -> isize {
    PEAK_NET.load(Ordering::Relaxed)
}
