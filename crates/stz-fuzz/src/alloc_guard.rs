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
//! call holds at once, and [`live_at_peak`], the allocations of at least
//! [`LISTED`] bytes the call made and still held when it was reached — what
//! a failed bound names.
//!
//! In processes that do not install the allocator (ordinary unit tests),
//! [`peak_single`] stays 0 and the engine skips the oracle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

static PEAK_SINGLE: AtomicUsize = AtomicUsize::new(0);
static NET_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_NET: AtomicIsize = AtomicIsize::new(0);

/// Allocations of at least this many bytes, made since the last
/// [`reset_peak`], are listed while they live.
pub const LISTED: usize = 8 << 10;
/// How many listed allocations can be live at once; more go unlisted.
const SLOTS: usize = 128;
// The repeat operand of the tables below (an inline `const` block needs a
// newer compiler than the workspace's minimum).
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicUsize = AtomicUsize::new(0);
/// The listed allocations: address (0: a free slot) and size.
static LIVE: [AtomicUsize; SLOTS] = [ZERO; SLOTS];
static LIVE_SIZE: [AtomicUsize; SLOTS] = [ZERO; SLOTS];
/// `LIVE_SIZE` when the balance last reached a new high.
static AT_PEAK: [AtomicUsize; SLOTS] = [ZERO; SLOTS];

/// Forwarding allocator that records allocation sizes.
pub struct TrackingAlloc;

/// Record an allocation of `size` bytes that changes the balance by `delta`;
/// at a new high of the balance, copy the listed sizes.
fn record(size: usize, delta: isize) {
    PEAK_SINGLE.fetch_max(size, Ordering::Relaxed);
    let net = NET_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    if PEAK_NET.fetch_max(net, Ordering::Relaxed) < net {
        for (size, at_peak) in LIVE_SIZE.iter().zip(&AT_PEAK) {
            at_peak.store(size.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// List `ptr`, an allocation of `size` bytes, if it is large enough.
fn list(ptr: *mut u8, size: usize) {
    if size < LISTED || ptr.is_null() {
        return;
    }
    let claim = |p: &AtomicUsize| {
        p.compare_exchange(0, ptr as usize, Ordering::Relaxed, Ordering::Relaxed).is_ok()
    };
    if let Some(i) = LIVE.iter().position(claim) {
        LIVE_SIZE[i].store(size, Ordering::Relaxed);
    }
}

/// Take `ptr` off the list, before it is freed.
fn unlist(ptr: *mut u8, size: usize) {
    if size < LISTED {
        return;
    }
    if let Some(i) = LIVE.iter().position(|p| p.load(Ordering::Relaxed) == ptr as usize) {
        LIVE_SIZE[i].store(0, Ordering::Relaxed);
        LIVE[i].store(0, Ordering::Relaxed);
    }
}

// SAFETY: pure forwarding to `System`; the atomics and the fixed tables add
// no aliasing or reentrancy (no allocation happens inside the hooks).
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        list(ptr, layout.size());
        record(layout.size(), layout.size() as isize);
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        list(ptr, layout.size());
        record(layout.size(), layout.size() as isize);
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        unlist(ptr, layout.size());
        let new = System.realloc(ptr, layout, new_size);
        // A failed realloc leaves the old block live.
        list(if new.is_null() { ptr } else { new }, new_size);
        record(new_size, new_size as isize - layout.size() as isize);
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unlist(ptr, layout.size());
        NET_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Clear both high-water marks — the largest single allocation and the
/// largest balance — and the list of large allocations, before a measured
/// region.
pub fn reset_peak() {
    PEAK_SINGLE.store(0, Ordering::Relaxed);
    PEAK_NET.store(NET_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    for table in [&LIVE, &LIVE_SIZE, &AT_PEAK] {
        table.iter().for_each(|slot| slot.store(0, Ordering::Relaxed));
    }
}

/// The sizes of the allocations of at least [`LISTED`] bytes made since the
/// last [`reset_peak`] and live when [`peak_net_bytes`] was reached, largest
/// first: what the measured region held at its high-water mark, beyond small
/// allocations. Under concurrent allocation the list is the one some thread
/// saw at the high-water mark; empty when [`TrackingAlloc`] is not
/// installed.
pub fn live_at_peak() -> Vec<usize> {
    let mut sizes: Vec<usize> =
        AT_PEAK.iter().map(|s| s.load(Ordering::Relaxed)).filter(|&s| s > 0).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
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
