//! The structure of the codec's memory, pinned with the tracking allocator.
//!
//! `compress` predicts every level from the previous level's grid, so the
//! largest thing it ever holds beside its input is the second-finest grid
//! (an eighth of the field) or one block's symbols (`u32` per point of an
//! eighth of the field): no finest-level working grid, serial or on the pool.
//! `decompress` allocates its output — the finest grid *is* the decoded
//! field — and nothing larger.
//!
//! One `#[test]` in a binary of its own: the high-water mark is global to
//! the process, and a neighbouring test would allocate under it.

use stz::prelude::*;

#[global_allocator]
static ALLOC: stz_fuzz::alloc_guard::TrackingAlloc = stz_fuzz::alloc_guard::TrackingAlloc;

/// Largest single allocation `op` makes.
fn peak_of<R>(op: impl FnOnce() -> R) -> (R, usize) {
    stz_fuzz::alloc_guard::reset_peak();
    let out = op();
    (out, stz_fuzz::alloc_guard::peak_single())
}

#[test]
fn compress_allocates_no_finest_grid_and_decompress_only_its_output() {
    let field = Field::<f32>::from_fn(Dims::d3(96, 96, 96), |z, y, x| {
        let (zf, yf, xf) = (z as f32 * 0.21, y as f32 * 0.13, x as f32 * 0.17);
        zf.sin() * yf.cos() + (xf + yf).sin() + 0.3 * zf
    });
    let raw = field.len() * std::mem::size_of::<f32>();
    let compressor = StzCompressor::new(StzConfig::three_level(1e-3));

    let (serial, peak) = peak_of(|| compressor.compress(&field).unwrap());
    assert!(peak > 0, "the tracking allocator is not installed");
    assert!(peak <= raw / 4, "compress: one allocation of {peak} B for {raw} B of input");
    let (pooled, peak) = peak_of(|| compressor.compress_parallel(&field).unwrap());
    assert!(peak <= raw / 4, "compress_parallel: one allocation of {peak} B for {raw} B");
    assert_eq!(serial.as_bytes(), pooled.as_bytes());

    let slack = 64 << 10;
    let (full, peak) = peak_of(|| serial.decompress().unwrap());
    assert!(peak <= raw + slack, "decompress: one allocation of {peak} B for {raw} B of output");
    let (same, peak) = peak_of(|| serial.decompress_parallel().unwrap());
    assert!(peak <= raw + slack, "decompress_parallel: one allocation of {peak} B for {raw} B");
    assert_eq!(full, same);
}
