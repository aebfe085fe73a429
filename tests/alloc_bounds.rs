//! The structure of the codec's memory, pinned with the tracking allocator.
//!
//! `compress` predicts every level from the previous level's grid, so the
//! largest thing it ever holds beside its input is the second-finest grid
//! (an eighth of the field) or one block's symbols (`u32` per point of an
//! eighth of the field): no finest-level working grid, serial or on the pool.
//! `decompress` allocates its output — the finest grid *is* the decoded
//! field — and nothing larger; serially it holds no more than that, the grid
//! it predicts from and a window of two Huffman chunks per block. A region or
//! a preview holds a small multiple of what it returns.
//!
//! One `#[test]` in a binary of its own: the high-water marks are global to
//! the process, and a neighbouring test would allocate under them.

use stz::prelude::*;
use stz_fuzz::alloc_guard;

#[global_allocator]
static ALLOC: alloc_guard::TrackingAlloc = alloc_guard::TrackingAlloc;

/// Symbols per Huffman chunk of a sub-block stream that is a multiple of it.
const CHUNK: usize = 1 << 16;

/// What `op` returns, the largest single allocation it makes, and the most
/// it holds at once above what was live before it.
fn peaks_of<R>(op: impl FnOnce() -> R) -> (R, usize, usize) {
    alloc_guard::reset_peak();
    let live = alloc_guard::net_bytes();
    let out = op();
    (out, alloc_guard::peak_single(), (alloc_guard::peak_net_bytes() - live) as usize)
}

fn wavy(dims: Dims) -> Field<f32> {
    Field::from_fn(dims, |z, y, x| {
        let (zf, yf, xf) = (z as f32 * 0.21, y as f32 * 0.13, x as f32 * 0.17);
        zf.sin() * yf.cos() + (xf + yf).sin() + 0.3 * zf
    })
}

#[test]
fn compress_allocates_no_finest_grid_and_decompress_only_its_output() {
    let field = wavy(Dims::d3(96, 96, 96));
    let raw = field.len() * std::mem::size_of::<f32>();
    let compressor = StzCompressor::new(StzConfig::three_level(1e-3));

    let (serial, peak, _) = peaks_of(|| compressor.compress(&field).unwrap());
    assert!(peak > 0, "the tracking allocator is not installed");
    assert!(peak <= raw / 4, "compress: one allocation of {peak} B for {raw} B of input");
    let (pooled, peak, _) = peaks_of(|| compressor.compress_parallel(&field).unwrap());
    assert!(peak <= raw / 4, "compress_parallel: one allocation of {peak} B for {raw} B");
    assert_eq!(serial.as_bytes(), pooled.as_bytes());

    let slack = 64 << 10;
    let (full, peak, _) = peaks_of(|| serial.decompress().unwrap());
    assert!(peak <= raw + slack, "decompress: one allocation of {peak} B for {raw} B of output");
    let (same, peak, _) = peaks_of(|| serial.decompress_parallel().unwrap());
    assert!(peak <= raw + slack, "decompress_parallel: one allocation of {peak} B for {raw} B");
    assert_eq!(full, same);

    // Level-3 blocks of 16 x 128 x 512 = 16 chunks each: a decoder that holds
    // a whole block's symbols holds more than two chunks of all seven.
    let field = wavy(Dims::d3(32, 256, 1024));
    let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&field).unwrap();
    let raw = field.len() * std::mem::size_of::<f32>();
    let (full, _, held) = peaks_of(|| archive.decompress().unwrap());
    let bound = raw + raw / 8 + 7 * 2 * CHUNK * 4 + slack;
    assert!(held <= bound, "decompress held {held} B: output + level-2 grid + windows = {bound} B");
    drop(full);

    // A 64^3 cube of a 128^3 field, and a level-2 preview.
    let dims = Dims::d3(128, 128, 128);
    let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&wavy(dims)).unwrap();
    let cube = Region::d3(32..96, 32..96, 32..96);
    let dilated = cube.dilate(3, dims).len() * std::mem::size_of::<f32>();
    let (_, _, held) = peaks_of(|| archive.decompress_region(&cube).unwrap());
    assert!(held <= 4 * dilated, "a cube ROI held {held} B for a dilated box of {dilated} B");
    let (preview, _, held) = peaks_of(|| archive.decompress_level(2).unwrap());
    let out = preview.len() * std::mem::size_of::<f32>();
    assert!(held <= 4 * out, "decompress_level(2) held {held} B for {out} B of output");
}
