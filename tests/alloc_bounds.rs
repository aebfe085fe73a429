//! The structure of the codec's memory, pinned with the tracking allocator.
//!
//! `compress` predicts every level from the previous level's grid and codes
//! a block's symbols a chunk at a time, so beside its input it holds the
//! second-finest grid (an eighth of the field), two chunks of symbols per
//! block (per worker, on the pool) and the archive it builds: no finest grid.
//! `decompress` allocates its output — the finest grid *is* the decoded
//! field — and nothing larger; serially it holds no more than that, the grid
//! it predicts from and a window of two Huffman chunks per block. A region or
//! a preview holds a small multiple of what it returns. Beyond its answer, a
//! handle's first decode of any kind keeps exactly one thing, its level-1
//! grid, and a warm ROI predicts from it without copying it; a container
//! reader keeps the same grid for each entry it serves. A store's fetch
//! decodes into the buffer it returns: the answer is allocated once, and no
//! field is decoded to be copied into it.
//!
//! Every call that runs on the pool is measured at each width of `WIDTHS`,
//! so a host of any core count checks them all. A failed bound on what a
//! call held lists the allocations live at its high-water mark.
//!
//! One `#[test]` in a binary of its own: the high-water marks are global to
//! the process, and a neighbouring test would allocate under them.

use stz::core::pool::with_threads;
use stz::prelude::*;
use stz::stream::{ContainerWriter, MemorySource};
use stz_fuzz::alloc_guard;

#[global_allocator]
static ALLOC: alloc_guard::TrackingAlloc = alloc_guard::TrackingAlloc;

/// Symbols per Huffman chunk of a sub-block stream that is a multiple of it.
const CHUNK: usize = 1 << 16;

/// Pool widths: one unit, two units cut by weight (2, 3), and a 3-D level's
/// four row-parity classes (4, 8).
const WIDTHS: [usize; 5] = [1, 2, 3, 4, 8];

/// What `op` returns, the largest single allocation it makes, and the most
/// it holds at once above what was live before it.
fn peaks_of<R>(op: impl FnOnce() -> R) -> (R, usize, usize) {
    alloc_guard::reset_peak();
    let live = alloc_guard::net_bytes();
    let out = op();
    (out, alloc_guard::peak_single(), (alloc_guard::peak_net_bytes() - live) as usize)
}

/// Assert that a call `held` no more than `bound`, the sum of `terms`; a
/// failure lists the large allocations the call held at its high-water mark.
fn assert_held(what: &str, held: usize, bound: usize, terms: &str) {
    let listed = alloc_guard::live_at_peak();
    let at_least = alloc_guard::LISTED;
    assert!(
        held <= bound,
        "{what} held {held} B: {terms} = {bound} B; of {at_least} B or more: {listed:?} B"
    );
}

fn wavy(dims: Dims) -> Field<f32> {
    Field::from_fn(dims, |z, y, x| {
        let (zf, yf, xf) = (z as f32 * 0.21, y as f32 * 0.13, x as f32 * 0.17);
        zf.sin() * yf.cos() + (xf + yf).sin() + 0.3 * zf
    })
}

/// A container image holding `archive` as its one entry.
fn container(archive: &StzArchive<f32>) -> Vec<u8> {
    let mut image = Vec::new();
    let mut writer = ContainerWriter::new(&mut image).unwrap();
    writer.add_archive("e", archive).unwrap();
    writer.finish().unwrap();
    image
}

#[test]
fn compress_allocates_no_finest_grid_and_decompress_only_its_output() {
    let field = wavy(Dims::d3(96, 96, 96));
    let raw = field.len() * std::mem::size_of::<f32>();
    let compressor = StzCompressor::new(StzConfig::three_level(1e-3));

    let (serial, peak, _) = peaks_of(|| compressor.compress(&field).unwrap());
    assert!(peak > 0, "the tracking allocator is not installed");
    assert!(peak <= raw / 4, "compress: one allocation of {peak} B for {raw} B of input");
    let slack = 64 << 10;
    let (full, peak, _) = peaks_of(|| serial.decompress().unwrap());
    assert!(peak <= raw + slack, "decompress: one allocation of {peak} B for {raw} B of output");
    for threads in WIDTHS {
        let on = |what| format!("{what} at {threads} thread(s)");
        let (pooled, peak, _) =
            peaks_of(|| with_threads(threads, || compressor.compress_parallel(&field)).unwrap());
        let what = on("compress_parallel");
        assert!(peak <= raw / 4, "{what}: one allocation of {peak} B for {raw} B");
        assert_eq!(serial.as_bytes(), pooled.as_bytes(), "{what}");
        let (same, peak, _) = peaks_of(|| with_threads(threads, || serial.decompress_parallel()));
        let what = on("decompress_parallel");
        assert!(peak <= raw + slack, "{what}: one allocation of {peak} B for {raw} B");
        assert_eq!(full, same.unwrap(), "{what}");
    }

    // Level-3 blocks of 32 x 128 x 512 = 32 chunks each: an encoder that
    // holds a whole block's symbols, or scatters into a zeroed grid, holds
    // more than two chunks of all seven.
    let field = wavy(Dims::d3(64, 256, 1024));
    let raw = field.len() * std::mem::size_of::<f32>();
    let (archive, _, held) = peaks_of(|| compressor.compress(&field).unwrap());
    let sinks = 7 * 2 * CHUNK * 4;
    let bound = raw / 8 + sinks + 2 * archive.compressed_len() + slack;
    assert_held("compress", held, bound, "level-2 grid + sinks + 2 x archive");
    for threads in WIDTHS {
        let (pooled, _, held) =
            peaks_of(|| with_threads(threads, || compressor.compress_parallel(&field)));
        let what = format!("compress_parallel at {threads} thread(s)");
        // The units a 3-D level runs on: the box, two cut by weight, or the
        // four row-parity classes.
        let units = match threads {
            1 => 1,
            2 | 3 => 2,
            _ => 4,
        };
        assert_held(&what, held, bound + (units - 1) * sinks, "the serial bound + sinks per unit");
        assert_eq!(archive.as_bytes(), pooled.unwrap().as_bytes(), "{what}");
    }
    drop((field, archive));

    // Level-3 blocks of 16 x 128 x 512 = 16 chunks each: a decoder that holds
    // a whole block's symbols holds more than two chunks of all seven.
    let field = wavy(Dims::d3(32, 256, 1024));
    let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&field).unwrap();
    let raw = field.len() * std::mem::size_of::<f32>();
    let (full, _, held) = peaks_of(|| archive.decompress().unwrap());
    let bound = raw + raw / 8 + 7 * 2 * CHUNK * 4 + slack;
    assert_held("decompress", held, bound, "output + level-2 grid + windows");
    drop(full);

    // A 64^3 cube of a 128^3 field, and a level-2 preview.
    let dims = Dims::d3(128, 128, 128);
    let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&wavy(dims)).unwrap();
    let cube = Region::d3(32..96, 32..96, 32..96);
    let dilated = cube.dilate(3, dims).len() * std::mem::size_of::<f32>();
    let (_, _, held) = peaks_of(|| archive.decompress_region(&cube).unwrap());
    assert_held("a cube ROI", held, 4 * dilated, "4 x its dilated box");
    let (preview, _, held) = peaks_of(|| archive.decompress_level(2).unwrap());
    let out = preview.len() * std::mem::size_of::<f32>();
    assert_held("decompress_level(2)", held, 4 * out, "4 x its output");

    // A handle keeps its decoded level-1 grid and nothing more, whatever its
    // first decode; a warm ROI predicts from that grid and copies none of it.
    // At 192^3 the grid (48^3 f32, 432 KiB) outsizes a level-3 chunk window
    // (61,952 symbols, 242 KiB), the largest allocation of a walk that
    // decodes no level 1; at 128^3 the two are 128 and 256 KiB.
    let dims = Dims::d3(192, 192, 192);
    let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&wavy(dims)).unwrap();
    let l1 = archive.plan().levels[0].grid_dims.len() * std::mem::size_of::<f32>();
    let small = Region::d3(88..104, 88..104, 88..104);
    type Decode = fn(&StzArchive<f32>, &Region);
    let firsts: [(&str, Decode); 2] = [
        ("a full decode", |a, _| drop(a.decompress().unwrap())),
        ("a cold ROI", |a, region| drop(a.decompress_region(region).unwrap())),
    ];
    for (first, decode) in firsts {
        let handle = StzArchive::<f32>::from_bytes(archive.as_bytes().to_vec()).unwrap();
        let before = alloc_guard::net_bytes();
        let (_, peak, _) = peaks_of(|| decode(&handle, &small));
        assert!(peak >= l1, "{first} decodes level 1: one allocation of {peak} B, grid {l1} B");
        let kept = (alloc_guard::net_bytes() - before) as usize;
        assert!(
            (l1..=l1 + slack).contains(&kept),
            "after {first} the handle holds {kept} B more, its level-1 grid is {l1} B"
        );
        let (roi, peak, _) = peaks_of(|| handle.decompress_region(&small).unwrap());
        assert!(peak < l1, "a warm ROI made an allocation of {peak} B, the grid is {l1} B");
        assert_eq!(roi, archive.decompress_region(&small).unwrap());
    }

    // So does an out-of-core reader, for each entry: a file store's first
    // fetch keeps the entry's level-1 grid in the reader, and a warm ROI
    // reads, checks and decodes no level-1 stream, and copies no grid.
    let image = container(&archive);
    let mut want = Vec::new();
    f32::write_slice_exact(archive.decompress_region(&small).unwrap().as_slice(), &mut want);
    let region = Fetch::Region(small);
    let firsts = [("a full fetch", &Fetch::Full), ("a cold ROI", &region)];
    for ((first, fetch), threads) in firsts.iter().flat_map(|f| WIDTHS.map(|t| (f, t))) {
        let store = FileStore::open_source(MemorySource::new(image.clone()), "image").unwrap();
        let entry = store.open(&EntrySel::Index(0)).unwrap();
        let get = |fetch| with_threads(threads, || entry.fetch(fetch)).unwrap();
        let first = format!("{first} at {threads} thread(s)");
        let before = alloc_guard::net_bytes();
        let (_, peak, _) = peaks_of(|| drop(get(fetch)));
        assert!(peak >= l1, "{first} decodes level 1: one allocation of {peak} B, grid {l1} B");
        let kept = (alloc_guard::net_bytes() - before) as usize;
        assert!(
            (l1..=l1 + slack).contains(&kept),
            "after {first} the reader holds {kept} B more, the entry's level-1 grid is {l1} B"
        );
        let (roi, peak, _) = peaks_of(|| get(&region));
        assert!(peak < l1, "a warm ROI made an allocation of {peak} B, the grid is {l1} B");
        assert!(roi.data == want, "after {first}, a warm ROI's bytes are the cold answer's");
    }

    // A file store's full fetch decodes straight into the bytes it returns:
    // its largest allocation is the answer, and beside the answer it holds,
    // while the finest level decodes, the level-2 grid, a window on each of
    // the seven level-3 blocks (48^3 points: chunks of 55,296 symbols) and
    // the streams it read — not a decoded field and then a copy of it, which
    // is twice the answer.
    let dims = Dims::d3(96, 96, 96);
    let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&wavy(dims)).unwrap();
    let image = container(&archive);
    let payload = dims.len() * std::mem::size_of::<f32>();
    let windows = 7 * 55_296 * 4;
    let bound = payload + payload / 8 + windows + archive.compressed_len() + slack;
    let mut want = Vec::new();
    f32::write_slice_exact(archive.decompress().unwrap().as_slice(), &mut want);
    for threads in WIDTHS {
        // A store of its own: the first fetch decodes level 1 too.
        let store = FileStore::open_source(MemorySource::new(image.clone()), "image").unwrap();
        let entry = store.open(&EntrySel::Index(0)).unwrap();
        let (fetched, peak, held) =
            peaks_of(|| with_threads(threads, || entry.fetch(&Fetch::Full)).unwrap());
        let what = format!("a full fetch at {threads} thread(s)");
        assert_eq!(peak, payload, "{what}: the largest allocation, for {payload} B of answer");
        assert_held(&what, held, bound, "answer + level-2 grid + windows");
        assert!(fetched.data == want, "{what}: the bytes are the decoded field's");
    }
}
