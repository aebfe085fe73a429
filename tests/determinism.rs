//! Determinism suite for the multi-threaded compression runtime.
//!
//! The codec's pool (`stz_core::pool`) promises that parallel execution is
//! **byte-identical** to sequential execution at every thread count: each
//! slab is deterministic and results come back in slab order. These tests
//! pin that promise across the stack — archives, decompressions,
//! progressive refinement, and pipelined containers — for both element
//! types.

use stz::core::pool::with_threads;
use stz::core::{AccessBreakdown, ProgressiveDecoder};
use stz::prelude::*;
use stz::stream::pack_pipelined;

const WIDTHS: [usize; 5] = [1, 2, 3, 4, 8];

fn f32_field(dims: Dims) -> Field<f32> {
    Field::from_fn(dims, |z, y, x| {
        let (zf, yf, xf) = (z as f32 * 0.21, y as f32 * 0.13, x as f32 * 0.17);
        zf.sin() * yf.cos() + (xf + yf).sin() + 0.3 * zf
    })
}

fn f64_field(dims: Dims) -> Field<f64> {
    Field::from_fn(dims, |z, y, x| ((z * 3 + y * 5 + x * 7) as f64 * 0.01).sin() * 1e4)
}

fn assert_archive_deterministic<T: Scalar>(field: &Field<T>, eb: f64) {
    let compressor = StzCompressor::new(StzConfig::three_level(eb));
    let serial = compressor.compress(field).unwrap();
    for threads in WIDTHS {
        let parallel = with_threads(threads, || compressor.compress_parallel(field)).unwrap();
        assert_eq!(
            serial.as_bytes(),
            parallel.as_bytes(),
            "compress_parallel must be byte-identical to compress at {threads} thread(s)"
        );
        let restored: Field<T> = with_threads(threads, || parallel.decompress_parallel()).unwrap();
        assert_eq!(
            restored,
            serial.decompress().unwrap(),
            "decompress_parallel must match serial at {threads} thread(s)"
        );
    }
}

#[test]
fn f32_archives_byte_identical_across_thread_counts() {
    assert_archive_deterministic(&f32_field(Dims::d3(32, 28, 36)), 1e-3);
    // Odd dims exercise ragged block geometry.
    assert_archive_deterministic(&f32_field(Dims::d3(17, 23, 19)), 1e-2);
}

#[test]
fn f64_archives_byte_identical_across_thread_counts() {
    assert_archive_deterministic(&f64_field(Dims::d3(24, 24, 24)), 0.5);
    assert_archive_deterministic(&f64_field(Dims::d2(40, 36)), 0.5);
}

#[test]
fn four_level_archives_byte_identical_across_thread_counts() {
    let field = f32_field(Dims::d3(33, 31, 35));
    let compressor = StzCompressor::new(StzConfig::three_level(1e-2).with_levels(4));
    let serial = compressor.compress(&field).unwrap();
    for threads in WIDTHS {
        let parallel = with_threads(threads, || compressor.compress_parallel(&field)).unwrap();
        assert_eq!(serial.as_bytes(), parallel.as_bytes(), "{threads} thread(s)");
    }
}

#[test]
fn progressive_refinement_matches_serial_at_every_width() {
    let field = f32_field(Dims::d3(24, 24, 24));
    let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&field).unwrap();
    for threads in WIDTHS {
        let (mut serial, mut steps) = (archive.progressive(), archive.progressive());
        while let Some(expect) = with_threads(1, || serial.next_level()).unwrap() {
            let got = with_threads(threads, || steps.next_level()).unwrap().unwrap();
            assert_eq!(got, expect, "{threads} thread(s)");
        }
        assert!(steps.is_complete());
    }
}

// ---------------------------------------------------------------------------
// Lane-width identity: the SIMD dispatch (ARCHITECTURE.md invariant 8).
//
// Every available `stz_simd` lane must produce byte-identical compressed
// streams and decoded fields to the scalar reference — across all five
// codecs, both element types, and full / progressive / ROI decode paths.
// `override_lane` pins the lane; these helpers always restore the previous
// override so the rest of the suite keeps its configured dispatch.
// ---------------------------------------------------------------------------

/// The lane override is process-global; serialize the lane tests so one
/// test's scalar baseline can't be computed under another's vector pin.
static LANE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_lane<R>(lane: stz::simd::Lane, op: impl FnOnce() -> R) -> R {
    let prev = stz::simd::override_lane(Some(lane));
    let r = op();
    stz::simd::override_lane(prev);
    r
}

fn vector_lanes() -> Vec<stz::simd::Lane> {
    stz::simd::available_lanes().into_iter().filter(|&l| l != stz::simd::Lane::Scalar).collect()
}

#[test]
fn all_codecs_byte_identical_across_lanes() {
    use stz::backend::registry;
    let _guard = LANE_LOCK.lock().unwrap();
    let f32_field = f32_field(Dims::d3(20, 18, 22));
    let f64_field = f64_field(Dims::d3(16, 20, 14));
    for codec in registry().all() {
        let (b32, b64) = with_lane(stz::simd::Lane::Scalar, || {
            let b32 = codec.compress_f32(&f32_field, 1e-3).unwrap();
            let b64 = codec.compress_f64(&f64_field, 0.5).unwrap();
            (b32, b64)
        });
        let (d32, d64) = with_lane(stz::simd::Lane::Scalar, || {
            let d32: Field<f32> = codec.decompress_f32(&b32).unwrap();
            let d64: Field<f64> = codec.decompress_f64(&b64).unwrap();
            (d32, d64)
        });
        for lane in vector_lanes() {
            with_lane(lane, || {
                assert_eq!(
                    codec.compress_f32(&f32_field, 1e-3).unwrap(),
                    b32,
                    "{} f32 stream differs on {lane}",
                    codec.name()
                );
                assert_eq!(
                    codec.compress_f64(&f64_field, 0.5).unwrap(),
                    b64,
                    "{} f64 stream differs on {lane}",
                    codec.name()
                );
                let r32: Field<f32> = codec.decompress_f32(&b32).unwrap();
                let r64: Field<f64> = codec.decompress_f64(&b64).unwrap();
                assert_eq!(r32, d32, "{} f32 field differs on {lane}", codec.name());
                assert_eq!(r64, d64, "{} f64 field differs on {lane}", codec.name());
            });
        }
    }
}

#[test]
fn progressive_and_roi_byte_identical_across_lanes() {
    let _guard = LANE_LOCK.lock().unwrap();
    let field = f32_field(Dims::d3(28, 26, 30));
    let compressor = StzCompressor::new(StzConfig::three_level(1e-3));
    let archive = with_lane(stz::simd::Lane::Scalar, || compressor.compress(&field)).unwrap();
    let region = Region::d3(3..17, 2..19, 5..21);
    let (levels, roi) = with_lane(stz::simd::Lane::Scalar, || {
        let mut p = archive.progressive();
        let mut levels: Vec<Field<f32>> = Vec::new();
        while let Some(l) = p.next_level().unwrap() {
            levels.push(l);
        }
        let roi: Field<f32> = archive.decompress_region(&region).unwrap();
        (levels, roi)
    });
    for lane in vector_lanes() {
        with_lane(lane, || {
            assert_eq!(compressor.compress(&field).unwrap().as_bytes(), archive.as_bytes());
            let mut p = archive.progressive();
            for (i, expect) in levels.iter().enumerate() {
                let got = p.next_level().unwrap().unwrap();
                assert_eq!(&got, expect, "progressive level {i} differs on {lane}");
            }
            assert!(p.next_level().unwrap().is_none());
            let got: Field<f32> = archive.decompress_region(&region).unwrap();
            assert_eq!(got, roi, "ROI decode differs on {lane}");
        });
    }
}

#[test]
fn f64_progressive_and_roi_byte_identical_across_lanes() {
    let _guard = LANE_LOCK.lock().unwrap();
    let field = f64_field(Dims::d3(24, 22, 26));
    let compressor = StzCompressor::new(StzConfig::three_level(0.25));
    let archive = with_lane(stz::simd::Lane::Scalar, || compressor.compress(&field)).unwrap();
    let region = Region::d3(0..15, 4..18, 3..20);
    let (full, roi) = with_lane(stz::simd::Lane::Scalar, || {
        let full: Field<f64> = archive.decompress().unwrap();
        let roi: Field<f64> = archive.decompress_region(&region).unwrap();
        (full, roi)
    });
    for lane in vector_lanes() {
        with_lane(lane, || {
            assert_eq!(compressor.compress(&field).unwrap().as_bytes(), archive.as_bytes());
            let f: Field<f64> = archive.decompress().unwrap();
            let r: Field<f64> = archive.decompress_region(&region).unwrap();
            assert_eq!(f, full, "full decode differs on {lane}");
            assert_eq!(r, roi, "ROI decode differs on {lane}");
        });
    }
}

#[test]
fn pipelined_containers_byte_identical_across_thread_counts() {
    let compressor = StzCompressor::new(StzConfig::three_level(1e-3));
    let pack = |threads: usize| -> Vec<u8> {
        pack_pipelined(Vec::new(), (0..6u32).collect::<Vec<u32>>(), threads, |i| {
            let field = f32_field(Dims::d3(16 + i as usize % 3, 16, 16));
            Ok((format!("step{i}"), compressor.compress(&field)?.into()))
        })
        .unwrap()
    };
    let sequential = pack(1);
    for threads in [2, 4, 8] {
        assert_eq!(pack(threads), sequential, "{threads} thread(s)");
    }
}

// ---------------------------------------------------------------------------
// Golden table: the bytes of the codec this one replaced.
//
// Every identity test above compares the codec with itself (threads, lanes).
// The constants below were captured with the f64-working-grid codec (the
// parent of the typed-grid rewrite) and pin `(archive length, CRC-32 of the
// archive, CRC-32 of the decoded field's little-endian bytes)`. A change to
// the decode or encode core must reproduce them; regenerate them only in a
// change that moves the format on purpose, never beside a rewrite.
// ---------------------------------------------------------------------------

use stz::core::InterpKind;
use stz::stream::crc::crc32;

type Golden = (usize, u32, u32);

#[rustfmt::skip]
const GOLDEN: [Golden; 52] = [
    (13610, 0x75B8E592, 0xD1EFB400), // 33x31x35 L2 Cubic f32
    (14160, 0xBC15E6F5, 0x32BA7AC9), // 33x31x35 L2 Cubic f64
    (24419, 0x03B5B9E0, 0x6F922FDE), // 33x31x35 L2 Linear f32
    (26800, 0x9094CC59, 0x7C4A9358), // 33x31x35 L2 Linear f64
    (16112, 0x0A4AF4A9, 0xFE33C12C), // 33x31x35 L3 Cubic f32
    (15669, 0xE5F43B50, 0xB1546BA8), // 33x31x35 L3 Cubic f64
    (27059, 0xEFE11078, 0xE2E87D0F), // 33x31x35 L3 Linear f32
    (27219, 0x757C061F, 0x7EAC19AD), // 33x31x35 L3 Linear f64
    (16459, 0x9CFEB47A, 0x806F9C2E), // 33x31x35 L4 Cubic f32
    (15899, 0xC22EE2C6, 0x4B33CD7B), // 33x31x35 L4 Cubic f64
    (27393, 0x4DC8C3A1, 0xA5E23CD5), // 33x31x35 L4 Linear f32
    (27447, 0x84DDEBD5, 0x1983CDBE), // 33x31x35 L4 Linear f64
    (719, 0x8A355FB2, 0x5B871BA6), // 7x9x11 L2 Cubic f32
    (1004, 0xC0EC8379, 0x055E57B7), // 7x9x11 L2 Cubic f64
    (719, 0x7D7D9E48, 0xCF5E3D3C), // 7x9x11 L2 Linear f32
    (1028, 0x490B583D, 0xF544E2CB), // 7x9x11 L2 Linear f64
    (858, 0xE175DB34, 0xF8A91C27), // 7x9x11 L3 Cubic f32
    (1107, 0xD27AF1B3, 0x691B0F5B), // 7x9x11 L3 Cubic f64
    (857, 0xF3460A1B, 0xAFA61260), // 7x9x11 L3 Linear f32
    (1130, 0x8AF22FF2, 0xCCDCE8D7), // 7x9x11 L3 Linear f64
    (935, 0xAEC1D241, 0x379F1479), // 7x9x11 L4 Cubic f32
    (1184, 0x9252BF76, 0xDB1115ED), // 7x9x11 L4 Cubic f64
    (934, 0x275C2CD2, 0x459706CA), // 7x9x11 L4 Linear f32
    (1207, 0x5966008A, 0xACF84D99), // 7x9x11 L4 Linear f64
    (1243, 0x1866BD91, 0x1FBE5E34), // 40x36 L2 Cubic f32
    (1369, 0x18AD7EB4, 0x5AF16B6D), // 40x36 L2 Cubic f64
    (1697, 0xCD0A7B4F, 0xDA17F49C), // 40x36 L2 Linear f32
    (2126, 0x69BC2F41, 0x01BD9EFF), // 40x36 L2 Linear f64
    (1383, 0x7C821AD6, 0xDD2BF36C), // 40x36 L3 Cubic f32
    (1512, 0x326B7493, 0x8ACC0951), // 40x36 L3 Cubic f64
    (1840, 0xB483CC1C, 0x739B512E), // 40x36 L3 Linear f32
    (2267, 0xC2AA3569, 0x7F318CB4), // 40x36 L3 Linear f64
    (1398, 0xC6107712, 0x82D427C6), // 40x36 L4 Cubic f32
    (1553, 0xFC0BC19B, 0xA6EE689F), // 40x36 L4 Cubic f64
    (1872, 0x38750F24, 0x3E5AA856), // 40x36 L4 Linear f32
    (2327, 0x5F8B6F20, 0xFBACF09C), // 40x36 L4 Linear f64
    (206, 0x5D506672, 0x1CA04565), // 100 L2 Cubic f32
    (211, 0x88BD0E39, 0xECFE0FD0), // 100 L2 Cubic f64
    (273, 0xDBBDB328, 0xF8A5BD9E), // 100 L2 Linear f32
    (348, 0xBDB16842, 0x895BE4C2), // 100 L2 Linear f64
    (214, 0x2660E950, 0xE5FC8480), // 100 L3 Cubic f32
    (232, 0x5F890163, 0x2EA1C489), // 100 L3 Cubic f64
    (281, 0x618D179C, 0xCA667DE8), // 100 L3 Linear f32
    (373, 0x5EDA4E48, 0x6C6AA227), // 100 L3 Linear f64
    (221, 0x6155A88E, 0xA1D5A00F), // 100 L4 Cubic f32
    (248, 0x7DE2892E, 0xC26CC2D5), // 100 L4 Cubic f64
    (292, 0x99233443, 0x2F4DB61D), // 100 L4 Linear f32
    (385, 0x45F02B9C, 0xC0828D25), // 100 L4 Linear f64
    (609979, 0x02FB9123, 0x6DB63C19), // 128^3 f32
    (532286, 0x4BAD28B9, 0xE179404B), // 128^3 f64
    (2305, 0xB11C1153, 0x3E7D266E), // escapes f32
    (3066, 0xF9437A98, 0xC119D525), // escapes f64
];

/// Length and CRC-32 of the archive of the signalling-NaN field below.
const SNAN_ARCHIVE: (usize, u32) = (2376, 0x9811C374);

/// Bounds that give the two generators a healthy mix of codes and escapes.
const EB_F32: f64 = 1e-3;
const EB_F64: f64 = 0.5;

fn le_crc<T: Scalar>(field: &Field<T>) -> u32 {
    let mut bytes = Vec::new();
    T::write_slice_exact(field.as_slice(), &mut bytes);
    crc32(&bytes)
}

fn golden_of<T: Scalar>(field: &Field<T>, config: StzConfig) -> Golden {
    let archive = StzCompressor::new(config).compress(field).unwrap();
    let decoded: Field<T> = archive.decompress().unwrap();
    (archive.compressed_len(), crc32(archive.as_bytes()), le_crc(&decoded))
}

/// Fields with a huge, a hugely negative and a (quiet) NaN value planted on a
/// level-3, a level-1 and a level-3 point: all three escape.
fn escape_fields() -> (Field<f32>, Field<f64>) {
    let dims = Dims::d3(12, 12, 12);
    let (mut a, mut b) = (f32_field(dims), f64_field(dims));
    a.set(5, 5, 5, 3e30);
    a.set(0, 0, 0, -2e30);
    a.set(11, 11, 11, f32::NAN);
    b.set(5, 5, 5, 3e30);
    b.set(0, 0, 0, -2e30);
    b.set(11, 11, 11, f64::NAN);
    (a, b)
}

fn big() -> Dims {
    Dims::d3(128, 128, 128)
}

/// The rows of the golden table, in table order: four small geometries x
/// 2-4 levels x both interpolations x both element types, one 128^3 field per
/// element type (multi-chunk blocks, multi-slab parallel paths), and the
/// escape fields.
fn golden_rows() -> Vec<(String, Golden)> {
    let mut rows = Vec::new();
    for dims in [Dims::d3(33, 31, 35), Dims::d3(7, 9, 11), Dims::d2(40, 36), Dims::d1(100)] {
        for levels in 2..=4u8 {
            for interp in [InterpKind::Cubic, InterpKind::Linear] {
                let cfg = |eb| StzConfig::three_level(eb).with_levels(levels).with_interp(interp);
                let name = format!("{dims} L{levels} {interp:?}");
                rows.push((format!("{name} f32"), golden_of(&f32_field(dims), cfg(EB_F32))));
                rows.push((format!("{name} f64"), golden_of(&f64_field(dims), cfg(EB_F64))));
            }
        }
    }
    let three = StzConfig::three_level;
    rows.push(("128^3 f32".into(), golden_of(&f32_field(big()), three(EB_F32))));
    rows.push(("128^3 f64".into(), golden_of(&f64_field(big()), three(EB_F64))));
    let (e32, e64) = escape_fields();
    rows.push(("escapes f32".into(), golden_of(&e32, three(EB_F32))));
    rows.push(("escapes f64".into(), golden_of(&e64, three(EB_F64))));
    rows
}

#[test]
fn golden_table_matches_the_f64_grid_codec() {
    let rows = golden_rows();
    assert_eq!(rows.len(), GOLDEN.len());
    for ((name, got), want) in rows.iter().zip(GOLDEN) {
        assert_eq!(*got, want, "{name}: (archive len, archive crc, decoded crc)");
    }
}

#[test]
fn signalling_nan_escapes_come_back_bit_exact() {
    // The one permitted difference from the golden codec: on levels 2 and up
    // an escape is the stored `T` and now reaches the output without an
    // f32 -> f64 -> f32 round trip, which used to quiet a signalling NaN
    // (0x7FA00001 came back as 0x7FE00001). Level 1 is SZ3's stream, whose
    // decoder still works in f64 and still quiets it. The archive bytes are
    // the same either way.
    let snan = f32::from_bits(0x7FA0_0001);
    let mut field = f32_field(Dims::d3(12, 12, 12));
    field.set(4, 8, 0, snan); // level 1
    field.set(5, 5, 5, snan); // level 3
    let archive = StzCompressor::new(StzConfig::three_level(EB_F32)).compress(&field).unwrap();
    assert_eq!((archive.compressed_len(), crc32(archive.as_bytes())), SNAN_ARCHIVE);
    let back = archive.decompress().unwrap();
    assert_eq!(back.get(4, 8, 0).to_bits(), 0x7FE0_0001);
    assert_eq!(back.get(5, 5, 5).to_bits(), snan.to_bits());
    let region = Region::d3(4..8, 4..8, 4..8);
    assert_eq!(archive.decompress_region(&region).unwrap().get(1, 1, 1).to_bits(), snan.to_bits());
}

// ---------------------------------------------------------------------------
// The same identities at 128^3 — blocks of several Huffman chunks, dozens of
// z-slabs per block on the pool — and on geometries that are all border:
// rows whose z/y stencil legs leave the grid, clamped last rows and columns,
// blocks with no cubic interior at all.
// ---------------------------------------------------------------------------

fn assert_identities<T: Scalar>(field: &Field<T>, config: StzConfig, region: &Region) {
    let _guard = LANE_LOCK.lock().unwrap();
    let compressor = StzCompressor::new(config);
    let (dims, last) = (field.dims(), config.levels);
    let (archive, full, levels, roi) = with_lane(stz::simd::Lane::Scalar, || {
        let archive = compressor.compress(field).unwrap();
        let full: Field<T> = archive.decompress().unwrap();
        let levels: Vec<Field<T>> =
            (1..=last).map(|k| archive.decompress_level(k).unwrap()).collect();
        let roi: Field<T> = archive.decompress_region(region).unwrap();
        (archive, full, levels, roi)
    });
    // Previews are lattices of the full decode, the ROI a crop of it.
    for (k, level) in levels.iter().enumerate() {
        assert_eq!(level, &full.downsample(1 << (last as usize - 1 - k)), "{dims} level {}", k + 1);
    }
    assert_eq!(roi, full.extract_region(region), "{dims}");

    // Each call on a fresh handle, which decodes level 1 from its stream,
    // and on `archive`, which resumes from the level-1 grid it kept.
    let fresh = || StzArchive::<T>::from_bytes(archive.as_bytes().to_vec()).unwrap();
    let cold_and_warm = |call: &dyn Fn(&StzArchive<T>) -> Field<T>, want: &Field<T>, what| {
        assert_eq!(&call(&fresh()), want, "{dims} {what} on a fresh handle");
        assert_eq!(&call(&archive), want, "{dims} {what} on a warm handle");
    };
    let lanes = std::iter::once(stz::simd::Lane::Scalar).chain(vector_lanes());
    for lane in lanes {
        with_lane(lane, || {
            assert_eq!(compressor.compress(field).unwrap().as_bytes(), archive.as_bytes());
            cold_and_warm(&|a| a.decompress().unwrap(), &full, format!("full decode on {lane}"));
            for (k, level) in levels.iter().enumerate() {
                let k = k as u8 + 1;
                cold_and_warm(
                    &|a| a.decompress_level(k).unwrap(),
                    level,
                    format!("level {k} on {lane}"),
                );
            }
            let call = |a: &StzArchive<T>| a.decompress_region(region).unwrap();
            cold_and_warm(&call, &roi, format!("ROI on {lane}"));
        });
    }
    for threads in WIDTHS {
        with_threads(threads, || {
            let parallel = compressor.compress_parallel(field).unwrap();
            assert_eq!(parallel.as_bytes(), archive.as_bytes(), "{dims} {threads} thread(s)");
            let at = format!("at {threads} thread(s)");
            cold_and_warm(
                &|a| a.decompress_parallel().unwrap(),
                &full,
                format!("full decode {at}"),
            );
            for handle in [&fresh(), &archive] {
                let mut steps = handle.progressive();
                for (k, level) in levels.iter().enumerate() {
                    let got = steps.next_level().unwrap().unwrap();
                    assert_eq!(&got, level, "{dims} level {} {at}", k + 1);
                }
            }
            let call = |a: &StzArchive<T>| a.decompress_region_with_breakdown(region).unwrap().0;
            cold_and_warm(&call, &roi, format!("ROI {at}"));
            let walk = ProgressiveDecoder::<T>::region(&archive, region).unwrap();
            let got = walk.decode_to(archive.num_levels()).unwrap();
            assert_eq!(got, roi, "{dims} section-source ROI {at}");
        });
    }
}

#[test]
fn f32_identities_hold_at_128_cubed() {
    let region = Region::d3(37..70, 5..38, 90..128);
    assert_identities(&f32_field(big()), StzConfig::three_level(EB_F32), &region);
}

#[test]
fn f64_identities_hold_at_128_cubed() {
    let region = Region::d3(37..70, 5..38, 90..128);
    assert_identities(&f64_field(big()), StzConfig::three_level(EB_F64), &region);
}

// ---------------------------------------------------------------------------
// A decode's pieces own their blocks' streams, so every Huffman chunk is
// decoded once at every width, by one piece, wherever the chunks end.
// ---------------------------------------------------------------------------

/// 112^3: the level-3 blocks are 56^3 symbols in three chunks of 58,539,
/// which end mid-plane.
fn chunky() -> Dims {
    Dims::d3(112, 112, 112)
}

/// Every walk a reader makes of `archive` — each preview level, the last of
/// which is the full decode, and `region` — as its name, its little-endian
/// bytes and its stage breakdown.
fn walks<T: Scalar>(
    archive: &StzArchive<T>,
    region: &Region,
) -> Vec<(String, Vec<u8>, AccessBreakdown)> {
    let le = |field: Field<T>| {
        let mut bytes = Vec::new();
        T::write_slice_exact(field.as_slice(), &mut bytes);
        bytes
    };
    let last = archive.num_levels();
    let mut walks: Vec<_> = (1..=last)
        .map(|k| {
            let (field, breakdown) = archive.progressive().decode_to_with_breakdown(k).unwrap();
            (format!("level {k}"), le(field), breakdown)
        })
        .collect();
    let walk = ProgressiveDecoder::region(archive, region).unwrap();
    let (field, breakdown) = walk.decode_to_with_breakdown(last).unwrap();
    walks.push(("region".to_string(), le(field), breakdown));
    walks
}

fn assert_each_chunk_decoded_once<T: Scalar>(field: &Field<T>, eb: f64) {
    let archive = StzCompressor::new(StzConfig::three_level(eb)).compress(field).unwrap();
    let region = Region::d3(13..67, 41..100, 5..111);
    let chunks = |b: &AccessBreakdown| -> Vec<(u8, usize, usize)> {
        b.levels.iter().map(|l| (l.level, l.decoded_chunks, l.skipped_chunks)).collect()
    };
    let serial = with_threads(1, || walks(&archive, &region));
    assert_eq!(chunks(&serial[2].2)[1], (3, 21, 0), "a full decode reads each level-3 chunk");
    for threads in WIDTHS {
        let pooled = with_threads(threads, || walks(&archive, &region));
        for ((what, bytes, breakdown), (_, want, serial)) in pooled.iter().zip(&serial) {
            assert!(bytes == want, "{what} at {threads} thread(s): other bytes");
            assert_eq!(chunks(breakdown), chunks(serial), "{what} at {threads} thread(s)");
        }
    }
}

#[test]
fn each_chunk_is_decoded_once_at_every_width() {
    assert_each_chunk_decoded_once(&f32_field(chunky()), EB_F32);
    assert_each_chunk_decoded_once(&f64_field(chunky()), EB_F64);
}

#[test]
fn every_stage_of_a_pooled_walk_reads_non_negative_seconds() {
    // Stages are seconds summed over a level's pieces; on the pool they add
    // up to more than the walk's wall time, never to less than nothing.
    let archive =
        StzCompressor::new(StzConfig::three_level(EB_F32)).compress(&f32_field(chunky())).unwrap();
    let region = Region::d3(13..67, 41..100, 5..111);
    for threads in [2, 4] {
        for (what, _, breakdown) in with_threads(threads, || walks(&archive, &region)) {
            for l in &breakdown.levels {
                let stages = [l.decode, l.predict, l.reconstruct];
                assert!(
                    stages.iter().all(|&s| s >= 0.0),
                    "{what} level {} at {threads} thread(s): decode, predict, reconstruct \
                     {stages:?}",
                    l.level
                );
            }
        }
    }
}

#[test]
fn first_rois_racing_on_one_shared_handle_equal_the_serial_answers() {
    // Four threads' first calls all find the level-1 grid missing; each
    // decodes it, one is kept, and every answer is the serial one.
    let dims = Dims::d3(64, 64, 64);
    let bytes = StzCompressor::new(StzConfig::three_level(EB_F32))
        .compress(&f32_field(dims))
        .unwrap()
        .into_bytes();
    let regions = [
        Region::d3(0..16, 0..16, 0..16),
        Region::d3(21..50, 3..64, 33..40),
        Region::slice_z(dims, 31),
        Region::d3(63..64, 0..64, 1..2),
    ];
    let handle = || StzArchive::<f32>::from_bytes(bytes.clone()).unwrap();
    let serial: Vec<Field<f32>> =
        regions.iter().map(|r| handle().decompress_region(r).unwrap()).collect();
    for _ in 0..4 {
        let shared = std::sync::Arc::new(handle());
        let start = std::sync::Arc::new(std::sync::Barrier::new(regions.len()));
        let racers: Vec<_> = regions
            .iter()
            .cloned()
            .map(|region| {
                let (shared, start) = (shared.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    shared.decompress_region(&region).unwrap()
                })
            })
            .collect();
        for ((racer, want), region) in racers.into_iter().zip(&serial).zip(&regions) {
            assert_eq!(&racer.join().unwrap(), want, "{region:?}");
        }
        for (region, want) in regions.iter().zip(&serial) {
            assert_eq!(&shared.decompress_region(region).unwrap(), want, "warm {region:?}");
        }
    }
}

#[test]
fn identities_hold_with_rows_astride_chunks() {
    // 106^3: the level-3 blocks are 53^3 symbols in three chunks of 49,626,
    // no multiple of a row or a plane, so rows straddle chunk boundaries, a
    // pool's z-slab starts inside a chunk, and a region's first row does too.
    // Escapes everywhere make the outlier rank count what the walk skips.
    let dims = Dims::d3(106, 106, 106);
    let mut field = f32_field(dims);
    for i in 0..400usize {
        field.set(i * 37 % 106, i * 53 % 106, i * 71 % 106, 1e30 + i as f32 * 1e27);
    }
    let region = Region::d3(35..106, 49..77, 3..106);
    assert_identities(&field, StzConfig::three_level(EB_F32), &region);
}

#[test]
fn identities_hold_where_the_pool_cuts_rows_or_spans() {
    // Grids too thin for a slab of planes per thread, whose level-3 blocks
    // hold several Huffman chunks: the pool cuts the 4-plane field into
    // rows of a plane at 8 threads, the 2-D one into rows and the 1-D one
    // into spans of its one row, and slabs start and end inside chunks.
    for (dims, region) in [
        (Dims::d3(4, 621, 733), Region::d3(1..4, 77..621, 5..700)),
        (Dims::d2(733, 800), Region::d2(301..733, 1..800)),
        (Dims::d1(1_200_001), Region::d1(99_999..1_200_001)),
    ] {
        assert_identities(&f32_field(dims), StzConfig::three_level(EB_F32), &region);
    }
}

#[test]
fn identities_hold_on_degenerate_axes() {
    // Axes of extent 1 and 2 and odd x-extents: which blocks a row of a
    // level's grid is assembled from is the plan's business, never a case of
    // its own. Every region starts at an odd coordinate where its axis has
    // one and ends on the far border.
    for (dims, region) in [
        (Dims::d3(1, 64, 64), Region::d3(0..1, 5..64, 33..64)),
        (Dims::d3(64, 1, 64), Region::d3(7..64, 0..1, 1..64)),
        (Dims::d3(64, 64, 1), Region::d3(3..64, 9..64, 0..1)),
        (Dims::d3(2, 3, 5), Region::d3(1..2, 1..3, 3..5)),
        (Dims::d3(65, 1, 1), Region::d3(31..65, 0..1, 0..1)),
    ] {
        for levels in 2..=4u8 {
            for interp in [InterpKind::Cubic, InterpKind::Linear] {
                let cfg = |eb| StzConfig::three_level(eb).with_levels(levels).with_interp(interp);
                assert_identities(&f32_field(dims), cfg(EB_F32), &region);
                assert_identities(&f64_field(dims), cfg(EB_F64), &region);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Error order: a level broken in two of its blocks fails on every decode path
// with the error a block-by-block decode meets first, whatever order the path
// itself reaches the blocks' chunks in. The texts were captured with the
// block-by-block decoder.
// ---------------------------------------------------------------------------

use stz::codec::{ByteReader, ByteWriter};

/// A sub-block stream taken apart (FORMAT.md §5.1).
struct BlockStream {
    size: u64,
    escapes: Vec<u64>,
    chunks: Vec<Vec<u8>>,
    outliers: u64,
    outlier_bytes: Vec<u8>,
}

impl BlockStream {
    fn parse(bytes: &[u8]) -> BlockStream {
        let mut r = ByteReader::new(bytes);
        let n = r.get_uvarint().unwrap() as usize;
        let size = r.get_uvarint().unwrap();
        let escapes = (0..n).map(|_| r.get_uvarint().unwrap()).collect();
        let chunks = (0..n).map(|_| r.get_block().unwrap().to_vec()).collect();
        let outliers = r.get_uvarint().unwrap();
        let outlier_bytes = r.get_raw(r.remaining()).unwrap().to_vec();
        BlockStream { size, escapes, chunks, outliers, outlier_bytes }
    }

    fn build(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_uvarint(self.chunks.len() as u64);
        w.put_uvarint(self.size);
        self.escapes.iter().for_each(|&e| w.put_uvarint(e));
        self.chunks.iter().for_each(|c| w.put_block(c));
        w.put_uvarint(self.outliers);
        w.put_raw(&self.outlier_bytes);
        w.finish()
    }
}

/// `archive` with the block streams of `level` passed through `edit`.
fn edit_level(
    archive: &StzArchive<f32>,
    level: u8,
    edit: impl Fn(usize, &[u8]) -> Vec<u8>,
) -> StzArchive<f32> {
    let mut w = ByteWriter::new();
    w.put_raw(&archive.as_bytes()[..archive.l1_range().end]);
    for k in 2..=archive.num_levels() {
        w.put_uvarint(archive.num_blocks(k) as u64);
        for i in 0..archive.num_blocks(k) {
            let block = archive.block_bytes(k, i);
            w.put_block(&if k == level { edit(i, block) } else { block.to_vec() });
        }
    }
    StzArchive::from_bytes(w.finish()).unwrap()
}

/// A block stream with the first byte of its first chunk flipped.
fn flip_first_chunk(bytes: &[u8]) -> Vec<u8> {
    let mut stream = BlockStream::parse(bytes);
    stream.chunks[0][0] ^= 0xFF;
    stream.build()
}

/// One escape more declared for the last chunk of a block, and one outlier
/// more stored, so the block still parses.
fn bad_last_escape_count(bytes: &[u8]) -> Vec<u8> {
    let mut stream = BlockStream::parse(bytes);
    *stream.escapes.last_mut().unwrap() += 1;
    stream.outliers += 1;
    stream.outlier_bytes.extend_from_slice(&[0; 4]);
    stream.build()
}

/// The error text of every decode path that reaches level 3 of `archive`.
fn error_texts(archive: &StzArchive<f32>) -> Vec<String> {
    let text = |r: Result<Field<f32>, stz::codec::CodecError>| r.unwrap_err().to_string();
    let progressive = |threads| {
        let mut steps = archive.progressive();
        steps.next_level().unwrap();
        steps.next_level().unwrap();
        with_threads(threads, || steps.next_level()).unwrap_err().to_string()
    };
    let dims = archive.dims();
    vec![
        text(archive.decompress()),
        text(with_threads(2, || archive.decompress_parallel())),
        text(archive.decompress_level(3)),
        progressive(1),
        progressive(2),
        text(archive.decompress_region(&Region::full(dims))),
        text(archive.decompress_region(&Region::d3(33..128, 61..128, 3..128))),
        text(archive.decompress_region(&Region::d3(1..40, 0..9, 17..120))),
    ]
}

/// [`error_texts`] through the into-bytes finish, path for path (the
/// stepped walks, which hand out fields, are each the full decode at their
/// width).
fn le_error_texts(archive: &StzArchive<f32>) -> Vec<String> {
    let levels = archive.num_levels();
    let text = |walk: Result<ProgressiveDecoder<'_, f32>, _>, k| {
        let mut out = Vec::new();
        let done = walk.unwrap().decode_to_le(k, |dims| {
            out = vec![0; dims.len() * 4];
            &mut out[..]
        });
        done.unwrap_err().to_string()
    };
    let full = |threads| with_threads(threads, || text(Ok(archive.progressive()), levels));
    let region = |r: Region| with_threads(1, || text(archive.progressive_region(&r), levels));
    vec![
        full(1),
        full(2),
        full(1),
        full(1),
        full(2),
        region(Region::full(archive.dims())),
        region(Region::d3(33..128, 61..128, 3..128)),
        region(Region::d3(1..40, 0..9, 17..120)),
    ]
}

#[test]
fn a_level_broken_in_two_blocks_fails_with_the_first_block_error_on_every_path() {
    let archive =
        StzCompressor::new(StzConfig::three_level(EB_F32)).compress(&f32_field(big())).unwrap();
    let two_chunks = edit_level(&archive, 3, |i, b| match i {
        5 => flip_first_chunk(b),
        2 => bad_last_escape_count(b),
        _ => b.to_vec(),
    });
    let truncated = edit_level(&archive, 3, |i, b| match i {
        1 => flip_first_chunk(b),
        4 => b[..b.len() / 2].to_vec(),
        _ => b.to_vec(),
    });
    let (escape, kraft, eof) = (
        "corrupt stream: chunk escape count mismatch",
        "corrupt stream: huffman table violates Kraft inequality",
        "unexpected end of input while reading length-prefixed block",
    );
    // Block 2's last chunk comes before block 5's first in block order; the
    // last region wants no chunk of block 2 but the first of block 5.
    let want = [escape, escape, escape, escape, escape, escape, escape, kraft];
    assert_eq!(error_texts(&two_chunks), want, "escape count in block 2, flip in block 5");
    assert_eq!(le_error_texts(&two_chunks), want, "the same, into bytes");
    // The second region wants none of block 1's first chunk.
    let want = [kraft, kraft, kraft, kraft, kraft, kraft, eof, kraft];
    assert_eq!(error_texts(&truncated), want, "flip in block 1, block 4 truncated");
    assert_eq!(le_error_texts(&truncated), want, "the same, into bytes");
}

#[test]
fn identities_hold_on_border_only_geometries() {
    for (dims, region) in [
        (Dims::d3(5, 4, 6), Region::d3(1..5, 0..3, 2..6)),
        (Dims::d3(7, 9, 11), Region::d3(2..7, 3..9, 0..10)),
        (Dims::d3(64, 3, 64), Region::d3(9..50, 0..3, 30..64)),
        (Dims::d3(37, 41, 45), Region::d3(20..37, 0..41, 31..45)),
        (Dims::d2(130, 67), Region::d3(0..1, 61..130, 3..67)),
        (Dims::d1(1000), Region::d3(0..1, 0..1, 490..1000)),
    ] {
        for levels in 2..=4u8 {
            for interp in [InterpKind::Cubic, InterpKind::Linear] {
                let cfg = |eb| StzConfig::three_level(eb).with_levels(levels).with_interp(interp);
                assert_identities(&f32_field(dims), cfg(EB_F32), &region);
                assert_identities(&f64_field(dims), cfg(EB_F64), &region);
            }
        }
    }
}
