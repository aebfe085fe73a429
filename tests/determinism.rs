//! Determinism suite: the codec's bytes at every pool width and SIMD lane.
//!
//! Archives and pipelined containers must be **byte-identical** at every
//! thread count and lane. Every decoded answer — full, preview, stepped,
//! region, into bytes, through each store — must be the reference decoder's
//! (`stz_core::reference`), byte for byte, in the identity matrix below. A
//! golden table pins the bytes of the codec this one replaced, and a level
//! broken in two blocks must fail alike on every path.

use std::sync::{Arc, Mutex, PoisonError};
use stz::core::pool::with_threads;
use stz::core::{reference, AccessBreakdown, ProgressiveDecoder};
use stz::data::synth;
use stz::prelude::*;
use stz::simd::Lane;
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

// ---------------------------------------------------------------------------
// Lane-width identity: the SIMD dispatch (ARCHITECTURE.md invariant 8).
//
// Every available `stz_simd` lane must produce byte-identical compressed
// streams and decoded fields to the scalar lane, across all five codecs and
// both element types; the identity matrix below holds STZ's every decode
// path to the reference on the scalar and the widest lane. `override_lane`
// pins the lane; these helpers always restore the previous override so the
// rest of the suite keeps its configured dispatch.
// ---------------------------------------------------------------------------

/// The lane override is process-global; serialize the lane tests so one
/// test's scalar baseline can't be computed under another's vector pin. A
/// failed test leaves it poisoned, which the others do not count.
static LANE_LOCK: Mutex<()> = Mutex::new(());

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
    let _guard = LANE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
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
// Production distributions: the bytes of the fields the benchmark compresses.
//
// The golden table's smooth fields rarely reach the regime the benchmark's
// fields live in: nearly every symbol the one-bit code, payloads that
// run-length coding collapses (nyx, warpx), or several bits a symbol with
// payloads kept raw (magrec). These pin `(archive length, CRC-32)` of STZ,
// SZ3 and MGARD on `synth`'s generators at seed 7 and a bound of 1e-3 of
// the range, as the codec before the run-aware Huffman encoder wrote them.
// Tier-1 runs them at 112^3; CI's simd-matrix job runs the 128^3 rows in
// the release profile on both lanes (`-- --ignored`).
// ---------------------------------------------------------------------------

type Pin = (usize, u32);

/// `(stz, sz3, mgard)` pins per field, at 112^3 and at 128^3.
#[rustfmt::skip]
const PRODUCTION_112: [(&str, [Pin; 3]); 3] = [
    ("nyx", [(28567, 0x6B2DB009), (17526, 0xE920E975), (20614, 0xD15F400E)]),
    ("magrec", [(716573, 0x8AEAF5AD), (663409, 0x7E416FCD), (707249, 0xCEAC7552)]),
    ("warpx", [(145852, 0x908795B0), (167201, 0xB61123C9), (168909, 0x70910FA0)]),
];
#[rustfmt::skip]
const PRODUCTION_128: [(&str, [Pin; 3]); 3] = [
    ("nyx", [(47444, 0xA389E6F3), (30289, 0x1F7EC7A1), (36546, 0x4CA93DD2)]),
    ("magrec", [(1029532, 0x884B7825), (950208, 0xEAA020E6), (1016280, 0x367F1F02)]),
    ("warpx", [(211265, 0xCE8BD8CC), (247205, 0x68932D64), (246727, 0x2EF88A83)]),
];

fn production_pins<T: Scalar + stz::backend::BackendScalar>(field: &Field<T>) -> [Pin; 3] {
    use stz::backend::{registry, ErrorBound};
    let (lo, hi) = field.value_range();
    let eb = 1e-3 * (hi - lo);
    let stz = StzCompressor::new(StzConfig::three_level(eb)).compress(field).unwrap();
    let pin = |bytes: &[u8]| (bytes.len(), crc32(bytes));
    let foreign = |name| {
        let codec = registry().by_name(name).expect("a built-in backend");
        pin(&stz::backend::compress(codec, field, &ErrorBound::Absolute(eb)).unwrap())
    };
    [pin(stz.as_bytes()), foreign("sz3"), foreign("mgard")]
}

fn assert_production_pins(n: usize, pins: &[(&str, [Pin; 3]); 3]) {
    let dims = Dims::d3(n, n, n);
    let got = std::thread::scope(|scope| {
        let magrec = scope.spawn(|| production_pins(&synth::magrec_like(dims, 7)));
        let warpx = scope.spawn(|| production_pins(&synth::warpx_like(dims, 7)));
        let nyx = production_pins(&synth::nyx_like(dims, 7));
        [nyx, magrec.join().expect("magrec pins"), warpx.join().expect("warpx pins")]
    });
    for ((name, want), got) in pins.iter().zip(got) {
        assert_eq!(got, *want, "{name} at {n}^3: (len, crc) of stz, sz3, mgard");
    }
}

#[test]
fn production_distributions_keep_their_bytes() {
    assert_production_pins(112, &PRODUCTION_112);
}

#[test]
#[ignore = "128^3 fields: run in the release profile (`-- --ignored`)"]
fn production_distributions_keep_their_bytes_at_128() {
    assert_production_pins(128, &PRODUCTION_128);
}

// ---------------------------------------------------------------------------
// The identity matrix: every way to decode an archive, against the reference.
//
// `stz_core::reference` decodes straight from FORMAT.md §5 — whole sub-block
// streams, one point at a time, with no pool, chunk window, row walk or SIMD
// kernel — so a bug the fast paths share cannot hide by staying inside the
// bound. Each `#[test]` below is a group of rows: a field, a configuration
// and the regions fetched from it. A row's cells are entry point x pool
// width x lane (the widest at every width, scalar at widths 1 and 3) x
// handle (resuming from its level-1 grid, and at width 1 a fresh one) x
// fetch (each level, the full field, a stepped walk and each region); every
// cell's answer must be the reference's, byte for byte, and the archive
// compressed in each cell the width-1 scalar one. Then the group's rows are
// entries of one container, fetched through each store.
// ---------------------------------------------------------------------------

use stz::access::{FileStoreMut, PackEntry};
use stz::codec::Result as CodecResult;
use stz::serve::{ServeOptions, Server};

fn le<T: Scalar>(field: Field<T>) -> Vec<u8> {
    let mut bytes = Vec::new();
    T::write_slice_exact(field.as_slice(), &mut bytes);
    bytes
}

/// `walk` through level `k`, finished into little-endian bytes.
fn into_le<T: Scalar>(walk: CodecResult<ProgressiveDecoder<'_, T>>, k: u8) -> CodecResult<Vec<u8>> {
    let mut out = Vec::new();
    let done = walk?.decode_to_le(k, |dims| {
        out = vec![0xA5; dims.len() * T::BYTES];
        &mut out[..]
    });
    done.map(|()| out)
}

/// The decode entry points of an archive handle.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Via {
    /// `decompress`, `decompress_level`, `decompress_region`: width 1.
    Serial,
    /// `decompress_parallel` and walks to a field, at the pool's width.
    Pool,
    /// Walks finished into little-endian bytes (`decode_to_le`), from the
    /// start or, for a stepped fetch, after one step.
    Bytes,
    /// `next_level`, one level at a time.
    Steps,
    /// A region walk that keeps no level-1 grid.
    NoMemo,
}

/// `fetch` of `a` through `via` as little-endian bytes or an error's text,
/// or `None` where the entry point serves no such fetch.
fn decode<T: Scalar>(
    a: &StzArchive<T>,
    via: Via,
    fetch: &Fetch,
) -> Option<Result<Vec<u8>, String>> {
    let last = a.num_levels();
    let got = match (via, fetch) {
        (Via::Serial, Fetch::Full) => a.decompress().map(le),
        (Via::Serial, Fetch::Level(k)) => a.decompress_level(*k).map(le),
        (Via::Serial, Fetch::Region(r)) => a.decompress_region(r).map(le),
        (Via::Pool, Fetch::Full) => a.decompress_parallel().map(le),
        (Via::Pool, Fetch::Level(k)) => a.progressive().decode_to(*k).map(le),
        (Via::Pool, Fetch::Region(r)) => {
            a.progressive_region(r).and_then(|w| w.decode_to(last)).map(le)
        }
        (Via::Bytes, Fetch::Full) => into_le(Ok(a.progressive()), last),
        (Via::Bytes, Fetch::Level(k)) => into_le(Ok(a.progressive()), *k),
        (Via::Bytes, Fetch::Region(r)) => into_le(a.progressive_region(r), last),
        (Via::NoMemo, Fetch::Region(r)) => {
            ProgressiveDecoder::<T>::region(a, r).and_then(|w| w.decode_to(last)).map(le)
        }
        (Via::Bytes, Fetch::Progressive(k)) if *k > 1 => {
            let mut walk = a.progressive();
            walk.next_level().and_then(|_| into_le(Ok(walk), *k))
        }
        (Via::Steps, Fetch::Progressive(k)) => stepped(a, *k),
        _ => return None,
    };
    Some(got.map_err(|e| e.to_string()))
}

/// A walk stepped to level `k`, in little-endian bytes: each step is the
/// size of its level, and the walk is complete after the last level.
fn stepped<T: Scalar>(a: &StzArchive<T>, k: u8) -> CodecResult<Vec<u8>> {
    let (mut steps, mut got) = (a.progressive(), None);
    for level in 1..=k {
        assert_eq!(steps.next_dims(), Some(a.plan().preview_dims(level)));
        got = steps.next_level()?.map(le);
    }
    assert_eq!(steps.is_complete(), k == a.num_levels());
    assert!(k < a.num_levels() || steps.next_level()?.is_none());
    Ok(got.expect("a level per step"))
}

/// Every fetch of a row with its answer, in little-endian bytes.
type Answers = Vec<(Fetch, Vec<u8>)>;

/// A row group: each row is checked as it is added, then stored.
struct Group {
    tag: &'static str,
    /// Each row's name, its archive and its answers.
    rows: Vec<(String, PackEntry, Answers)>,
}

impl Group {
    fn new(tag: &'static str) -> Group {
        Group { tag, rows: Vec::new() }
    }

    /// Check every cell of one row: `field` compressed under `config`,
    /// fetched at each level, whole, stepped and at `regions`.
    fn row<T: Scalar>(
        &mut self,
        field: &Field<T>,
        config: StzConfig,
        regions: &[Region],
    ) -> &mut Self
    where
        StzArchive<T>: Into<PackEntry>,
    {
        let _guard = LANE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let compressor = StzCompressor::new(config);
        let archive = with_lane(Lane::Scalar, || compressor.compress(field)).unwrap();
        let last = archive.num_levels();
        let row = format!("{} L{last} {:?} {}", field.dims(), config.interp, T::BYTES * 8);
        // Each preview is the full field's downsample (paper §3.3).
        let full = reference::decode(&archive, last).unwrap();
        let mut levels = Vec::new();
        for k in 1..last {
            levels.push(le(reference::decode(&archive, k).unwrap()));
            let want = le(full.downsample(1 << (last - k)));
            assert!(
                levels[k as usize - 1] == want,
                "{row}: level {k} is no downsample of the full"
            );
        }
        levels.push(le(full));
        let level = |k: u8| levels[k as usize - 1].clone();
        // Level `last` is the full field: the stores alone are asked for it.
        let mut answers: Answers = (1..last).map(|k| (Fetch::Level(k), level(k))).collect();
        answers.extend([(Fetch::Full, level(last)), (Fetch::Progressive(1), level(1))]);
        answers.push((Fetch::Progressive(last), level(last)));
        for r in regions {
            answers.push((Fetch::Region(r.clone()), le(reference::region(&archive, r).unwrap())));
        }
        let widest = *stz::simd::available_lanes().last().unwrap();
        // The widest lane at every width; the scalar lane serially and cut.
        let scalar = [(Lane::Scalar, 1), (Lane::Scalar, 3)];
        for (lane, threads) in WIDTHS.map(|t| (widest, t)).into_iter().chain(scalar) {
            let at = format!("{row}-bit on {lane} at {threads} thread(s)");
            with_lane(lane, || {
                with_threads(threads, || {
                    let pooled = compressor.compress_parallel(field).unwrap();
                    assert!(pooled.as_bytes() == archive.as_bytes(), "{at}: archive bytes");
                    // The serial entry points pin width 1 themselves.
                    let vias = [Via::Serial, Via::Pool, Via::Bytes, Via::Steps, Via::NoMemo];
                    for via in vias.into_iter().filter(|&v| v != Via::Serial || threads == 1) {
                        for (fetch, want) in &answers {
                            // A fresh handle decodes level 1 at width 1 alone.
                            let fresh = (threads == 1).then(|| archive.clone());
                            for (handle, a) in [("warm", Some(&archive)), ("fresh", fresh.as_ref())]
                            {
                                if let Some(got) = a.and_then(|a| decode(a, via, fetch)) {
                                    let what = format!("{fetch:?} via {via:?}, {handle} handle");
                                    assert!(got.as_deref() == Ok(&want[..]), "{at}: {what}");
                                }
                            }
                        }
                    }
                })
            });
        }
        answers.push((Fetch::Level(last), level(last)));
        self.rows.push((row, archive.into(), answers));
        self
    }

    /// Every row is one entry of a container, and each store answers each
    /// of its fetches as the reference does: a `MemStore` over the archives
    /// and a `FileStore` over the container, serially and with a pool cut,
    /// and a `RemoteStore` through a server of the container's directory.
    fn check(&self) {
        let dir =
            std::env::temp_dir().join(format!("stz_matrix_{}_{}", std::process::id(), self.tag));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rows.stzc");
        let (mut file, mut mem) = (FileStoreMut::open_path(&path).unwrap(), MemStore::new());
        for store in [&mut mem as &mut dyn StoreMut, &mut file] {
            for (i, (_, payload, _)) in self.rows.iter().enumerate() {
                store.append(&format!("row{i}"), payload.clone()).unwrap();
            }
            store.commit().unwrap();
        }
        let opts =
            ServeOptions { root: dir.clone(), addr: "127.0.0.1:0".into(), ..Default::default() };
        let server = Server::bind(opts).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.spawn().unwrap();
        let remote = open_store(&format!("stz://{addr}/rows")).unwrap();
        let file = FileStore::open_path(&path).unwrap();
        let stores: [(&str, &dyn Store, &[usize]); 3] = [
            ("MemStore", &mem, &[1, 3]),
            ("FileStore", &file, &[1, 3]),
            ("RemoteStore", &*remote, &[1]),
        ];
        for (name, store, widths) in stores {
            for ((i, (row, _, answers)), &threads) in
                self.rows.iter().enumerate().flat_map(|r| widths.iter().map(move |t| (r, t)))
            {
                let entry = store.open(&EntrySel::Name(format!("row{i}"))).unwrap();
                for (fetch, want) in answers {
                    let got = with_threads(threads, || entry.fetch(fetch)).unwrap().data;
                    assert!(got == *want, "{row}: {fetch:?} from {name} at {threads} thread(s)");
                }
            }
        }
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Three levels at the bound that gives the generator codes and escapes.
fn three<T: Scalar>() -> StzConfig {
    StzConfig::three_level(if T::BYTES == 4 { EB_F32 } else { EB_F64 })
}

/// Rows of both element types at 2-4 levels and both interpolations.
fn every_level_count_and_interpolation(tag: &'static str, rows: &[(Dims, Region)]) {
    let mut group = Group::new(tag);
    for ((dims, region), levels) in rows.iter().flat_map(|r| (2..=4u8).map(move |l| (r, l))) {
        for interp in [InterpKind::Cubic, InterpKind::Linear] {
            let cfg = |eb| StzConfig::three_level(eb).with_levels(levels).with_interp(interp);
            let regions = std::slice::from_ref(region);
            group.row(&f32_field(*dims), cfg(EB_F32), regions);
            group.row(&f64_field(*dims), cfg(EB_F64), regions);
        }
    }
    group.check();
}

#[test]
fn f32_archives_byte_identical_across_thread_counts() {
    // Odd dims exercise ragged block geometry; a Nyx-like field, clustered
    // peaks on a smooth background, a realistic one.
    let cfg = StzConfig::three_level;
    let nyx = synth::nyx_like(Dims::d3(40, 36, 44), 3);
    Group::new("f32")
        .row(&f32_field(Dims::d3(32, 28, 36)), cfg(1e-3), &[Region::d3(3..29, 1..28, 5..36)])
        .row(&f32_field(Dims::d3(17, 23, 19)), cfg(1e-2), &[Region::d3(0..17, 9..22, 1..18)])
        .row(&nyx, cfg(1e-2), &[Region::d3(8..33, 0..35, 13..44)])
        .check();
}

#[test]
fn f64_archives_byte_identical_across_thread_counts() {
    // A WarpX-like field, long in x, under a bound relative to its range.
    let warpx = synth::warpx_like(Dims::d3(16, 16, 128), 2);
    Group::new("f64")
        .row(&f64_field(Dims::d3(24, 24, 24)), three::<f64>(), &[Region::d3(5..19, 0..24, 3..8)])
        .row(&f64_field(Dims::d2(40, 36)), three::<f64>(), &[Region::d2(1..40, 7..30)])
        .row(&warpx, StzConfig::three_level_relative(1e-4), &[Region::d3(3..16, 0..11, 37..128)])
        .check();
}

#[test]
fn four_level_archives_byte_identical_across_thread_counts() {
    let cfg = |eb| StzConfig::three_level(eb).with_levels(4);
    let miranda = synth::miranda_like(Dims::d3(36, 36, 36), 4);
    Group::new("four")
        .row(&f32_field(Dims::d3(33, 31, 35)), cfg(1e-2), &[Region::d3(3..30, 0..31, 7..35)])
        .row(&miranda, cfg(1e-3), &[Region::d3(5..20, 10..30, 0..36)])
        .check();
}

#[test]
fn f32_identities_hold_at_128_cubed() {
    // Blocks of several Huffman chunks; a region at odd offsets out to the
    // far border.
    let region = [Region::d3(37..70, 5..38, 90..128)];
    Group::new("f32_128").row(&f32_field(big()), three::<f32>(), &region).check();
}

#[test]
fn f64_identities_hold_at_128_cubed() {
    let region = [Region::d3(37..70, 5..38, 90..128)];
    Group::new("f64_128").row(&f64_field(big()), three::<f64>(), &region).check();
}

#[test]
fn identities_hold_where_a_cut_falls_inside_a_chunk() {
    // 112^3: the level-3 blocks are 56^3 symbols in three chunks of 58,539,
    // which end mid-plane, so a pool's cut between units falls inside a
    // chunk and is handed off; regions start inside chunks and skip some.
    let regions = [Region::d3(13..67, 41..100, 5..111), Region::d3(57..58, 31..32, 0..112)];
    Group::new("chunky")
        .row(&f32_field(chunky()), three::<f32>(), &regions)
        .row(&f64_field(chunky()), three::<f64>(), &regions)
        .check();
}

#[test]
fn identities_hold_with_rows_astride_chunks() {
    // 106^3: the level-3 blocks are 53^3 symbols in three chunks of 49,626,
    // no multiple of a row or a plane, so rows straddle chunk boundaries, a
    // pool's unit starts inside a chunk, and a region's first row does too.
    // Escapes everywhere make the outlier rank count what the walk skips.
    let mut field = f32_field(Dims::d3(106, 106, 106));
    for i in 0..400usize {
        field.set(i * 37 % 106, i * 53 % 106, i * 71 % 106, 1e30 + i as f32 * 1e27);
    }
    let region = [Region::d3(35..106, 49..77, 3..106)];
    Group::new("astride").row(&field, three::<f32>(), &region).check();
}

#[test]
fn identities_hold_where_the_pool_cuts_rows_or_spans() {
    // Grids too thin for a unit of planes per thread, whose level-3 blocks
    // hold several Huffman chunks: the pool cuts the 4-plane field and the
    // 2-D one into rows and the 1-D one into spans of its one row, and units
    // start and end inside chunks.
    Group::new("thin")
        .row(
            &f32_field(Dims::d3(4, 621, 733)),
            three::<f32>(),
            &[Region::d3(1..4, 77..621, 5..700)],
        )
        .row(&f32_field(Dims::d2(733, 800)), three::<f32>(), &[Region::d2(301..733, 1..800)])
        .row(&f32_field(Dims::d1(1_200_001)), three::<f32>(), &[Region::d1(99_999..1_200_001)])
        .check();
}

#[test]
fn identities_hold_on_degenerate_axes() {
    // Axes of extent 1 and 2 and odd x-extents: which blocks a row of a
    // level's grid is assembled from is the plan's business, never a case of
    // its own. Every region starts at an odd coordinate where its axis has
    // one and ends on the far border.
    every_level_count_and_interpolation(
        "degenerate",
        &[
            (Dims::d3(1, 64, 64), Region::d3(0..1, 5..64, 33..64)),
            (Dims::d3(64, 1, 64), Region::d3(7..64, 0..1, 1..64)),
            (Dims::d3(64, 64, 1), Region::d3(3..64, 9..64, 0..1)),
            (Dims::d3(2, 3, 5), Region::d3(1..2, 1..3, 3..5)),
            (Dims::d3(65, 1, 1), Region::d3(31..65, 0..1, 0..1)),
        ],
    );
}

#[test]
fn identities_hold_on_border_only_geometries() {
    // Rows whose z/y stencil legs leave the grid, clamped last rows and
    // columns, blocks with no cubic interior at all.
    every_level_count_and_interpolation(
        "border",
        &[
            (Dims::d3(5, 4, 6), Region::d3(1..5, 0..3, 2..6)),
            (Dims::d3(7, 9, 11), Region::d3(2..7, 3..9, 0..10)),
            (Dims::d3(64, 3, 64), Region::d3(9..50, 0..3, 30..64)),
            (Dims::d3(37, 41, 45), Region::d3(20..37, 0..41, 31..45)),
            (Dims::d2(130, 67), Region::d3(0..1, 61..130, 3..67)),
            (Dims::d1(1000), Region::d3(0..1, 0..1, 490..1000)),
        ],
    );
}

#[test]
fn identities_hold_at_every_level_count_up_to_64_cubed() {
    every_level_count_and_interpolation(
        "levels",
        &[(big().coarsened(2), Region::d3(5..64, 17..40, 1..63))],
    );
}

#[test]
fn progressive_refinement_matches_serial_at_every_width() {
    // A small field's every region kind: slices at an even and an odd z, an
    // odd y and an odd x, the whole field, both corner points, a 2^3 box at a
    // corner, and a level-1 point that needs no block; and a region of a
    // two-level archive.
    let regions = [
        Region::d3(3..9, 5..12, 7..20),
        Region::d3(0..1, 0..24, 0..24),
        Region::d3(11..12, 0..24, 0..24),
        Region::d3(0..24, 7..8, 0..24),
        Region::d3(0..24, 0..24, 9..10),
        Region::d3(0..24, 0..24, 0..24),
        Region::d3(0..1, 0..1, 0..1),
        Region::d3(23..24, 23..24, 23..24),
        Region::d3(0..2, 22..24, 0..2),
        Region::d3(4..5, 8..9, 16..17),
    ];
    let two = [Region::d3(5..10, 0..18, 2..9)];
    Group::new("small")
        .row(&f32_field(Dims::d3(24, 24, 24)), three::<f32>(), &regions)
        .row(&f32_field(Dims::d3(18, 18, 18)), StzConfig::two_level(EB_F32), &two)
        .check();
}

#[test]
fn progressive_and_roi_byte_identical_across_lanes() {
    let region = [Region::d3(3..17, 2..19, 5..21)];
    Group::new("lanes32").row(&f32_field(Dims::d3(28, 26, 30)), three::<f32>(), &region).check();
}

#[test]
fn f64_progressive_and_roi_byte_identical_across_lanes() {
    let cfg = StzConfig::three_level(0.25);
    let region = [Region::d3(0..15, 4..18, 3..20)];
    Group::new("lanes64").row(&f64_field(Dims::d3(24, 22, 26)), cfg, &region).check();
}

#[test]
fn identities_hold_with_escapes_and_subnormal_bounds() {
    // Escapes inside and outside a region at level-3 points; huge values
    // and a quiet NaN on levels 1 and 3; signalling NaNs; bounds below the
    // smallest normal value, where nearly every point escapes.
    let mut field = f32_field(Dims::d3(16, 16, 16));
    for (z, y, x, v) in [(1, 1, 1, 1e30), (9, 9, 9, -1e30), (5, 9, 9, 2e30)] {
        field.set(z, y, x, v);
    }
    let (e32, e64) = escape_fields();
    let mut snan = f32_field(Dims::d3(12, 12, 12));
    snan.set(4, 8, 0, f32::from_bits(0x7FA0_0001));
    snan.set(5, 5, 5, f32::from_bits(0x7FA0_0001));
    let (small, odd) = ([Region::d3(3..12, 5..12, 1..12)], Dims::d3(13, 11, 9));
    let sub = [Region::d3(1..13, 2..9, 3..9)];
    Group::new("escapes")
        .row(&field, three::<f32>(), &[Region::d3(4..12, 6..12, 6..12)])
        .row(&e32, three::<f32>(), &small)
        .row(&e64, three::<f64>(), &small)
        .row(&snan, three::<f32>(), &small)
        .row(&f64_field(odd), StzConfig::three_level(1e-310), &sub)
        .row(&f32_field(odd), StzConfig::three_level(1e-40), &sub)
        .check();
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
/// which is the full decode, and `region` — as its name and stage breakdown.
fn walks<T: Scalar>(archive: &StzArchive<T>, region: &Region) -> Vec<(String, AccessBreakdown)> {
    let last = archive.num_levels();
    let level = |k| archive.progressive().decode_to_with_breakdown(k).unwrap().1;
    let mut walks: Vec<_> = (1..=last).map(|k| (format!("level {k}"), level(k))).collect();
    let walk = ProgressiveDecoder::<T>::region(archive, region).unwrap();
    walks.push(("region".to_string(), walk.decode_to_with_breakdown(last).unwrap().1));
    walks
}

/// Every walk of `region` and of the whole field decodes each chunk at every
/// width as often as the serial walk does (the identity matrix holds what
/// they decode to). Returns the serial full decode's `(level, decoded,
/// skipped)` chunk counts.
fn assert_each_chunk_decoded_once<T: Scalar>(
    field: &Field<T>,
    eb: f64,
    region: &Region,
) -> Vec<(u8, usize, usize)> {
    let archive = StzCompressor::new(StzConfig::three_level(eb)).compress(field).unwrap();
    let chunks = |b: &AccessBreakdown| -> Vec<(u8, usize, usize)> {
        b.levels.iter().map(|l| (l.level, l.decoded_chunks, l.skipped_chunks)).collect()
    };
    let serial = with_threads(1, || walks(&archive, region));
    for threads in WIDTHS {
        let pooled = with_threads(threads, || walks(&archive, region));
        for ((what, breakdown), (_, serial)) in pooled.iter().zip(&serial) {
            assert_eq!(chunks(breakdown), chunks(serial), "{what} at {threads} thread(s)");
        }
    }
    chunks(&serial[serial.len() - 2].1)
}

#[test]
fn each_chunk_is_decoded_once_at_every_width() {
    let region = Region::d3(13..67, 41..100, 5..111);
    let full = assert_each_chunk_decoded_once(&f32_field(chunky()), EB_F32, &region);
    assert_eq!(full[1], (3, 21, 0), "a full decode reads each level-3 chunk");
    assert_each_chunk_decoded_once(&f64_field(chunky()), EB_F64, &region);
    // Boxes one row thick, whose units are spans of the row.
    let row = Region::d3(57..58, 31..32, 0..112);
    assert_each_chunk_decoded_once(&f32_field(chunky()), EB_F32, &row);
    let line = Dims::d1(1_200_001);
    assert_each_chunk_decoded_once(&f32_field(line), EB_F32, &Region::d1(99_999..1_200_001));
}

#[test]
fn every_stage_of_a_pooled_walk_reads_non_negative_seconds() {
    // Stages are seconds summed over a level's pieces; on the pool they add
    // up to more than the walk's wall time, never to less than nothing.
    let archive =
        StzCompressor::new(StzConfig::three_level(EB_F32)).compress(&f32_field(chunky())).unwrap();
    let region = Region::d3(13..67, 41..100, 5..111);
    for threads in [2, 4] {
        for (what, breakdown) in with_threads(threads, || walks(&archive, &region)) {
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
        let shared = Arc::new(handle());
        let start = Arc::new(std::sync::Barrier::new(regions.len()));
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

// ---------------------------------------------------------------------------
// Error order: a level broken in two of its blocks fails on every decode path
// with the error a block-by-block decode meets first, whatever order the path
// itself reaches the blocks' chunks in. The texts were captured with the
// block-by-block decoder.
// ---------------------------------------------------------------------------

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;
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

/// The error text `call` returns on `archive` at `threads`, on a thread of
/// its own: a call that does not return within two minutes — a hand-off
/// left waiting — fails the test instead of stalling it.
fn text_by_deadline(
    archive: &Arc<StzArchive<f32>>,
    threads: usize,
    call: impl FnOnce(&StzArchive<f32>) -> String + Send + 'static,
) -> String {
    let (archive, (tx, rx)) = (archive.clone(), mpsc::channel());
    std::thread::spawn(move || tx.send(with_threads(threads, || call(&archive))));
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(text) => text,
        Err(RecvTimeoutError::Timeout) => panic!("a decode at {threads} thread(s) hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("a decode at {threads} thread(s) panicked"),
    }
}

/// The error text of every decode path that reaches level 3 of `archive`,
/// into a field or — where `bytes` — into little-endian bytes (there the
/// stepped walks are each the full decode at their width); those on the
/// pool at `threads`, and the last three walk `regions`.
fn error_texts(
    archive: &Arc<StzArchive<f32>>,
    threads: usize,
    regions: &[Region],
    bytes: bool,
) -> Vec<String> {
    let (full, step) = (Fetch::Full, Fetch::Progressive(3));
    let paths = if bytes {
        let into = |width| (Via::Bytes, &full, width);
        [into(1), into(threads), into(1), into(1), into(threads)]
    } else {
        [
            (Via::Serial, &full, 1),
            (Via::Pool, &full, threads),
            (Via::Serial, &Fetch::Level(3), 1),
            (Via::Steps, &step, 1),
            (Via::Steps, &step, threads),
        ]
    };
    let walk = if bytes { Via::Bytes } else { Via::Pool };
    let regions: Vec<_> = regions.iter().map(|r| Fetch::Region(r.clone())).collect();
    let paths = paths.into_iter().chain(regions.iter().map(|r| (walk, r, threads)));
    let text = |(via, fetch, width): (Via, &Fetch, usize)| {
        let fetch = fetch.clone();
        text_by_deadline(archive, width, move |a| decode(a, via, &fetch).unwrap().unwrap_err())
    };
    paths.map(text).collect()
}

#[test]
fn a_level_broken_in_two_blocks_fails_with_the_first_block_error_on_every_path() {
    let archive =
        StzCompressor::new(StzConfig::three_level(EB_F32)).compress(&f32_field(big())).unwrap();
    let two_chunks = Arc::new(edit_level(&archive, 3, |i, b| match i {
        5 => flip_first_chunk(b),
        2 => bad_last_escape_count(b),
        _ => b.to_vec(),
    }));
    let truncated = Arc::new(edit_level(&archive, 3, |i, b| match i {
        1 => flip_first_chunk(b),
        4 => b[..b.len() / 2].to_vec(),
        _ => b.to_vec(),
    }));
    // 112^3 at width 2: the cut between the level-3 units falls inside the
    // first chunk of the blocks of row parity (1, 0), 4 and 5, so the later
    // unit decodes it — and here fails — before handing it back.
    let archive =
        StzCompressor::new(StzConfig::three_level(EB_F32)).compress(&f32_field(chunky())).unwrap();
    let straddled = Arc::new(edit_level(&archive, 3, |i, b| match i {
        3 => flip_first_chunk(b),
        _ => b.to_vec(),
    }));
    let (escape, kraft, eof, length) = (
        "corrupt stream: chunk escape count mismatch",
        "corrupt stream: huffman table violates Kraft inequality",
        "unexpected end of input while reading length-prefixed block",
        "corrupt stream: invalid code length 171",
    );
    let regions = [
        Region::full(big()),
        Region::d3(33..128, 61..128, 3..128),
        Region::d3(1..40, 0..9, 17..120),
    ];
    let chunky_regions = [
        Region::full(chunky()),
        Region::d3(29..112, 0..112, 1..111),
        Region::d3(1..40, 0..9, 17..100),
    ];
    for threads in WIDTHS {
        let at = format!("at {threads} thread(s)");
        // Block 2's last chunk comes before block 5's first in block order;
        // the last region wants no chunk of block 2 but the first of block 5.
        let want = [escape, escape, escape, escape, escape, escape, escape, kraft];
        let texts = error_texts(&two_chunks, threads, &regions, false);
        assert_eq!(texts, want, "escape count in block 2, flip in block 5, {at}");
        let texts = error_texts(&two_chunks, threads, &regions, true);
        assert_eq!(texts, want, "the same, into bytes, {at}");
        // The second region wants none of block 1's first chunk.
        let want = [kraft, kraft, kraft, kraft, kraft, kraft, eof, kraft];
        assert_eq!(
            error_texts(&truncated, threads, &regions, false),
            want,
            "block 1 flipped, 4 cut, {at}"
        );
        assert_eq!(
            error_texts(&truncated, threads, &regions, true),
            want,
            "the same, into bytes, {at}"
        );
        let want = [length; 8];
        let texts = error_texts(&straddled, threads, &chunky_regions, false);
        assert_eq!(texts, want, "a flip in a chunk a cut straddles, {at}");
        let texts = error_texts(&straddled, threads, &chunky_regions, true);
        assert_eq!(texts, want, "the same, into bytes, {at}");
    }
}
