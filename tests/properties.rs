//! Property tests for the core invariants, each a seeded loop of cases
//! (`stz_fuzz::rng::property`: the generator is seeded with the test's name):
//!
//! * every compressor is error-bounded for arbitrary fields and bounds;
//! * partition/reassembly is the identity for arbitrary dims;
//! * progressive previews equal downsampled full reconstructions;
//! * ROI decompression equals the extracted region of full decompression;
//! * Huffman blocks round-trip arbitrary symbol streams.

use stz::data::metrics;
use stz::prelude::*;
use stz_field::partition::{partition_stride2, reassemble_stride2};
use stz_fuzz::rng::{property, FuzzRng};

/// Cases per property.
const CASES: usize = 24;

/// Small random dims, each axis in `lo..=hi` (kept tiny: each case runs a
/// full compression).
fn dims_in(rng: &mut FuzzRng, lo: i64, hi: i64) -> Dims {
    let mut axis = || rng.range(lo, hi) as usize;
    Dims::d3(axis(), axis(), axis())
}

/// Dims of 1..=12 per axis, a field seed and a bound's exponent in -4..-1.
fn field_case(rng: &mut FuzzRng) -> (Dims, u64, i32) {
    (dims_in(rng, 1, 12), rng.next_u64(), rng.range(-4, -2) as i32)
}

/// A deterministic pseudo-random field from a seed.
fn field_from_seed(dims: Dims, seed: u64, amplitude: f64) -> Field<f32> {
    Field::from_fn(dims, |z, y, x| {
        let h = stz::data::synth::noise::hash64(
            seed ^ ((z as u64) << 40) ^ ((y as u64) << 20) ^ (x as u64),
        );
        ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32 * amplitude as f32
            + ((z + y + x) as f32 * 0.1).sin()
    })
}

#[test]
fn stz_error_bounded() {
    let draw = |rng: &mut FuzzRng| (field_case(rng), rng.range(2, 3) as u8);
    property("stz_error_bounded", CASES, draw, |&((dims, seed, eb_exp), levels)| {
        let eb = 10f64.powi(eb_exp);
        let f = field_from_seed(dims, seed, 1.0);
        let a = StzCompressor::new(StzConfig::three_level(eb).with_levels(levels))
            .compress(&f)
            .unwrap();
        let r = a.decompress().unwrap();
        assert!(metrics::max_abs_error(&f, &r) <= eb);
    });
}

/// `roundtrip` of a field at a bound keeps every point within `eb * slack`.
fn bounded(name: &str, slack: f64, roundtrip: impl Fn(&Field<f32>, f64) -> Field<f32>) {
    property(name, CASES, field_case, |&(dims, seed, eb_exp)| {
        let eb = 10f64.powi(eb_exp);
        let f = field_from_seed(dims, seed, 1.0);
        assert!(metrics::max_abs_error(&f, &roundtrip(&f, eb)) <= eb * slack);
    });
}

#[test]
fn sz3_error_bounded() {
    bounded("sz3_error_bounded", 1.0, |f, eb| {
        let bytes = stz::sz3::compress(f, &stz::sz3::Sz3Config::absolute(eb)).unwrap();
        stz::sz3::decompress(&bytes).unwrap()
    });
}

#[test]
fn zfp_error_bounded() {
    bounded("zfp_error_bounded", 1.0, |f, eb| {
        stz::zfp::decompress(&stz::zfp::compress(f, &stz::zfp::ZfpConfig::new(eb))).unwrap()
    });
}

#[test]
fn sperr_error_bounded() {
    bounded("sperr_error_bounded", 1.0 + 1e-6, |f, eb| {
        stz::sperr::decompress(&stz::sperr::compress(f, &stz::sperr::SperrConfig::new(eb))).unwrap()
    });
}

#[test]
fn mgard_error_bounded() {
    bounded("mgard_error_bounded", 1.0, |f, eb| {
        let bytes = stz::mgard::compress(f, &stz::mgard::MgardConfig::new(eb)).unwrap();
        stz::mgard::decompress(&bytes).unwrap()
    });
}

#[test]
fn partition_reassemble_identity() {
    let draw = |rng: &mut FuzzRng| (dims_in(rng, 1, 12), rng.next_u64());
    property("partition_reassemble_identity", CASES, draw, |&(dims, seed)| {
        let f = field_from_seed(dims, seed, 100.0);
        let parts = partition_stride2(&f);
        let back = reassemble_stride2(dims, &parts);
        assert_eq!(f, back);
    });
}

#[test]
fn progressive_equals_downsample() {
    let draw = |rng: &mut FuzzRng| (dims_in(rng, 1, 12), rng.next_u64(), rng.range(2, 4) as u8);
    property("progressive_equals_downsample", CASES, draw, |&(dims, seed, levels)| {
        let f = field_from_seed(dims, seed, 1.0);
        let a = StzCompressor::new(StzConfig::three_level(1e-2).with_levels(levels))
            .compress(&f)
            .unwrap();
        let full = a.decompress().unwrap();
        for k in 1..=levels {
            let p = a.decompress_level(k).unwrap();
            assert_eq!(p, full.downsample(1usize << (levels - k)), "level {k}");
        }
    });
}

#[test]
fn roi_equals_extracted_full() {
    let draw = |rng: &mut FuzzRng| {
        let mut frac = || rng.below(8) as usize;
        let frac = (frac(), frac(), frac());
        (dims_in(rng, 4, 12), rng.next_u64(), frac)
    };
    property("roi_equals_extracted_full", CASES, draw, |&(dims, seed, frac)| {
        let f = field_from_seed(dims, seed, 1.0);
        let a = StzCompressor::new(StzConfig::three_level(1e-2)).compress(&f).unwrap();
        let full = a.decompress().unwrap();
        // Region derived from fractions of the grid extents.
        let pick = |n: usize, k: usize| {
            let start = (n - 1) * k / 8;
            start..(start + n.div_ceil(2)).min(n)
        };
        let region =
            Region::d3(pick(dims.nz(), frac.0), pick(dims.ny(), frac.1), pick(dims.nx(), frac.2));
        assert_eq!(a.decompress_region(&region).unwrap(), full.extract_region(&region));
    });
}

#[test]
fn huffman_roundtrip() {
    let draw = |rng: &mut FuzzRng| {
        let len = rng.below(4000);
        (0..len).map(|_| rng.below(5000) as u32).collect::<Vec<_>>()
    };
    property("huffman_roundtrip", CASES, draw, |symbols| {
        let block = stz::codec::huffman::encode_block(symbols);
        assert_eq!(&stz::codec::huffman::decode_block(&block).unwrap(), symbols);
    });
}

#[test]
fn quantizer_bound_holds() {
    use stz::codec::{LinearQuantizer, QuantOutcome};
    const RADIUS: i64 = 1 << 15;
    const CASES: usize = 1024;
    // `pred` lies within 1.2 radii of steps of `actual`: about five cases in
    // six are coded, and the rest lie beyond the radius and must escape.
    let draw = |rng: &mut FuzzRng| {
        let (actual, eb_exp) = (rng.uniform(-1e6, 1e6), rng.range(-6, 1) as i32);
        let reach = 1.2 * RADIUS as f64 * 2.0 * 10f64.powi(eb_exp);
        (actual, actual + rng.uniform(-reach, reach), eb_exp)
    };
    let coded = std::cell::Cell::new(0);
    property("quantizer_bound_holds", CASES, draw, |&(actual, pred, eb_exp)| {
        let eb = 10f64.powi(eb_exp);
        let q = LinearQuantizer::new(eb, RADIUS);
        let beyond = (actual - pred).abs() > (RADIUS as f64 + 0.5) * 2.0 * eb;
        if let QuantOutcome::Code { symbol, reconstructed } = q.quantize(actual, pred) {
            assert!(!beyond, "a difference beyond the radius was coded");
            assert!((reconstructed - actual).abs() <= eb);
            assert_eq!(q.reconstruct(symbol, pred).to_bits(), reconstructed.to_bits());
            coded.set(coded.get() + 1);
        }
    });
    let coded = coded.get();
    assert!(coded * 5 >= CASES * 4, "only {coded} of {CASES} cases were coded");
}

#[test]
fn bitstream_roundtrip() {
    let draw = |rng: &mut FuzzRng| {
        let len = rng.below(200);
        (0..len).map(|_| (rng.next_u64(), rng.range(1, 57) as u32)).collect::<Vec<_>>()
    };
    property("bitstream_roundtrip", CASES, draw, |fields| {
        let mut w = stz::codec::BitWriter::new();
        for &(v, n) in fields {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            w.put(masked, n);
        }
        let bytes = w.finish();
        let mut r = stz::codec::BitReader::new(&bytes);
        for &(v, n) in fields {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            assert_eq!(r.get(n).unwrap(), masked);
        }
    });
}
