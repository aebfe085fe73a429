//! Property-based tests (proptest) for the core invariants:
//!
//! * every compressor is error-bounded for arbitrary fields and bounds;
//! * partition/reassembly is the identity for arbitrary dims;
//! * progressive previews equal downsampled full reconstructions;
//! * ROI decompression equals the extracted region of full decompression;
//! * Huffman blocks round-trip arbitrary symbol streams.

use proptest::prelude::*;
use stz::data::metrics;
use stz::prelude::*;
use stz_field::partition::{partition_stride2, reassemble_stride2};

/// Small random dims (kept tiny: each case runs a full compression).
fn dims_strategy() -> impl Strategy<Value = Dims> {
    (1usize..=12, 1usize..=12, 1usize..=12).prop_map(|(z, y, x)| Dims::d3(z, y, x))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stz_error_bounded(
        dims in dims_strategy(),
        seed in any::<u64>(),
        eb_exp in -4i32..-1,
        levels in 2u8..=3,
    ) {
        let eb = 10f64.powi(eb_exp);
        let f = field_from_seed(dims, seed, 1.0);
        let a = StzCompressor::new(StzConfig::three_level(eb).with_levels(levels))
            .compress(&f)
            .unwrap();
        let r = a.decompress().unwrap();
        prop_assert!(metrics::max_abs_error(&f, &r) <= eb);
    }

    #[test]
    fn sz3_error_bounded(dims in dims_strategy(), seed in any::<u64>(), eb_exp in -4i32..-1) {
        let eb = 10f64.powi(eb_exp);
        let f = field_from_seed(dims, seed, 1.0);
        let bytes = stz::sz3::compress(&f, &stz::sz3::Sz3Config::absolute(eb)).unwrap();
        let r: Field<f32> = stz::sz3::decompress(&bytes).unwrap();
        prop_assert!(metrics::max_abs_error(&f, &r) <= eb);
    }

    #[test]
    fn zfp_error_bounded(dims in dims_strategy(), seed in any::<u64>(), eb_exp in -4i32..-1) {
        let eb = 10f64.powi(eb_exp);
        let f = field_from_seed(dims, seed, 1.0);
        let bytes = stz::zfp::compress(&f, &stz::zfp::ZfpConfig::new(eb));
        let r: Field<f32> = stz::zfp::decompress(&bytes).unwrap();
        prop_assert!(metrics::max_abs_error(&f, &r) <= eb);
    }

    #[test]
    fn sperr_error_bounded(dims in dims_strategy(), seed in any::<u64>(), eb_exp in -4i32..-1) {
        let eb = 10f64.powi(eb_exp);
        let f = field_from_seed(dims, seed, 1.0);
        let bytes = stz::sperr::compress(&f, &stz::sperr::SperrConfig::new(eb));
        let r: Field<f32> = stz::sperr::decompress(&bytes).unwrap();
        prop_assert!(metrics::max_abs_error(&f, &r) <= eb * (1.0 + 1e-6));
    }

    #[test]
    fn mgard_error_bounded(dims in dims_strategy(), seed in any::<u64>(), eb_exp in -4i32..-1) {
        let eb = 10f64.powi(eb_exp);
        let f = field_from_seed(dims, seed, 1.0);
        let bytes = stz::mgard::compress(&f, &stz::mgard::MgardConfig::new(eb)).unwrap();
        let r: Field<f32> = stz::mgard::decompress(&bytes).unwrap();
        prop_assert!(metrics::max_abs_error(&f, &r) <= eb);
    }

    #[test]
    fn partition_reassemble_identity(dims in dims_strategy(), seed in any::<u64>()) {
        let f = field_from_seed(dims, seed, 100.0);
        let parts = partition_stride2(&f);
        let back = reassemble_stride2(dims, &parts);
        prop_assert_eq!(f, back);
    }

    #[test]
    fn progressive_equals_downsample(dims in dims_strategy(), seed in any::<u64>()) {
        let f = field_from_seed(dims, seed, 1.0);
        let a = StzCompressor::new(StzConfig::three_level(1e-2)).compress(&f).unwrap();
        let full = a.decompress().unwrap();
        for k in 1..=3u8 {
            let p = a.decompress_level(k).unwrap();
            prop_assert_eq!(p, full.downsample(1usize << (3 - k)));
        }
    }

    #[test]
    fn roi_equals_extracted_full(
        dims in (4usize..=12, 4usize..=12, 4usize..=12).prop_map(|(z, y, x)| Dims::d3(z, y, x)),
        seed in any::<u64>(),
        frac in (0u8..8, 0u8..8, 0u8..8),
    ) {
        let f = field_from_seed(dims, seed, 1.0);
        let a = StzCompressor::new(StzConfig::three_level(1e-2)).compress(&f).unwrap();
        let full = a.decompress().unwrap();
        // Region derived from fractions of the grid extents.
        let pick = |n: usize, k: u8| {
            let start = (n - 1) * (k as usize) / 8;
            start..(start + n.div_ceil(2)).min(n)
        };
        let region = Region::d3(
            pick(dims.nz(), frac.0),
            pick(dims.ny(), frac.1),
            pick(dims.nx(), frac.2),
        );
        prop_assert_eq!(a.decompress_region(&region).unwrap(), full.extract_region(&region));
    }

    #[test]
    fn huffman_roundtrip(symbols in proptest::collection::vec(0u32..5000, 0..4000)) {
        let block = stz::codec::huffman::encode_block(&symbols);
        prop_assert_eq!(stz::codec::huffman::decode_block(&block).unwrap(), symbols);
    }

    #[test]
    fn quantizer_bound_holds(
        actual in -1e6f64..1e6,
        pred in -1e6f64..1e6,
        eb_exp in -6i32..2,
    ) {
        let eb = 10f64.powi(eb_exp);
        let q = stz::codec::LinearQuantizer::new(eb, 1 << 15);
        if let stz::codec::QuantOutcome::Code { symbol, reconstructed } = q.quantize(actual, pred) {
            prop_assert!((reconstructed - actual).abs() <= eb);
            prop_assert_eq!(q.reconstruct(symbol, pred).to_bits(), reconstructed.to_bits());
        }
    }

    #[test]
    fn bitstream_roundtrip(fields in proptest::collection::vec((any::<u64>(), 1u32..=57), 0..200)) {
        let mut w = stz::codec::BitWriter::new();
        for &(v, n) in &fields {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            w.put(masked, n);
        }
        let bytes = w.finish();
        let mut r = stz::codec::BitReader::new(&bytes);
        for &(v, n) in &fields {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            prop_assert_eq!(r.get(n).unwrap(), masked);
        }
    }
}
