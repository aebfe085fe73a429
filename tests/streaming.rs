//! Integration tests for the streaming features on realistic workloads:
//! progressive previews, random-access regions, and serial/parallel
//! equivalence across the public API.

use stz::core::roi::{self, RoiCriterion, RoiStat};
use stz::data::synth;
use stz::prelude::*;

fn archive(dims: Dims, eb: f64, seed: u64) -> (Field<f32>, StzArchive<f32>) {
    let f = synth::nyx_like(dims, seed);
    let a = StzCompressor::new(StzConfig::three_level(eb)).compress(&f).unwrap();
    (f, a)
}

#[test]
fn preview_then_fetch_workflow() {
    // The paper's workflow: preview coarse -> select ROI -> fetch at full
    // resolution; the fetched data must exactly match a full decompression.
    let dims = Dims::d3(48, 48, 48);
    let (_, a) = archive(dims, 1e-2, 8);
    let preview = a.decompress_level(2).unwrap();
    let tiles =
        roi::select_regions(&preview, [3, 3, 3], RoiCriterion::TopPercent(RoiStat::MaxValue, 5.0));
    assert!(!tiles.is_empty());
    let full = a.decompress().unwrap();
    for tile in tiles {
        let region = roi::upscale_region(&tile, 2, dims);
        assert_eq!(a.decompress_region(&region).unwrap(), full.extract_region(&region));
    }
}

#[test]
fn progressive_bytes_fraction_matches_hierarchy() {
    // The coarsest level of a 3-level 3-D archive covers 1/64 of the points;
    // its byte share should be of the same order (not exact — entropy
    // differs per level) and far below the full archive.
    let (_, a) = archive(Dims::d3(64, 64, 64), 1e-3, 9);
    let b1 = a.bytes_through_level(1);
    let total = a.compressed_len();
    assert!(b1 * 4 < total, "level 1 is {b1} of {total} bytes");
}

#[test]
fn slice_access_decodes_fewer_blocks_than_box() {
    let (_, a) = archive(Dims::d3(48, 48, 48), 1e-2, 10);
    let dims = Dims::d3(48, 48, 48);
    let (_, slice_bd) = a.decompress_region_with_breakdown(&Region::slice_z(dims, 24)).unwrap();
    let (_, box_bd) =
        a.decompress_region_with_breakdown(&Region::d3(12..36, 12..36, 12..36)).unwrap();
    let finest_slice = slice_bd.levels.last().unwrap();
    let finest_box = box_bd.levels.last().unwrap();
    assert!(finest_slice.decoded_blocks < finest_box.decoded_blocks);
    assert_eq!(finest_box.skipped_blocks, 0);
}

#[test]
fn sperr_preview_and_mgard_levels_also_stream() {
    // Feature parity checks for the baselines' streaming modes.
    let f = synth::miranda_like(Dims::d3(32, 32, 32), 6);
    // SPERR: precision-progressive preview.
    let sperr_bytes = stz::sperr::compress(&f, &stz::sperr::SperrConfig::new(1e-4));
    let coarse: Field<f32> = stz::sperr::decompress_preview(&sperr_bytes, 8).unwrap();
    assert_eq!(coarse.dims(), f.dims());
    // MGARD: resolution-progressive levels.
    let mgard_bytes = stz::mgard::compress(&f, &stz::mgard::MgardConfig::new(1e-3)).unwrap();
    let full: Field<f32> = stz::mgard::decompress(&mgard_bytes).unwrap();
    let lvl: Field<f32> = stz::mgard::decompress_level(&mgard_bytes, 2).unwrap();
    assert!(lvl.len() < full.len());
    // ZFP: random access regions.
    let zfp_bytes = stz::zfp::compress(&f, &stz::zfp::ZfpConfig::new(1e-3));
    let zfull: Field<f32> = stz::zfp::decompress(&zfp_bytes).unwrap();
    let r = Region::d3(4..12, 8..20, 0..32);
    let zr: Field<f32> = stz::zfp::decompress_region(&zfp_bytes, &r).unwrap();
    assert_eq!(zr, zfull.extract_region(&r));
}
