//! Random-access decompression of regions of interest (paper §3.3, Table 4).
//!
//! Reconstructing an ROI needs:
//!
//! 1. **Level 1** — needed in full (the SZ3 stream is monolithic), but it
//!    is only ~1.6% of the data in the 3-level 3-D scheme. An
//!    [`crate::StzArchive`] decodes it once and keeps it, and so does a
//!    container reader for each entry: their later ROIs
//!    [resume](crate::ProgressiveDecoder::resume) from that grid, predict level 2
//!    straight from it and report `l1_sz3` as 0. A walk over any other
//!    [`crate::SectionSource`] decodes it on every call.
//! 2. **Decode** — for every finer level, only the sub-blocks whose lattice
//!    intersects the (stencil-dilated) ROI are visited, and within them only
//!    the Huffman chunks that hold a row of the ROI are entropy-decoded. A
//!    2-D slice of a 3-D grid touches only the sub-blocks matching its
//!    z-parity — 3 of 7 at the finest level, the paper's ≈57% decode saving.
//!    A 3-D box intersects every sub-block but few of their chunks: a cube
//!    of 1/64 of a 256³ volume decodes 30% of them.
//! 3. **Predict** — each level's working grid is only the box of the
//!    dilated ROI, assembled by the full decode's walk
//!    ([`crate::ProgressiveDecoder`] over boxes) from the box before it: cost and
//!    memory proportional to the ROI, not the dataset (the paper's ≈98.4%
//!    prediction saving), the last box is the answer, and the ROI is a crop
//!    of the full decode by construction.
//!
//! Every stage is timed separately so the benchmark harness can regenerate
//! Table 4's breakdown, and opens the trace spans of the full decode.

use crate::level::LevelPlan;
use stz_field::Region;

/// Per-stage breakdown of one random-access decompression, mirroring the
/// columns of the paper's Table 4.
///
/// A level's stages are on one clock: thread-seconds, each summed over the
/// units the level's decode ran on. At width 1 that is wall time; on the
/// pool the stages add up to more than it. `total` is always wall time.
#[derive(Debug, Clone, Default)]
pub struct AccessBreakdown {
    /// Seconds decompressing the level-1 SZ3 stream ("L1 SZ3"); 0 on a walk
    /// that resumed from a kept level-1 grid.
    pub l1_sz3: f64,
    /// Per finer level (index 0 = level 2): stage timings.
    pub levels: Vec<LevelTimes>,
    /// Wall-clock seconds of the walk.
    pub total: f64,
}

/// Stage timings for one finer level.
#[derive(Debug, Clone, Default)]
pub struct LevelTimes {
    /// 2-based level index.
    pub level: u8,
    /// Seconds fetching and parsing sub-block streams, and the units'
    /// seconds entropy-decoding them ("L* dec.").
    pub decode: f64,
    /// The units' other seconds, assembling the level's box row by row —
    /// predicting and applying residuals for its points ("L* pre.").
    pub predict: f64,
    /// Seconds allocating the level's box, and on the last level handing it
    /// out as the answer ("L* rec.").
    pub reconstruct: f64,
    /// Sub-blocks whose streams were (partially) decoded.
    pub decoded_blocks: usize,
    /// Sub-blocks skipped entirely (no intersection with the ROI).
    pub skipped_blocks: usize,
    /// Huffman chunks entropy-decoded within visited sub-blocks.
    pub decoded_chunks: usize,
    /// Huffman chunks skipped within visited sub-blocks — the paper's
    /// "random-access Huffman decoding" future-work item, realized via
    /// per-chunk escape counts in the stream.
    pub skipped_chunks: usize,
}

impl AccessBreakdown {
    /// Total seconds spent entropy-decoding across all levels.
    pub fn decode_total(&self) -> f64 {
        self.levels.iter().map(|l| l.decode).sum()
    }

    /// Total seconds spent predicting across all levels.
    pub fn predict_total(&self) -> f64 {
        self.levels.iter().map(|l| l.predict).sum()
    }
}

/// Shrink a region to the coarse (stride-2 origin) lattice, rounding
/// outwards: every even point of `r` maps to the result.
fn halve_region(r: &Region) -> Region {
    Region {
        z0: r.z0 / 2,
        z1: r.z1.div_ceil(2),
        y0: r.y0 / 2,
        y1: r.y1.div_ceil(2),
        x0: r.x0 / 2,
        x1: r.x1.div_ceil(2),
    }
}

/// The per-level needed regions (in each level's working-grid coordinates):
/// index `k-1` is the region of level `k`'s grid that must be reconstructed.
pub(crate) fn needed_regions(plan: &LevelPlan, region: &Region) -> Vec<Region> {
    let nlev = plan.num_levels() as usize;
    let mut needed = vec![region.clone(); nlev];
    for k in (0..nlev - 1).rev() {
        // The level-(k+2) prediction stencil reaches ±3 grid units around
        // its targets; those sources live at even coordinates of level
        // (k+2)'s grid, i.e. on level (k+1)'s grid at half coordinates.
        let finer = &needed[k + 1];
        let dilated = finer.dilate(3, plan.levels[k + 1].grid_dims);
        needed[k] = halve_region(&dilated);
    }
    needed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StzArchive, StzCompressor, StzConfig};
    use stz_field::{Dims, Field};

    fn field(dims: Dims) -> Field<f32> {
        Field::from_fn(dims, |z, y, x| {
            ((z as f32) * 0.17).sin() * ((y as f32) * 0.23).cos()
                + ((x as f32) * 0.11).sin()
                + 0.01 * (z + y) as f32
        })
    }

    /// The `region` of `field`, cut out point by point.
    fn crop(field: &Field<f32>, r: &Region) -> Field<f32> {
        let dims = r.dims(field.dims().ndim());
        Field::from_fn(dims, |z, y, x| field.get(r.z0 + z, r.y0 + y, r.x0 + x))
    }

    fn archive(dims: Dims, eb: f64) -> (Field<f32>, StzArchive<f32>) {
        let f = field(dims);
        let a = StzCompressor::new(StzConfig::three_level(eb)).compress(&f).unwrap();
        (f, a)
    }

    #[test]
    fn roi_error_bounded() {
        let (f, a) = archive(Dims::d3(20, 22, 26), 1e-2);
        let region = Region::d3(2..10, 3..15, 4..22);
        let roi = a.decompress_region(&region).unwrap();
        let orig = crop(&f, &region);
        let err = orig
            .as_slice()
            .iter()
            .zip(roi.as_slice())
            .map(|(&o, &r)| ((o as f64) - (r as f64)).abs())
            .fold(0.0, f64::max);
        assert!(err <= 1e-2);
    }

    #[test]
    fn slice_skips_blocks_box_does_not() {
        let (_, a) = archive(Dims::d3(32, 32, 32), 1e-3);
        // Even-z slice: level-3 blocks with oz = 1 are not needed -> 3 of 7.
        let (_, bd) =
            a.decompress_region_with_breakdown(&Region::slice_z(Dims::d3(32, 32, 32), 8)).unwrap();
        let l3 = &bd.levels[1];
        assert_eq!(l3.decoded_blocks, 3, "even slice decodes 3 of 7 level-3 blocks");
        assert_eq!(l3.skipped_blocks, 4);
        // Interior 3-D box: every level-3 block intersects.
        let (_, bd) = a.decompress_region_with_breakdown(&Region::d3(8..20, 8..20, 8..20)).unwrap();
        assert_eq!(bd.levels[1].decoded_blocks, 7);
        assert_eq!(bd.levels[1].skipped_blocks, 0);
    }

    #[test]
    fn odd_slice_uses_oz1_blocks() {
        let (_, a) = archive(Dims::d3(32, 32, 32), 1e-3);
        let full = a.decompress().unwrap();
        let region = Region::slice_z(Dims::d3(32, 32, 32), 9);
        let (roi, bd) = a.decompress_region_with_breakdown(&region).unwrap();
        assert_eq!(roi, crop(&full, &region));
        // Odd-z slice needs the 4 blocks with oz = 1 at level 3.
        assert_eq!(bd.levels[1].decoded_blocks, 4);
    }

    #[test]
    fn needed_regions_cover_stencils() {
        let plan = LevelPlan::new(Dims::d3(32, 32, 32), 3);
        let region = Region::d3(10..12, 10..12, 10..12);
        let needed = needed_regions(&plan, &region);
        // Finest level: the region itself.
        assert_eq!(needed[2], region);
        // Level-2 grid (16^3): region/2 dilated by stencil reach.
        assert!(needed[1].contains(5, 5, 5));
        assert!(needed[1].z0 <= 4 && needed[1].z1 >= 7);
        // Level-1 grid (8^3) must cover the level-2 stencil sources.
        assert!(needed[0].z1 <= 8);
    }

    #[test]
    fn region_outside_grid_rejected() {
        let (_, a) = archive(Dims::d3(16, 16, 16), 1e-3);
        assert!(a.decompress_region(&Region::d3(0..17, 0..4, 0..4)).is_err());
    }

    #[test]
    fn chunk_skipping_with_scattered_escapes() {
        // Escapes inside skipped chunks must not desynchronize outlier ranks
        // of escapes inside decoded chunks (random-access Huffman decoding).
        let mut f = field(Dims::d3(24, 24, 24));
        // Outliers spread across the whole volume (different level-3 blocks
        // and chunk positions).
        for (i, &(z, y, x)) in
            [(1, 1, 1), (3, 5, 7), (9, 9, 9), (15, 3, 21), (23, 23, 23)].iter().enumerate()
        {
            f.set(z, y, x, 1e30 + i as f32 * 1e28);
        }
        let a = StzCompressor::new(
            // Tiny radius forces extra escapes everywhere.
            StzConfig::three_level(1e-4).with_radius(16),
        )
        .compress(&f)
        .unwrap();
        let full = a.decompress().unwrap();
        for region in [
            Region::d3(8..12, 8..12, 8..12),
            Region::slice_z(Dims::d3(24, 24, 24), 9),
            Region::d3(20..24, 20..24, 20..24),
            Region::d3(0..24, 0..24, 0..24),
        ] {
            let roi = a.decompress_region(&region).unwrap();
            assert_eq!(roi, crop(&full, &region), "{region:?}");
        }
    }

    #[test]
    fn small_roi_skips_chunks_in_large_blocks() {
        // On a block large enough to span multiple Huffman chunks, a small
        // ROI must entropy-decode only a subset of them.
        let f = field(Dims::d3(96, 96, 96));
        let a = StzCompressor::new(StzConfig::three_level(1e-2)).compress(&f).unwrap();
        let region = Region::d3(0..4, 0..4, 0..4);
        let (_, bd) = a.decompress_region_with_breakdown(&region).unwrap();
        let finest = bd.levels.last().unwrap();
        assert!(
            finest.skipped_chunks > 0,
            "expected chunk skipping: decoded {} skipped {}",
            finest.decoded_chunks,
            finest.skipped_chunks
        );
        // And correctness still holds.
        let full = a.decompress().unwrap();
        assert_eq!(a.decompress_region(&region).unwrap(), crop(&full, &region));
    }

    #[test]
    fn escapes_astride_a_chunk_boundary_and_the_x_range() {
        // 128³: the level-3 blocks are 64³ symbols in four chunks, so block
        // rows (15, 63) and (16, 0) meet at a chunk boundary. Block (1, 1, 1)
        // holds the all-odd points: (z, y, x) of it is (2z+1, 2y+1, 2x+1).
        let dims = Dims::d3(128, 128, 128);
        let mut f = field(dims);
        let planted = [
            // The last two and first two symbols around the boundary, which
            // the regions below leave out, and one inside them on each side.
            [(15, 63, 62), (15, 63, 63), (16, 0, 0), (16, 0, 1), (15, 63, 30), (16, 0, 30)],
            // A row of the regions: just outside and just inside x = 20..45.
            [(12, 5, 19), (12, 5, 20), (12, 5, 44), (12, 5, 45), (12, 5, 46), (20, 9, 21)],
            // In the third chunk, for a region that skips the first two whole.
            [(40, 3, 25), (40, 3, 26), (40, 3, 50), (41, 0, 0), (41, 9, 44), (47, 63, 63)],
        ];
        for (i, &(z, y, x)) in planted.iter().flatten().enumerate() {
            f.set(2 * z + 1, 2 * y + 1, 2 * x + 1, 1e30 + i as f32 * 1e28);
        }
        let a = StzCompressor::new(StzConfig::three_level(1e-2)).compress(&f).unwrap();
        let full = a.decompress().unwrap();
        for region in [
            Region::d3(20..50, 0..128, 40..91),
            Region::d3(31..34, 0..128, 41..90),
            Region::d3(25..26, 11..12, 41..42),
            Region::d3(28..36, 126..128, 0..128),
            Region::d3(78..84, 0..20, 40..91),
        ] {
            let (roi, bd) = a.decompress_region_with_breakdown(&region).unwrap();
            assert_eq!(roi, crop(&full, &region), "{region:?}");
            assert!(bd.levels[1].skipped_chunks > 0, "{region:?} decodes every chunk");
        }
        let roi = a.decompress_region(&Region::d3(20..50, 0..128, 40..91)).unwrap();
        assert_eq!(roi.get(31 - 20, 127, 61 - 40), f.get(31, 127, 61));
        assert_eq!(roi.get(25 - 20, 11, 89 - 40), f.get(25, 11, 89));
    }

    #[test]
    fn breakdown_totals_are_consistent() {
        let (_, a) = archive(Dims::d3(24, 24, 24), 1e-3);
        let (_, bd) = a.decompress_region_with_breakdown(&Region::d3(0..6, 0..6, 0..6)).unwrap();
        assert!(bd.total > 0.0);
        assert!(bd.l1_sz3 > 0.0);
        assert_eq!(bd.levels.len(), 2);
        let sum = bd.l1_sz3
            + bd.decode_total()
            + bd.predict_total()
            + bd.levels.iter().map(|l| l.reconstruct).sum::<f64>();
        assert!(sum <= bd.total * 1.5, "stage sum {sum} vs total {}", bd.total);
    }
}
