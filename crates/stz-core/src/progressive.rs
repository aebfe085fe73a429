//! The one decode driver (paper §3.3, Fig. 13). [`ProgressiveDecoder`] walks
//! the hierarchy coarse-to-fine at the [`crate::pool`]'s width, holding the
//! working grid — or the box of it a region needs — between steps; full,
//! preview and ROI decodes are throw-away walks. A level's grid *is* its
//! preview: an intermediate step hands out a copy, the last the grid itself.

use crate::archive::StzArchive;
use crate::compressor::{decode_box, decode_level1};
use crate::level::LevelPlan;
use crate::random_access::{needed_regions, AccessBreakdown};
use crate::source::SectionSource;
use std::time::Instant;
use stz_codec::{CodecError, Result};
use stz_field::{Dims, Field, Region, Scalar};
use stz_telemetry::trace;

/// Stateful coarse-to-fine decoder over any [`SectionSource`] (an
/// [`StzArchive`] by default, or an out-of-core container entry). Each
/// refinement step fetches only that level's sub-block streams.
pub struct ProgressiveDecoder<'a, T: Scalar, S: SectionSource + ?Sized = StzArchive<T>> {
    source: &'a S,
    plan: LevelPlan,
    /// The box of each level's grid the walk assembles: all of it, or the
    /// share a region needs.
    boxes: Vec<Region>,
    /// The box of the last level decoded.
    grid: Vec<T>,
    /// Levels decoded so far (0 = none yet).
    decoded: u8,
    /// Stage timings of the levels decoded so far.
    breakdown: AccessBreakdown,
}

impl<'a, T: Scalar, S: SectionSource + ?Sized> ProgressiveDecoder<'a, T, S> {
    /// Start a progressive walk over `source` (nothing is read yet).
    pub fn new(source: &'a S) -> Self {
        let plan = source.plan();
        let boxes = plan.levels.iter().map(|l| Region::full(l.grid_dims)).collect();
        Self::over(source, plan, boxes)
    }

    /// A walk whose last step is `region` at full resolution: every finer
    /// level assembles only the box of `needed` its successor's stencils
    /// reach. Level 1 is one SZ3 stream, decoded whole.
    pub(crate) fn region(source: &'a S, region: &Region) -> Result<Self> {
        let dims = source.header().dims;
        if !region.fits_in(dims) {
            return Err(CodecError::corrupt(format!("region {region:?} outside grid {dims}")));
        }
        let plan = source.plan();
        let mut boxes = needed_regions(&plan, region);
        boxes[0] = Region::full(plan.levels[0].grid_dims);
        Ok(Self::over(source, plan, boxes))
    }

    fn over(source: &'a S, plan: LevelPlan, boxes: Vec<Region>) -> Self {
        let breakdown = AccessBreakdown::default();
        ProgressiveDecoder { source, plan, boxes, grid: Vec::new(), decoded: 0, breakdown }
    }

    /// Number of levels decoded so far.
    pub fn levels_decoded(&self) -> u8 {
        self.decoded
    }

    /// Whether the full resolution has been reached.
    pub fn is_complete(&self) -> bool {
        self.decoded as usize == self.boxes.len()
    }

    /// Dims of the preview the next call to [`ProgressiveDecoder::next_level`]
    /// will return, or `None` if complete.
    pub fn next_dims(&self) -> Option<Dims> {
        self.boxes.get(self.decoded as usize).map(|b| b.dims(self.source.header().dims.ndim()))
    }

    /// Additional archive bytes the next refinement needs to read.
    pub fn next_bytes(&self) -> usize {
        if self.is_complete() {
            0
        } else {
            self.source.bytes_through_level(self.decoded + 1)
                - self.source.bytes_through_level(self.decoded)
        }
    }

    /// Decode one more level and return the refined preview, or `None` if
    /// the full resolution was already reached.
    pub fn next_level(&mut self) -> Result<Option<Field<T>>> {
        if self.is_complete() {
            return Ok(None);
        }
        self.step()?;
        let grid =
            if self.is_complete() { std::mem::take(&mut self.grid) } else { self.grid.clone() };
        Ok(Some(self.field(grid)))
    }

    /// Decode through level `k`, a level not decoded yet, and hand out that
    /// preview itself: the walk ends here.
    pub fn decode_to(self, k: u8) -> Result<Field<T>> {
        self.finish(k).map(|(field, _)| field)
    }

    /// [`ProgressiveDecoder::decode_to`], with the stage timings of every
    /// level decoded (`total` is the caller's to fill in).
    pub(crate) fn finish(mut self, k: u8) -> Result<(Field<T>, AccessBreakdown)> {
        let levels = self.boxes.len();
        if !(self.decoded as usize + 1..=levels).contains(&(k as usize)) {
            return Err(CodecError::corrupt(format!(
                "requested level {k} of a {levels}-level archive"
            )));
        }
        while self.decoded < k {
            self.step()?;
        }
        let t = Instant::now();
        let grid = std::mem::take(&mut self.grid);
        let field = self.field(grid);
        if let Some(last) = self.breakdown.levels.last_mut() {
            last.reconstruct += t.elapsed().as_secs_f64();
        }
        Ok((field, self.breakdown))
    }

    /// Decode the next level's box from the last one's.
    fn step(&mut self) -> Result<()> {
        let (t, k) = (Instant::now(), self.decoded as usize);
        if k == 0 {
            let _stage = trace::span("level1");
            self.grid = decode_level1::<T, S>(self.source, &self.plan)?;
            self.breakdown.l1_sz3 = t.elapsed().as_secs_f64();
        } else {
            let level = &self.plan.levels[k];
            let mut stage = trace::span("level_decode");
            stage.attr("level", level.index);
            let (cbox, obox) = (&self.boxes[k - 1], &self.boxes[k]);
            let (grid, times) = decode_box(self.source, level, &self.grid, cbox, obox)?;
            self.grid = grid;
            self.breakdown.levels.push(times);
        }
        self.decoded += 1;
        Ok(())
    }

    /// `grid`, the box of the last level decoded, as a field.
    fn field(&self, grid: Vec<T>) -> Field<T> {
        let ndim = self.source.header().dims.ndim();
        Field::from_vec(self.boxes[self.decoded as usize - 1].dims(ndim), grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::with_threads;
    use crate::{StzCompressor, StzConfig};

    fn field() -> Field<f32> {
        Field::from_fn(Dims::d3(20, 24, 28), |z, y, x| {
            ((z as f32) * 0.2).sin() + ((y as f32) * 0.15).cos() * ((x as f32) * 0.1).sin()
        })
    }

    #[test]
    fn stepwise_matches_direct_levels() {
        let f = field();
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let mut dec = archive.progressive();
        for k in 1..=3u8 {
            assert_eq!(dec.next_dims(), Some(archive.plan().preview_dims(k)));
            let step = dec.next_level().unwrap().unwrap();
            let direct = archive.decompress_level(k).unwrap();
            assert_eq!(step, direct, "level {k}");
        }
        assert!(dec.is_complete());
        assert_eq!(dec.next_level().unwrap(), None);
    }

    #[test]
    fn decode_to_skips_intermediates() {
        let f = field();
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let p2 = archive.progressive().decode_to(2).unwrap();
        assert_eq!(p2, archive.decompress_level(2).unwrap());
        // From a decoder part-way down: the rest of the walk.
        let mut dec = archive.progressive();
        dec.next_level().unwrap();
        assert_eq!(dec.levels_decoded(), 1);
        assert_eq!(dec.decode_to(3).unwrap(), archive.decompress().unwrap());
    }

    #[test]
    fn decode_to_an_out_of_range_level_is_an_error() {
        let f = field();
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let text = |k, steps| {
            let mut dec = archive.progressive();
            for _ in 0..steps {
                dec.next_level().unwrap();
            }
            dec.decode_to(k).unwrap_err().to_string()
        };
        for (k, steps) in [(0, 0), (4, 0), (u8::MAX, 0), (0, 2), (1, 1), (2, 2), (3, 3), (4, 3)] {
            let want = format!("corrupt stream: requested level {k} of a 3-level archive");
            assert_eq!(text(k, steps), want, "level {k} after {steps} step(s)");
        }
        assert_eq!(archive.decompress_level(0).unwrap_err().to_string(), text(0, 0));
        assert_eq!(archive.decompress_level(4).unwrap_err().to_string(), text(4, 0));
    }

    #[test]
    fn next_bytes_accounts_for_level_streams() {
        let f = field();
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let mut dec = archive.progressive();
        let mut total = 0usize;
        while !dec.is_complete() {
            total += dec.next_bytes();
            dec.next_level().unwrap();
        }
        assert_eq!(total, archive.bytes_through_level(3));
        // The coarsest level must be a small fraction of the stream.
        assert!(archive.bytes_through_level(1) < archive.compressed_len() / 4);
    }

    #[test]
    fn parallel_stepping_matches_serial() {
        let f = field();
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        for threads in [1, 2, 8] {
            let (mut a, mut b) = (archive.progressive(), archive.progressive());
            while let Some(pa) = with_threads(1, || a.next_level()).unwrap() {
                let pb = with_threads(threads, || b.next_level()).unwrap().unwrap();
                assert_eq!(pa, pb, "{threads} thread(s)");
            }
            assert!(b.is_complete());
        }
    }
}
