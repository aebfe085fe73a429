//! Incremental progressive decompression (paper §3.3, Fig. 13).
//!
//! [`ProgressiveDecoder`] walks the hierarchy coarse-to-fine, holding the
//! current working grid between steps so refining to the next resolution
//! costs only that level's decode — the total cost of walking all levels
//! equals one full decompression. A level's working grid *is* its preview,
//! so an intermediate step hands out a copy of the grid it keeps and the
//! last step hands out the grid itself.

use crate::archive::StzArchive;
use crate::compressor::{decode_level1, decode_level_grid};
use crate::source::SectionSource;
use stz_codec::Result;
use stz_field::{Dims, Field, Scalar};

/// Stateful coarse-to-fine decoder over any [`SectionSource`] (an
/// [`StzArchive`] by default, or an out-of-core container entry). Each
/// refinement step fetches only that level's sub-block streams.
pub struct ProgressiveDecoder<'a, T: Scalar, S: SectionSource + ?Sized = StzArchive<T>> {
    source: &'a S,
    plan: crate::level::LevelPlan,
    grid: Option<Field<T>>,
    /// Levels decoded so far (0 = none yet).
    decoded: u8,
    parallel: bool,
}

impl<'a, T: Scalar, S: SectionSource + ?Sized> ProgressiveDecoder<'a, T, S> {
    /// Start a progressive walk over `source` (nothing is read yet).
    pub fn new(source: &'a S) -> Self {
        ProgressiveDecoder { source, plan: source.plan(), grid: None, decoded: 0, parallel: false }
    }

    /// Run each refinement step on the [`crate::pool`] threads.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Number of levels decoded so far.
    pub fn levels_decoded(&self) -> u8 {
        self.decoded
    }

    /// Whether the full resolution has been reached.
    pub fn is_complete(&self) -> bool {
        self.decoded == self.source.num_levels()
    }

    /// Dims of the preview the next call to [`ProgressiveDecoder::next_level`]
    /// will return, or `None` if complete.
    pub fn next_dims(&self) -> Option<Dims> {
        if self.is_complete() {
            None
        } else {
            Some(self.plan.preview_dims(self.decoded + 1))
        }
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
        let grid = match self.grid.take() {
            None => decode_level1::<T, S>(self.source, &self.plan)?,
            Some(prev) => decode_level_grid::<T, S>(
                self.source,
                &self.plan,
                self.decoded + 1,
                &prev,
                self.parallel,
            )?,
        };
        self.decoded += 1;
        if self.is_complete() {
            return Ok(Some(grid));
        }
        self.grid = Some(grid.clone());
        Ok(Some(grid))
    }

    /// Decode through level `k` (consuming intermediate levels) and return
    /// that preview.
    pub fn decode_to(&mut self, k: u8) -> Result<Field<T>> {
        assert!(k > self.decoded, "already decoded past level {k}");
        let mut out = None;
        while self.decoded < k {
            out = self.next_level()?;
        }
        Ok(out.expect("at least one level decoded"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut dec = archive.progressive();
        let p2 = dec.decode_to(2).unwrap();
        assert_eq!(p2, archive.decompress_level(2).unwrap());
        assert_eq!(dec.levels_decoded(), 2);
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
        let mut a = archive.progressive();
        let mut b = archive.progressive().parallel(true);
        while let Some(pa) = a.next_level().unwrap() {
            let pb = b.next_level().unwrap().unwrap();
            assert_eq!(pa, pb);
        }
    }
}
