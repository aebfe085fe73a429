//! Abstraction over *where archive payload bytes live*.
//!
//! Every decompression path in this crate — full, progressive, and
//! random-access — consumes an archive through the [`SectionSource`] trait
//! rather than a concrete in-memory buffer. A source answers three
//! questions: what are the archive's parameters ([`SectionSource::header`]),
//! give me the level-1 SZ3 stream ([`SectionSource::l1_bytes`]), and give me
//! sub-block stream `i` of level `k` ([`SectionSource::block_bytes`]).
//!
//! [`StzArchive`] implements the trait by borrowing slices of its resident
//! buffer; the `stz-stream` crate implements it with positioned reads
//! against an on-disk container, fetching **only** the byte ranges a query
//! touches. Because the decode driver ([`crate::progressive`]) already skips
//! sub-blocks that a query does not need, an out-of-core source
//! automatically inherits the paper's I/O savings: the bytes never leave the
//! disk.

use crate::archive::{ArchiveHeader, StzArchive};
use crate::level::LevelPlan;
use std::borrow::Cow;
use stz_codec::Result;
use stz_field::Scalar;

/// Provider of the sections of one STZ archive.
///
/// Methods that fetch payload bytes are fallible so out-of-core sources can
/// surface I/O and integrity errors; the in-memory implementation never
/// fails. Sources must be usable from multiple threads at once (`Sync`) so
/// the parallel decode paths can fetch blocks concurrently.
pub trait SectionSource: Sync {
    /// Parsed archive metadata.
    fn header(&self) -> &ArchiveHeader;

    /// The level-1 SZ3 stream.
    fn l1_bytes(&self) -> Result<Cow<'_, [u8]>>;

    /// The `i`-th sub-block stream of `level` (2-based levels, canonical
    /// block order matching [`LevelPlan`]).
    fn block_bytes(&self, level: u8, i: usize) -> Result<Cow<'_, [u8]>>;

    /// Compressed payload bytes needed to decompress levels `1..=k` — the
    /// progressive I/O cost. `k = 0` returns 0.
    fn bytes_through_level(&self, k: u8) -> usize;

    /// The hierarchy plan implied by the header (geometry is always derived
    /// from `dims` + `levels`, so reader and writer cannot disagree).
    fn plan(&self) -> LevelPlan {
        LevelPlan::new(self.header().dims, self.header().levels)
    }

    /// Number of hierarchy levels.
    fn num_levels(&self) -> u8 {
        self.header().levels
    }
}

impl<T: Scalar> SectionSource for StzArchive<T> {
    fn header(&self) -> &ArchiveHeader {
        StzArchive::header(self)
    }

    fn l1_bytes(&self) -> Result<Cow<'_, [u8]>> {
        Ok(Cow::Borrowed(StzArchive::l1_bytes(self)))
    }

    fn block_bytes(&self, level: u8, i: usize) -> Result<Cow<'_, [u8]>> {
        Ok(Cow::Borrowed(StzArchive::block_bytes(self, level, i)))
    }

    fn bytes_through_level(&self, k: u8) -> usize {
        StzArchive::bytes_through_level(self, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProgressiveDecoder, StzCompressor, StzConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use stz_field::{Dims, Field, Region};

    fn sample() -> (Field<f32>, StzArchive<f32>) {
        let f = Field::from_fn(Dims::d3(20, 20, 20), |z, y, x| {
            ((z as f32) * 0.2).sin() + ((y as f32) * 0.15).cos() + (x as f32) * 0.01
        });
        let a = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        (f, a)
    }

    /// A source that counts section fetches, to prove the generic paths are
    /// the ones being exercised.
    struct CountingSource<'a> {
        inner: &'a StzArchive<f32>,
        fetches: AtomicUsize,
    }

    impl SectionSource for CountingSource<'_> {
        fn header(&self) -> &ArchiveHeader {
            self.inner.header()
        }
        fn l1_bytes(&self) -> Result<Cow<'_, [u8]>> {
            self.fetches.fetch_add(1, Ordering::Relaxed);
            Ok(Cow::Borrowed(self.inner.l1_bytes()))
        }
        fn block_bytes(&self, level: u8, i: usize) -> Result<Cow<'_, [u8]>> {
            self.fetches.fetch_add(1, Ordering::Relaxed);
            Ok(Cow::Borrowed(self.inner.block_bytes(level, i)))
        }
        fn bytes_through_level(&self, k: u8) -> usize {
            self.inner.bytes_through_level(k)
        }
    }

    fn decode_to(src: &CountingSource<'_>, k: u8) -> Field<f32> {
        ProgressiveDecoder::new(src).decode_to(k).unwrap()
    }

    #[test]
    fn generic_paths_match_archive_methods() {
        let (_, a) = sample();
        let src = CountingSource { inner: &a, fetches: AtomicUsize::new(0) };
        assert_eq!(decode_to(&src, 3), a.decompress().unwrap());
        assert_eq!(decode_to(&src, 1), a.decompress_level(1).unwrap());
        let region = Region::d3(2..8, 3..9, 4..10);
        let roi = ProgressiveDecoder::region(&src, &region).unwrap().decode_to(3).unwrap();
        assert_eq!(roi, a.decompress_region(&region).unwrap());
        assert!(src.fetches.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn level_one_preview_touches_only_l1() {
        let (_, a) = sample();
        let src = CountingSource { inner: &a, fetches: AtomicUsize::new(0) };
        decode_to(&src, 1);
        // One fetch: the SZ3 stream. No finer-level blocks.
        assert_eq!(src.fetches.load(Ordering::Relaxed), 1);
    }
}
