//! STZ archive format and the [`StzArchive`] handle.
//!
//! Layout (all integers little-endian / LEB128):
//!
//! ```text
//! magic "STZ1" | version u8 | type_tag u8 | ndim u8 | dims 3×uvarint
//! levels u8 | interp u8 | adaptive u8 | adaptive_ratio f64
//! eb_finest f64 | radius uvarint
//! level-1 block   : length-prefixed SZ3 archive of sub-block A
//! for k in 2..=levels:
//!     nblocks uvarint
//!     nblocks × length-prefixed sub-block stream
//! ```
//!
//! Each finer-level sub-block stream is independently decodable (its own
//! Huffman table, code payload and outlier store), which is what enables the
//! per-sub-block decode skipping of random-access decompression (paper §3.3).
//! Because every block is length-prefixed, a reader can locate any sub-block
//! in O(#blocks) without touching entropy-coded bytes; the offsets are
//! catalogued in a table of contents at parse time.

use crate::config::StzConfig;
use crate::level::LevelPlan;
use crate::pool;
use crate::progressive::ProgressiveDecoder;
use crate::random_access::AccessBreakdown;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;
use stz_codec::{ByteReader, ByteWriter, CodecError, Result};
use stz_field::{Dims, Field, Region, Scalar};
use stz_sz3::{ErrorBound, InterpKind};

/// Magic bytes of an STZ archive.
pub const MAGIC: [u8; 4] = *b"STZ1";
/// Current format version.
pub const VERSION: u8 = 1;

/// Parsed archive metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveHeader {
    pub dims: Dims,
    pub type_tag: u8,
    pub levels: u8,
    pub interp: InterpKind,
    pub adaptive: bool,
    pub adaptive_ratio: f64,
    /// Absolute error bound at the finest level.
    pub eb_finest: f64,
    pub radius: i64,
}

impl ArchiveHeader {
    /// Reconstruct the compressor configuration this archive was written
    /// with (error bound already resolved to absolute).
    pub fn config(&self) -> StzConfig {
        StzConfig {
            eb: ErrorBound::Absolute(self.eb_finest),
            levels: self.levels,
            interp: self.interp,
            adaptive: self.adaptive,
            adaptive_ratio: self.adaptive_ratio,
            radius: self.radius,
        }
    }

    /// Per-level absolute error bounds (index 0 = level 1).
    pub fn level_ebs(&self) -> Vec<f64> {
        self.config().level_ebs_from_absolute(self.eb_finest)
    }
}

/// A compressed STZ archive, typed by the element type of the field it
/// encodes.
///
/// The archive owns its bytes and a parsed table of contents; every
/// decompression entry point here walks a [`ProgressiveDecoder`]. The pool's
/// width decides how many threads a walk uses, and the serial methods pin 1.
///
/// The handle also keeps its decoded level-1 grid — 1/64 of the field in
/// the 3-level 3-D case — once any decode has made it: full, preview,
/// region or stepped. Every later walk starts from that grid instead of the
/// level-1 SZ3 stream, on whatever thread it runs; a decode that fails keeps
/// nothing. A clone starts without it, and `Debug` never prints it.
pub struct StzArchive<T: Scalar> {
    bytes: Vec<u8>,
    header: ArchiveHeader,
    /// Byte range of the level-1 SZ3 stream.
    l1_range: Range<usize>,
    /// Byte ranges of finer-level sub-block streams:
    /// `block_ranges[k - 2][i]` for level `k`, block index `i` (canonical
    /// order, empty blocks skipped — same order as `LevelPlan`).
    block_ranges: Vec<Vec<Range<usize>>>,
    /// The decoded level-1 grid, once a walk has made it.
    level1: OnceLock<Vec<T>>,
}

impl<T: Scalar> Clone for StzArchive<T> {
    /// The same archive, without the decoded level-1 grid.
    fn clone(&self) -> Self {
        StzArchive {
            bytes: self.bytes.clone(),
            header: self.header.clone(),
            l1_range: self.l1_range.clone(),
            block_ranges: self.block_ranges.clone(),
            level1: OnceLock::new(),
        }
    }
}

impl<T: Scalar> fmt::Debug for StzArchive<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StzArchive")
            .field("len", &self.bytes.len())
            .field("header", &self.header)
            .field("l1_range", &self.l1_range)
            .field("block_ranges", &self.block_ranges)
            .finish_non_exhaustive()
    }
}

/// Assemble archive bytes from the parts produced by the compressor.
pub(crate) fn build_bytes(
    header: &ArchiveHeader,
    l1_bytes: &[u8],
    level_blocks: &[Vec<Vec<u8>>],
) -> Vec<u8> {
    let payload: usize =
        l1_bytes.len() + level_blocks.iter().flatten().map(|b| b.len() + 8).sum::<usize>();
    let mut w = ByteWriter::with_capacity(payload + 64);
    w.put_raw(&MAGIC);
    w.put_u8(VERSION);
    w.put_u8(header.type_tag);
    w.put_u8(header.dims.ndim());
    let [nz, ny, nx] = header.dims.as_array();
    w.put_uvarint(nz as u64);
    w.put_uvarint(ny as u64);
    w.put_uvarint(nx as u64);
    w.put_u8(header.levels);
    w.put_u8(match header.interp {
        InterpKind::Linear => 0,
        InterpKind::Cubic => 1,
    });
    w.put_u8(header.adaptive as u8);
    w.put_f64(header.adaptive_ratio);
    w.put_f64(header.eb_finest);
    w.put_uvarint(header.radius as u64);
    w.put_block(l1_bytes);
    for blocks in level_blocks {
        w.put_uvarint(blocks.len() as u64);
        for b in blocks {
            w.put_block(b);
        }
    }
    w.finish()
}

/// The element type tag of archive `bytes` (the byte after the magic and
/// the version), read without parsing the rest; `None` if it is cut short.
pub fn type_tag(bytes: &[u8]) -> Option<u8> {
    bytes.get(MAGIC.len() + 1).copied()
}

impl<T: Scalar> StzArchive<T> {
    /// Parse an archive from bytes, validating the header and cataloguing
    /// every sub-block stream.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let (header, l1_range, block_ranges) = parse(&bytes)?;
        if header.type_tag != T::TYPE_TAG {
            return Err(CodecError::corrupt(format!(
                "archive element type tag {} does not match requested type",
                header.type_tag
            )));
        }
        // Cross-check block counts against the geometry implied by dims.
        let plan = LevelPlan::new(header.dims, header.levels);
        for (k, ranges) in block_ranges.iter().enumerate() {
            let expect = plan.levels[k + 1].blocks.len();
            if ranges.len() != expect {
                return Err(CodecError::corrupt(format!(
                    "level {} has {} blocks, geometry requires {expect}",
                    k + 2,
                    ranges.len()
                )));
            }
        }
        Ok(StzArchive { bytes, header, l1_range, block_ranges, level1: OnceLock::new() })
    }

    /// The raw archive bytes (what you would write to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the archive, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Total compressed size in bytes.
    pub fn compressed_len(&self) -> usize {
        self.bytes.len()
    }

    /// Compression ratio relative to the uncompressed field.
    pub fn compression_ratio(&self) -> f64 {
        (self.header.dims.len() * T::BYTES) as f64 / self.bytes.len() as f64
    }

    /// Archive metadata.
    pub fn header(&self) -> &ArchiveHeader {
        &self.header
    }

    /// Grid extents of the encoded field.
    pub fn dims(&self) -> Dims {
        self.header.dims
    }

    /// Number of hierarchy levels.
    pub fn num_levels(&self) -> u8 {
        self.header.levels
    }

    /// The hierarchy plan of this archive.
    pub fn plan(&self) -> LevelPlan {
        LevelPlan::new(self.header.dims, self.header.levels)
    }

    /// The level-1 SZ3 stream.
    pub fn l1_bytes(&self) -> &[u8] {
        &self.bytes[self.l1_range.clone()]
    }

    /// Byte range of the level-1 SZ3 stream within [`StzArchive::as_bytes`].
    ///
    /// Together with [`StzArchive::block_range`] this exposes the archive's
    /// section layout, so container writers can index (and checksum) every
    /// independently fetchable byte range without re-parsing the stream.
    pub fn l1_range(&self) -> Range<usize> {
        self.l1_range.clone()
    }

    /// Byte range of the `i`-th sub-block stream of `level` within
    /// [`StzArchive::as_bytes`] (2-based levels, canonical block order).
    pub fn block_range(&self, level: u8, i: usize) -> Range<usize> {
        self.block_ranges[level as usize - 2][i].clone()
    }

    /// The `i`-th sub-block stream of `level` (2-based levels, canonical
    /// block order matching [`LevelPlan`]).
    pub fn block_bytes(&self, level: u8, i: usize) -> &[u8] {
        let r = self.block_ranges[level as usize - 2][i].clone();
        &self.bytes[r]
    }

    /// Number of sub-block streams at `level` (≥ 2).
    pub fn num_blocks(&self, level: u8) -> usize {
        self.block_ranges[level as usize - 2].len()
    }

    /// Bytes that must be read to decompress levels `1..=k` — the
    /// progressive I/O cost (paper §3.3: the coarsest dump is ~1.6% of the
    /// full data). `k = 0` means nothing decoded yet and returns 0.
    pub fn bytes_through_level(&self, k: u8) -> usize {
        if k == 0 {
            return 0;
        }
        let mut total = self.l1_range.len();
        for level in 2..=k {
            total += self.block_ranges[level as usize - 2].iter().map(|r| r.len()).sum::<usize>();
        }
        total
    }

    /// Full decompression at width 1: [`StzArchive::decompress_parallel`]
    /// on the calling thread alone.
    pub fn decompress(&self) -> Result<Field<T>> {
        pool::with_threads(1, || self.decompress_parallel())
    }

    /// Full decompression on the [`crate::pool`] threads.
    pub fn decompress_parallel(&self) -> Result<Field<T>> {
        self.progressive().decode_to(self.header.levels)
    }

    /// Progressive decompression to hierarchy level `k` (1 = coarsest): the
    /// stride-`2^(levels-k)` preview of the field, at width 1. Level 1 is a
    /// copy of the handle's decoded level-1 grid.
    pub fn decompress_level(&self, k: u8) -> Result<Field<T>> {
        pool::with_threads(1, || self.progressive().decode_to(k))
    }

    /// Incremental progressive decoder; its steps run at the pool's width,
    /// and its first one takes the handle's decoded level-1 grid (making it
    /// if no decode has yet).
    pub fn progressive(&self) -> ProgressiveDecoder<'_, T> {
        ProgressiveDecoder::new(self).resume(&self.level1)
    }

    /// A [`ProgressiveDecoder::region`] walk over this archive, which ends in
    /// `region` at full resolution and resumes as
    /// [`StzArchive::progressive`] does.
    pub fn progressive_region(&self, region: &Region) -> Result<ProgressiveDecoder<'_, T>> {
        Ok(ProgressiveDecoder::region(self, region)?.resume(&self.level1))
    }

    /// Random-access decompression of `region` at full resolution, at width 1.
    pub fn decompress_region(&self, region: &Region) -> Result<Field<T>> {
        self.decompress_region_with_breakdown(region).map(|(f, _)| f)
    }

    /// Random-access decompression with the per-stage time breakdown of the
    /// paper's Table 4, at width 1.
    pub fn decompress_region_with_breakdown(
        &self,
        region: &Region,
    ) -> Result<(Field<T>, AccessBreakdown)> {
        pool::with_threads(1, || {
            self.progressive_region(region)?.decode_to_with_breakdown(self.num_levels())
        })
    }
}

type Parsed = (ArchiveHeader, Range<usize>, Vec<Vec<Range<usize>>>);

fn parse(bytes: &[u8]) -> Result<Parsed> {
    let mut r = ByteReader::new(bytes);
    let magic = r.get_raw(4)?;
    if magic != MAGIC {
        return Err(CodecError::corrupt("bad STZ magic"));
    }
    let version = r.get_u8()?;
    if version != VERSION {
        return Err(CodecError::unsupported(format!("STZ format version {version}")));
    }
    let type_tag = r.get_u8()?;
    if type_tag > 1 {
        return Err(CodecError::unsupported(format!("element type tag {type_tag}")));
    }
    let ndim = r.get_u8()?;
    if !(1..=3).contains(&ndim) {
        return Err(CodecError::corrupt(format!("invalid ndim {ndim}")));
    }
    let nz = r.get_uvarint()?;
    let ny = r.get_uvarint()?;
    let nx = r.get_uvarint()?;
    if nz == 0
        || ny == 0
        || nx == 0
        || nz.saturating_mul(ny).saturating_mul(nx) > stz_sz3::stream::MAX_POINTS
    {
        return Err(CodecError::corrupt(format!("invalid dims {nz}x{ny}x{nx}")));
    }
    if (ndim < 3 && nz != 1) || (ndim < 2 && ny != 1) {
        return Err(CodecError::corrupt("dims inconsistent with ndim"));
    }
    let levels = r.get_u8()?;
    if !(2..=4).contains(&levels) {
        return Err(CodecError::corrupt(format!("invalid level count {levels}")));
    }
    let interp = match r.get_u8()? {
        0 => InterpKind::Linear,
        1 => InterpKind::Cubic,
        k => return Err(CodecError::unsupported(format!("interp kind {k}"))),
    };
    let adaptive = match r.get_u8()? {
        0 => false,
        1 => true,
        k => return Err(CodecError::corrupt(format!("invalid adaptive flag {k}"))),
    };
    let adaptive_ratio = r.get_f64()?;
    if !(adaptive_ratio >= 1.0 && adaptive_ratio.is_finite()) {
        return Err(CodecError::corrupt(format!("invalid adaptive ratio {adaptive_ratio}")));
    }
    let eb_finest = r.get_f64()?;
    if !(eb_finest > 0.0 && eb_finest.is_finite()) {
        return Err(CodecError::corrupt(format!("invalid error bound {eb_finest}")));
    }
    let radius = r.get_uvarint()?;
    if radius == 0 || radius > i64::MAX as u64 {
        return Err(CodecError::corrupt("invalid quantizer radius"));
    }

    let header = ArchiveHeader {
        dims: Dims::from_parts(ndim, nz as usize, ny as usize, nx as usize),
        type_tag,
        levels,
        interp,
        adaptive,
        adaptive_ratio,
        eb_finest,
        radius: radius as i64,
    };
    if header.config().usable_level_ebs(eb_finest).is_none() {
        return Err(CodecError::corrupt(format!(
            "error bound {eb_finest} leaves a level's bound zero"
        )));
    }

    // Catalogue block ranges.
    let l1 = r.get_block()?;
    let l1_start = l1.as_ptr() as usize - bytes.as_ptr() as usize;
    let l1_range = l1_start..l1_start + l1.len();

    let mut block_ranges = Vec::with_capacity(levels as usize - 1);
    for _ in 2..=levels {
        let n = r.get_uvarint()?;
        if n > 8 {
            return Err(CodecError::corrupt(format!("level with {n} blocks")));
        }
        let mut ranges = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let b = r.get_block()?;
            let start = b.as_ptr() as usize - bytes.as_ptr() as usize;
            ranges.push(start..start + b.len());
        }
        block_ranges.push(ranges);
    }
    if r.remaining() != 0 {
        return Err(CodecError::corrupt("trailing bytes after archive"));
    }
    Ok((header, l1_range, block_ranges))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> ArchiveHeader {
        ArchiveHeader {
            dims: Dims::d3(8, 9, 10),
            type_tag: 0,
            levels: 3,
            interp: InterpKind::Cubic,
            adaptive: true,
            adaptive_ratio: 2.5,
            eb_finest: 1e-3,
            radius: 1 << 15,
        }
    }

    fn sample_blocks(header: &ArchiveHeader) -> (Vec<u8>, Vec<Vec<Vec<u8>>>) {
        let plan = LevelPlan::new(header.dims, header.levels);
        let l1 = vec![1u8, 2, 3];
        let blocks: Vec<Vec<Vec<u8>>> = plan.levels[1..]
            .iter()
            .map(|lv| lv.blocks.iter().map(|b| vec![b.bits as u8; 4]).collect())
            .collect();
        (l1, blocks)
    }

    #[test]
    fn build_parse_roundtrip() {
        let h = sample_header();
        let (l1, blocks) = sample_blocks(&h);
        let bytes = build_bytes(&h, &l1, &blocks);
        let archive = StzArchive::<f32>::from_bytes(bytes).unwrap();
        assert_eq!(archive.header(), &h);
        assert_eq!(archive.l1_bytes(), &l1[..]);
        assert_eq!(archive.num_blocks(2), blocks[0].len());
        assert_eq!(archive.num_blocks(3), blocks[1].len());
        for (i, b) in blocks[0].iter().enumerate() {
            assert_eq!(archive.block_bytes(2, i), &b[..]);
        }
    }

    #[test]
    fn wrong_type_rejected() {
        let h = sample_header();
        let (l1, blocks) = sample_blocks(&h);
        let bytes = build_bytes(&h, &l1, &blocks);
        assert!(StzArchive::<f64>::from_bytes(bytes).is_err());
    }

    #[test]
    fn wrong_block_count_rejected() {
        let h = sample_header();
        let (l1, mut blocks) = sample_blocks(&h);
        blocks[0].pop();
        let bytes = build_bytes(&h, &l1, &blocks);
        assert!(StzArchive::<f32>::from_bytes(bytes).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        let h = sample_header();
        let (l1, blocks) = sample_blocks(&h);
        let bytes = build_bytes(&h, &l1, &blocks);
        for cut in 0..bytes.len() {
            let _ = StzArchive::<f32>::from_bytes(bytes[..cut].to_vec());
        }
    }

    #[test]
    fn type_tag_is_read_from_the_header_alone() {
        for tag in [f32::TYPE_TAG, f64::TYPE_TAG] {
            let h = ArchiveHeader { type_tag: tag, ..sample_header() };
            let (l1, mut blocks) = sample_blocks(&h);
            blocks[0].pop(); // the body no longer parses; the tag still reads
            let bytes = build_bytes(&h, &l1, &blocks);
            assert_eq!(type_tag(&bytes), Some(tag));
            assert_eq!(type_tag(&bytes[..MAGIC.len() + 2]), Some(tag));
            assert_eq!(type_tag(&bytes[..MAGIC.len() + 1]), None);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let h = sample_header();
        let (l1, blocks) = sample_blocks(&h);
        let mut bytes = build_bytes(&h, &l1, &blocks);
        bytes.push(0xAB);
        assert!(StzArchive::<f32>::from_bytes(bytes).is_err());
    }

    #[test]
    fn bytes_through_level_monotone() {
        let h = sample_header();
        let (l1, blocks) = sample_blocks(&h);
        let bytes = build_bytes(&h, &l1, &blocks);
        let total = bytes.len();
        let archive = StzArchive::<f32>::from_bytes(bytes).unwrap();
        let b1 = archive.bytes_through_level(1);
        let b2 = archive.bytes_through_level(2);
        let b3 = archive.bytes_through_level(3);
        assert!(b1 < b2 && b2 < b3);
        assert!(b3 <= total);
        assert_eq!(b1, 3);
    }

    #[test]
    fn a_bound_that_leaves_a_level_zero_is_corrupt_not_a_panic() {
        let field = Field::from_fn(Dims::d3(16, 16, 16), |z, y, x| (z * y + x) as f32 * 0.01);
        let compressor = crate::StzCompressor::new(StzConfig::three_level(1e-3));
        let mut bytes = compressor.compress(&field).unwrap().into_bytes();
        bytes[21..29].copy_from_slice(&5e-324f64.to_le_bytes());
        let err = StzArchive::<f32>::from_bytes(bytes).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    fn compressed(dims: Dims) -> StzArchive<f32> {
        let field = Field::from_fn(dims, |z, y, x| ((z * y + x) as f32 * 0.01).sin());
        crate::StzCompressor::new(StzConfig::three_level(1e-3)).compress(&field).unwrap()
    }

    #[test]
    fn the_first_decode_of_any_kind_keeps_level_one_and_a_clone_does_not() {
        let archive = compressed(Dims::d3(16, 16, 16));
        let region = Region::d3(2..9, 0..16, 5..11);
        type Decode = fn(&StzArchive<f32>, &Region);
        let first: [Decode; 5] = [
            |a, _| drop(a.decompress().unwrap()),
            |a, _| drop(a.decompress_level(2).unwrap()),
            |a, region| drop(a.decompress_region(region).unwrap()),
            |a, _| drop(a.progressive().next_level().unwrap()),
            |a, _| drop(pool::with_threads(2, || a.decompress_parallel()).unwrap()),
        ];
        let l1 = archive.decompress_level(1).unwrap().into_vec();
        for decode in first {
            let fresh = StzArchive::<f32>::from_bytes(archive.as_bytes().to_vec()).unwrap();
            let shown = format!("{fresh:?}");
            assert!(fresh.level1.get().is_none());
            decode(&fresh, &region);
            assert_eq!(fresh.level1.get(), Some(&l1));
            assert!(fresh.clone().level1.get().is_none());
            // `Debug` shows neither the grid nor the bytes.
            assert_eq!(format!("{fresh:?}"), shown);
            assert!(shown.len() < 1000, "{shown}");
        }
    }

    #[test]
    fn a_walk_that_resumes_from_level_one_reports_no_level_one_time() {
        let archive = compressed(Dims::d3(24, 24, 24));
        let region = Region::d3(3..9, 0..24, 10..14);
        let (cold, bd) = archive.decompress_region_with_breakdown(&region).unwrap();
        assert!(bd.l1_sz3 > 0.0);
        let (warm, bd) = archive.decompress_region_with_breakdown(&region).unwrap();
        assert_eq!((warm, bd.l1_sz3, bd.levels.len()), (cold, 0.0, 2));
    }

    #[test]
    fn a_corrupt_level_one_stream_fails_alike_on_every_call_and_keeps_nothing() {
        let mut bytes = compressed(Dims::d3(16, 16, 16)).into_bytes();
        let l1 = StzArchive::<f32>::from_bytes(bytes.clone()).unwrap().l1_range();
        bytes[l1.start] ^= 0xFF; // the SZ3 stream's magic
        let archive = StzArchive::<f32>::from_bytes(bytes).unwrap();
        let region = Region::d3(2..9, 0..16, 5..11);
        for _ in 0..2 {
            let errors = [
                archive.decompress().unwrap_err(),
                archive.decompress_parallel().unwrap_err(),
                archive.decompress_level(1).unwrap_err(),
                archive.decompress_level(3).unwrap_err(),
                archive.decompress_region(&region).unwrap_err(),
                archive.progressive().next_level().unwrap_err(),
            ];
            for err in errors {
                assert_eq!(err.to_string(), "corrupt stream: bad SZ3 magic");
            }
            assert!(archive.level1.get().is_none());
        }
    }

    #[test]
    fn header_config_roundtrip() {
        let h = sample_header();
        let c = h.config();
        assert_eq!(c.levels, 3);
        let ebs = h.level_ebs();
        assert!((ebs[2] - 1e-3).abs() < 1e-18);
    }
}
