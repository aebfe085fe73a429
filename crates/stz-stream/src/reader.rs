//! Out-of-core container reader.

use crate::byte_source::{ByteSource, FileSource};
use crate::crc::crc32;
use crate::format::{
    parse_footer_bounded, parse_gen_slot, parse_trailer, EntryRecord, GenSlot, SectionLoc,
    StzDetail, CONTAINER_MAGIC, CONTAINER_VERSION, GEN_SLOT_LEN, GEN_SLOT_OFFSETS, HEADER_LEN,
    MIN_CONTAINER_VERSION, MUTABLE_CONTAINER_VERSION, MUTABLE_DATA_START, TRAILER_LEN,
};
use std::any::Any;
use std::borrow::Cow;
use std::fmt;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::OnceLock;
use stz_backend::BackendScalar;
use stz_codec::{CodecError, Result};
use stz_core::archive::ArchiveHeader;
use stz_core::random_access::AccessBreakdown;
use stz_core::{pool, ProgressiveDecoder, SectionSource, StzArchive};
use stz_field::{Dims, Field, Region, Scalar};

/// A container opened over any [`ByteSource`].
///
/// Opening reads two small ranges — the fixed trailer, then the footer index
/// — and *nothing else*: payload bytes are fetched lazily, per section, by
/// the queries served through [`EntryReader`]. Every fetched section is
/// CRC-verified before it is decoded.
///
/// The reader keeps the decoded level-1 grid of each native entry, made by
/// the first walk over that entry that reaches it, and every later walk
/// [resumes](ProgressiveDecoder::resume) from it: no second read, CRC or
/// SZ3 decode of the level-1 stream. A reader pins one generation, so a
/// kept grid can never outlive the bytes it was decoded from: a reader
/// opened after a commit starts with none. What it keeps is bounded by the
/// footer — one level-1 grid per native entry, `1/2^(d·(levels-1))` of the
/// entry's points in `d` dimensions (1/64 of a 3-level 3-D entry).
#[derive(Debug)]
pub struct ContainerReader<S: ByteSource> {
    source: S,
    entries: Vec<EntryRecord>,
    /// One decoded level-1 grid per entry, filled by its first walk.
    level1: Vec<Level1>,
    /// Container format version from the file header.
    version: u8,
    /// Committed generation number (always 1 for write-once v1/v2 files).
    generation: u64,
    /// First byte of the payload region ([`HEADER_LEN`] for v1/v2,
    /// [`MUTABLE_DATA_START`] for v3).
    data_start: u64,
    /// Absolute offset of this generation's footer: the exclusive upper
    /// bound of every payload section.
    footer_off: u64,
    /// Total committed bytes; anything past this is uncommitted staging
    /// (v3) and invisible to the reader.
    committed_len: u64,
}

impl ContainerReader<FileSource> {
    /// Open a container file from disk.
    pub fn open_path(path: impl AsRef<Path>) -> Result<Self> {
        ContainerReader::open(FileSource::open(path)?)
    }
}

impl<S: ByteSource> ContainerReader<S> {
    /// Open a container over `source`: validate the header, locate and
    /// verify the footer, and parse the entry index. All format versions
    /// are accepted — write-once v1/v2 (trailer at EOF) and mutable v3
    /// (alternating generation slots after the header).
    pub fn open(source: S) -> Result<Self> {
        let file_len = source.len();
        if file_len < HEADER_LEN + TRAILER_LEN {
            return Err(CodecError::corrupt(format!(
                "file of {file_len} bytes is too short to be a container"
            )));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        source.read_exact_at(0, &mut header)?;
        if header[0..4] != CONTAINER_MAGIC {
            return Err(CodecError::corrupt("bad container magic"));
        }
        let version = header[4];
        if version == MUTABLE_CONTAINER_VERSION {
            return Self::open_mutable(source, file_len);
        }
        if !(MIN_CONTAINER_VERSION..=CONTAINER_VERSION).contains(&version) {
            return Err(CodecError::unsupported(format!("container format version {version}")));
        }
        let mut trailer = [0u8; TRAILER_LEN as usize];
        source.read_exact_at(file_len - TRAILER_LEN, &mut trailer)?;
        let (footer_off, footer_len, footer_crc) = parse_trailer(&trailer, file_len)?;
        let mut footer = vec![0u8; footer_len as usize];
        source.read_exact_at(footer_off, &mut footer)?;
        if crc32(&footer) != footer_crc {
            return Err(CodecError::corrupt("footer checksum mismatch"));
        }
        let entries = parse_footer_bounded(&footer, HEADER_LEN, file_len - TRAILER_LEN, version)?;
        Ok(ContainerReader {
            source,
            level1: entries.iter().map(|_| Level1::default()).collect(),
            entries,
            version,
            generation: 1,
            data_start: HEADER_LEN,
            footer_off,
            committed_len: file_len,
        })
    }

    /// Open a mutable (v3) container: read both generation slots, pick the
    /// valid one with the highest generation, and parse the footer it
    /// points to. Both slots torn or implausible means no committed
    /// generation survived — a cleanly detected torn container, reported
    /// as corrupt rather than silently serving partial data.
    fn open_mutable(source: S, file_len: u64) -> Result<Self> {
        let slot = Self::read_gen_slots(&source, file_len)?.ok_or_else(|| {
            CodecError::corrupt("torn mutable container: no valid generation slot")
        })?;
        let mut footer = vec![0u8; slot.footer_len as usize];
        source.read_exact_at(slot.footer_off, &mut footer)?;
        if crc32(&footer) != slot.footer_crc {
            return Err(CodecError::corrupt("footer checksum mismatch"));
        }
        let entries = parse_footer_bounded(
            &footer,
            MUTABLE_DATA_START,
            slot.footer_off,
            MUTABLE_CONTAINER_VERSION,
        )?;
        Ok(ContainerReader {
            source,
            level1: entries.iter().map(|_| Level1::default()).collect(),
            entries,
            version: MUTABLE_CONTAINER_VERSION,
            generation: slot.generation,
            data_start: MUTABLE_DATA_START,
            footer_off: slot.footer_off,
            committed_len: slot.committed_len,
        })
    }

    /// Read both v3 generation slots and return the plausible one with
    /// the highest generation, or `None` when both are torn.
    pub(crate) fn read_gen_slots(source: &S, file_len: u64) -> Result<Option<GenSlot>> {
        if file_len < MUTABLE_DATA_START {
            return Err(CodecError::corrupt(format!(
                "file of {file_len} bytes is too short for a mutable container"
            )));
        }
        let mut best: Option<GenSlot> = None;
        for off in GEN_SLOT_OFFSETS {
            let mut raw = [0u8; GEN_SLOT_LEN as usize];
            source.read_exact_at(off, &mut raw)?;
            if let Some(slot) = parse_gen_slot(&raw) {
                if slot.plausible(file_len) && best.map_or(true, |b| slot.generation > b.generation)
                {
                    best = Some(slot);
                }
            }
        }
        Ok(best)
    }

    /// Number of entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Container format version from the file header.
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Committed generation number this reader pinned at open. Write-once
    /// (v1/v2) containers are always generation 1; a mutable container
    /// advances by one per committed mutation batch.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total committed bytes of the pinned generation. For v3 this can be
    /// less than the file length (uncommitted staging past the tail); for
    /// v1/v2 it is the file length.
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    /// Payload bytes referenced by the pinned generation's index.
    pub fn live_payload_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.payload.len).sum()
    }

    /// Committed payload-region bytes *not* referenced by the pinned
    /// generation — superseded payloads and stale footers, reclaimable by
    /// compaction. Always 0 for write-once containers.
    pub fn dead_payload_bytes(&self) -> u64 {
        (self.footer_off - self.data_start).saturating_sub(self.live_payload_bytes())
    }

    /// The raw footer records backing this reader's index, in container
    /// order. The mutable-archive layer uses these to carry an open
    /// container's index into an upgrade or compaction rewrite.
    pub fn records(&self) -> &[EntryRecord] {
        &self.entries
    }

    /// Absolute offset of the pinned generation's footer (the exclusive
    /// upper bound of every payload section).
    pub fn footer_off(&self) -> u64 {
        self.footer_off
    }

    /// Metadata of every entry, in container order.
    pub fn entries(&self) -> impl Iterator<Item = EntryMeta<'_>> {
        self.entries.iter().map(EntryMeta::new)
    }

    /// Metadata of entry `index`.
    pub fn entry_meta(&self, index: usize) -> Option<EntryMeta<'_>> {
        self.entries.get(index).map(EntryMeta::new)
    }

    /// Index of the entry named `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// A typed reader over entry `index`; fails if the entry's element type
    /// is not `T`.
    pub fn entry<T: Scalar>(&self, index: usize) -> Result<EntryReader<'_, T, S>> {
        let record = self.entries.get(index).ok_or_else(|| {
            CodecError::corrupt(format!(
                "entry index {index} out of range ({} entries)",
                self.entries.len()
            ))
        })?;
        if record.type_tag() != T::TYPE_TAG {
            return Err(CodecError::corrupt(format!(
                "entry {:?} element type tag {} does not match requested type",
                record.name,
                record.type_tag()
            )));
        }
        Ok(EntryReader {
            source: &self.source,
            record,
            stz: record.stz_detail().map(|detail| StzSections { source: &self.source, detail }),
            level1: &self.level1[index],
            _marker: PhantomData,
        })
    }

    /// A typed reader over the entry named `name`.
    pub fn entry_by_name<T: Scalar>(&self, name: &str) -> Result<EntryReader<'_, T, S>> {
        let index = self
            .find(name)
            .ok_or_else(|| CodecError::corrupt(format!("no entry named {name:?}")))?;
        self.entry(index)
    }

    /// The underlying byte source (e.g. to inspect a
    /// [`CountingSource`](crate::byte_source::CountingSource)'s tallies).
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Consume the reader, returning the source.
    pub fn into_source(self) -> S {
        self.source
    }
}

/// The decoded level-1 grid one entry's walks share: a slot per scalar
/// type, of which only the entry's own is ever filled ([`ContainerReader::entry`]
/// checks the type tag before it hands out a walk).
#[derive(Default)]
struct Level1 {
    f32: OnceLock<Vec<f32>>,
    f64: OnceLock<Vec<f64>>,
}

impl Level1 {
    /// The slot of scalar type `T`, if it is `f32` or `f64`.
    fn slot<T: Scalar>(&self) -> Option<&OnceLock<Vec<T>>> {
        let (f32, f64): (&dyn Any, &dyn Any) = (&self.f32, &self.f64);
        f32.downcast_ref().or_else(|| f64.downcast_ref())
    }
}

/// Whether the slot is filled, not the grid.
impl fmt::Debug for Level1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let filled = self.f32.get().is_some() || self.f64.get().is_some();
        f.write_str(if filled { "Level1(filled)" } else { "Level1(empty)" })
    }
}

/// Metadata view of one entry (no payload reads).
#[derive(Debug, Clone, Copy)]
pub struct EntryMeta<'a> {
    record: &'a EntryRecord,
}

impl<'a> EntryMeta<'a> {
    fn new(record: &'a EntryRecord) -> Self {
        EntryMeta { record }
    }

    /// View a raw footer record as entry metadata — how the mutable
    /// container's pending (not-yet-committed) index is described without
    /// a reader.
    pub fn from_record(record: &'a EntryRecord) -> Self {
        EntryMeta { record }
    }

    /// Entry name (e.g. a field name or time-step label).
    pub fn name(&self) -> &'a str {
        &self.record.name
    }

    /// Codec wire id of the entry's payload.
    pub fn codec_id(&self) -> u8 {
        self.record.codec
    }

    /// Registry name of the entry's codec, or `None` for a codec id this
    /// build does not know (the entry still indexes and fetches; only
    /// decoding it errors).
    pub fn codec_name(&self) -> Option<&'static str> {
        stz_backend::registry().by_id(self.record.codec).map(|c| c.name())
    }

    /// The entry's STZ archive parameters, if it is a native entry (read
    /// from the footer; no payload bytes are touched).
    pub fn header(&self) -> Option<&'a ArchiveHeader> {
        self.record.stz_detail().map(|d| &d.header)
    }

    /// Grid extents of the encoded field.
    pub fn dims(&self) -> Dims {
        self.record.dims()
    }

    /// Element type tag (0 = `f32`, 1 = `f64`).
    pub fn type_tag(&self) -> u8 {
        self.record.type_tag()
    }

    /// Absolute point-wise error bound the entry was compressed with (the
    /// finest-level bound for STZ entries).
    pub fn error_bound(&self) -> f64 {
        self.record.eb()
    }

    /// Compressed payload size in bytes.
    pub fn compressed_len(&self) -> u64 {
        self.record.payload.len
    }

    /// CRC-32 of the whole compressed payload, as recorded in the index.
    pub fn payload_crc(&self) -> u32 {
        self.record.payload.crc
    }

    /// Number of independently fetchable sections the entry indexes: the
    /// level-1 stream plus one per sub-block for STZ entries, one
    /// monolithic payload for foreign codecs.
    pub fn section_count(&self) -> usize {
        match self.record.stz_detail() {
            Some(d) => 1 + d.blocks.iter().map(Vec::len).sum::<usize>(),
            None => 1,
        }
    }

    /// Compressed bytes needed to preview through level `k` (for foreign
    /// codecs, which have no partial levels, any `k ≥ 1` costs the whole
    /// payload).
    pub fn bytes_through_level(&self, k: u8) -> u64 {
        self.record.bytes_through_level(k)
    }
}

/// Fetch and CRC-verify one indexed section.
fn fetch_section<S: ByteSource>(source: &S, loc: &SectionLoc, what: &str) -> Result<Vec<u8>> {
    let len = usize::try_from(loc.len)
        .map_err(|_| CodecError::corrupt(format!("{what} section too large")))?;
    let mut buf = vec![0u8; len];
    source.read_exact_at(loc.off, &mut buf)?;
    if crc32(&buf) != loc.crc {
        return Err(CodecError::corrupt(format!(
            "{what} checksum mismatch at {}..{}",
            loc.off,
            loc.off + loc.len
        )));
    }
    Ok(buf)
}

/// [`SectionSource`] view of a native STZ entry: each
/// [`SectionSource::block_bytes`] call becomes one positioned read of
/// exactly that sub-block's range, CRC-verified. The type exists only for
/// STZ entries, so `stz-core`'s decode drivers can rely on the archive
/// parameters being present.
#[derive(Debug, Clone, Copy)]
pub struct StzSections<'a, S: ByteSource> {
    source: &'a S,
    detail: &'a StzDetail,
}

impl<S: ByteSource> SectionSource for StzSections<'_, S> {
    fn header(&self) -> &ArchiveHeader {
        &self.detail.header
    }

    fn l1_bytes(&self) -> Result<Cow<'_, [u8]>> {
        fetch_section(self.source, &self.detail.l1, "level-1").map(Cow::Owned)
    }

    fn block_bytes(&self, level: u8, i: usize) -> Result<Cow<'_, [u8]>> {
        let loc = (level as usize)
            .checked_sub(2)
            .and_then(|k| self.detail.blocks.get(k))
            .and_then(|blocks| blocks.get(i))
            .ok_or_else(|| {
                CodecError::corrupt(format!("no sub-block {i} at level {level} in index"))
            })?;
        fetch_section(self.source, loc, "sub-block").map(Cow::Owned)
    }

    fn bytes_through_level(&self, k: u8) -> usize {
        self.detail.bytes_through_level(k) as usize
    }
}

/// Typed, lazily fetching view of one container entry.
///
/// Native STZ entries serve the full streaming surface by walking a
/// [`ProgressiveDecoder`] over [`StzSections`], fetching only the byte
/// ranges a query needs, at the pool's width (the serial methods pin 1).
/// Every walk resumes from the entry's level-1 grid that the
/// [`ContainerReader`] keeps, and the first to reach level 1 makes it.
/// Foreign codec entries (format v2) decode through the
/// [`stz_backend`] registry: [`EntryReader::decompress`] fetches the whole
/// payload, and [`EntryReader::decompress_region`] falls back to a full
/// decode followed by a crop (foreign archives have no sub-block index).
/// Level previews and incremental refinement are STZ-only and return a
/// clean error for foreign entries, as does any entry whose codec id this
/// build does not know.
#[derive(Debug)]
pub struct EntryReader<'a, T: Scalar, S: ByteSource> {
    source: &'a S,
    record: &'a EntryRecord,
    /// Present iff the entry is a native STZ archive.
    stz: Option<StzSections<'a, S>>,
    /// The entry's decoded level 1, kept by the reader.
    level1: &'a Level1,
    _marker: PhantomData<fn() -> T>,
}

impl<'a, T: Scalar, S: ByteSource> EntryReader<'a, T, S> {
    /// The STZ section view, or a clean error naming the operation a
    /// foreign codec cannot serve.
    fn stz(&self, what: &str) -> Result<&StzSections<'a, S>> {
        self.stz.as_ref().ok_or_else(|| {
            CodecError::unsupported(format!(
                "{what} requires a native stz entry; entry {:?} uses codec {}",
                self.record.name,
                self.codec_label()
            ))
        })
    }

    /// `walk` over this entry's sections, resuming from its kept level 1.
    fn resume<'w>(
        &'w self,
        walk: ProgressiveDecoder<'w, T, StzSections<'a, S>>,
    ) -> ProgressiveDecoder<'w, T, StzSections<'a, S>> {
        match self.level1.slot() {
            Some(memo) => walk.resume(memo),
            None => walk,
        }
    }

    /// Human-readable codec label (`"sz3"`, or `"id 9"` when unknown).
    fn codec_label(&self) -> String {
        match stz_backend::registry().by_id(self.record.codec) {
            Some(c) => c.name().to_string(),
            None => format!("id {}", self.record.codec),
        }
    }

    /// Entry name.
    pub fn name(&self) -> &str {
        &self.record.name
    }

    /// Codec wire id of the payload.
    pub fn codec_id(&self) -> u8 {
        self.record.codec
    }

    /// Grid extents of the encoded field.
    pub fn dims(&self) -> Dims {
        self.record.dims()
    }

    /// Compressed payload size in bytes.
    pub fn compressed_len(&self) -> u64 {
        self.record.payload.len
    }

    /// Compressed bytes needed to decompress levels `1..=k` (the
    /// progressive I/O cost; for foreign codecs any `k ≥ 1` costs the
    /// whole payload).
    pub fn bytes_through_level(&self, k: u8) -> u64 {
        self.record.bytes_through_level(k)
    }

    /// Fetch the whole payload, CRC-verified against the index (works for
    /// every codec).
    pub fn read_payload(&self) -> Result<Vec<u8>> {
        fetch_section(self.source, &self.record.payload, "payload")
    }
}

impl<T: BackendScalar, S: ByteSource> EntryReader<'_, T, S> {
    /// Decode the whole payload of a foreign entry via the codec registry.
    fn decompress_foreign(&self) -> Result<Field<T>> {
        let codec = stz_backend::registry().by_id(self.record.codec).ok_or_else(|| {
            CodecError::unsupported(format!(
                "entry {:?} uses codec id {}, which this build does not know",
                self.record.name, self.record.codec
            ))
        })?;
        let bytes = self.read_payload()?;
        let field = stz_backend::decompress::<T>(codec, &bytes)?;
        if field.dims() != self.record.dims() {
            return Err(CodecError::corrupt(format!(
                "entry {:?} payload decodes to {:?}, index says {:?}",
                self.record.name,
                field.dims(),
                self.record.dims()
            )));
        }
        Ok(field)
    }

    /// Full decompression at width 1 (reads the whole payload, section by
    /// section for STZ entries; in one fetch for foreign codecs).
    pub fn decompress(&self) -> Result<Field<T>> {
        pool::with_threads(1, || self.decompress_parallel())
    }

    /// Full decompression on the pool's threads (foreign codecs decode
    /// serially — their archives are monolithic).
    pub fn decompress_parallel(&self) -> Result<Field<T>> {
        match &self.stz {
            Some(sections) => {
                self.resume(ProgressiveDecoder::new(sections)).decode_to(sections.num_levels())
            }
            None => self.decompress_foreign(),
        }
    }

    /// Progressive preview through level `k` at width 1, reading only levels
    /// `1..=k`, and level 1 only if no walk has kept it yet (STZ entries
    /// only).
    pub fn decompress_level(&self, k: u8) -> Result<Field<T>> {
        let steps = self.resume(ProgressiveDecoder::new(self.stz("level preview")?));
        pool::with_threads(1, || steps.decode_to(k))
    }

    /// Random-access decompression of `region` at width 1.
    ///
    /// STZ entries read only the intersecting sub-blocks, and the level-1
    /// stream if no walk has kept its grid yet. Foreign entries have no
    /// sub-block index, so the whole payload is fetched, decoded, and
    /// cropped.
    pub fn decompress_region(&self, region: &Region) -> Result<Field<T>> {
        match &self.stz {
            Some(_) => self.decompress_region_with_breakdown(region).map(|(f, _)| f),
            None => {
                if !region.fits_in(self.record.dims()) {
                    return Err(CodecError::corrupt(format!(
                        "region {region:?} outside entry dims {:?}",
                        self.record.dims()
                    )));
                }
                Ok(self.decompress_foreign()?.extract_region(region))
            }
        }
    }

    /// Random-access decompression with per-stage timings at width 1 (STZ
    /// entries only — foreign codecs have no staged access path).
    pub fn decompress_region_with_breakdown(
        &self,
        region: &Region,
    ) -> Result<(Field<T>, AccessBreakdown)> {
        let sections = self.stz("random access breakdown")?;
        let walk = self.resume(ProgressiveDecoder::region(sections, region)?);
        pool::with_threads(1, || walk.decode_to_with_breakdown(sections.num_levels()))
    }

    /// Incremental coarse-to-fine decoder over this entry, stepping at the
    /// pool's width (STZ entries only).
    pub fn progressive(&self) -> Result<ProgressiveDecoder<'_, T, StzSections<'_, S>>> {
        Ok(self.resume(ProgressiveDecoder::new(self.stz("progressive refinement")?)))
    }

    /// A [`ProgressiveDecoder::region`] walk over this entry, which ends in
    /// `region` at full resolution (STZ entries only).
    pub fn progressive_region(
        &self,
        region: &Region,
    ) -> Result<ProgressiveDecoder<'_, T, StzSections<'_, S>>> {
        Ok(self.resume(ProgressiveDecoder::region(self.stz("random access")?, region)?))
    }

    /// Fetch the whole payload and rebuild the resident [`StzArchive`]
    /// (verified against the entry's whole-payload checksum; STZ entries
    /// only — for foreign codecs use
    /// [`read_payload`](EntryReader::read_payload)).
    pub fn read_archive(&self) -> Result<StzArchive<T>> {
        self.stz("rebuilding a resident archive")?;
        let bytes = self.read_payload()?;
        StzArchive::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pack_to_vec, MemorySource};
    use stz_core::{StzCompressor, StzConfig};
    use stz_telemetry::trace;

    fn archive(seed: f32) -> StzArchive<f32> {
        let f = Field::from_fn(Dims::d3(16, 20, 24), |z, y, x| {
            ((z as f32) * 0.2 + seed).sin() + ((y as f32) * 0.1).cos() + x as f32 * 0.01
        });
        StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap()
    }

    #[test]
    fn a_reader_keeps_each_entry_level1_for_every_walk_over_it() {
        let collector = Box::leak(Box::new(trace::TraceCollector::new(true)));
        let (a, b) = (archive(0.0), archive(1.0));
        let image = pack_to_vec(&[("a", &a), ("b", &b)]).unwrap();
        let reader = ContainerReader::open(MemorySource::new(image.clone())).unwrap();
        let region = Region::d3(3..11, 2..17, 5..19);
        // The `memo` attr of the one `level1` span `walk` opens.
        let memo = |walk: &dyn Fn()| {
            let id = {
                let root = collector.start("test", "request", None);
                walk();
                root.trace_id().unwrap()
            };
            let trace = collector.snapshot().into_iter().find(|t| t.trace_id == id).unwrap();
            let level1: Vec<_> = trace.spans.iter().filter(|s| s.name == "level1").collect();
            assert_eq!(level1.len(), 1, "one level-1 step per walk");
            let attr = level1[0].attrs.iter().find(|(k, _)| k == "memo");
            attr.map(|(_, v)| v.clone()).unwrap()
        };
        let roi = |i: usize| {
            let (reader, region) = (&reader, &region);
            let want = [&a, &b][i].decompress_region(region).unwrap();
            move || {
                assert_eq!(reader.entry::<f32>(i).unwrap().decompress_region(region).unwrap(), want)
            }
        };
        assert_eq!(memo(&roi(0)), "fill");
        assert_eq!(memo(&roi(0)), "hit");
        let entry = reader.entry::<f32>(0).unwrap();
        let (level1, full) = (a.decompress_level(1).unwrap(), a.decompress().unwrap());
        assert_eq!(memo(&|| assert_eq!(entry.decompress_level(1).unwrap(), level1)), "hit");
        assert_eq!(memo(&|| assert_eq!(entry.decompress().unwrap(), full)), "hit");
        let (cropped, breakdown) = entry.decompress_region_with_breakdown(&region).unwrap();
        assert_eq!((cropped, breakdown.l1_sz3), (a.decompress_region(&region).unwrap(), 0.0));
        // Each entry keeps its own grid; a reader opened anew keeps none.
        assert_eq!(memo(&roi(1)), "fill");
        let reopened = ContainerReader::open(MemorySource::new(image)).unwrap();
        let fresh = || drop(reopened.entry::<f32>(0).unwrap().decompress_level(2).unwrap());
        assert_eq!(memo(&fresh), "fill");
        // `Debug` shows whether a slot is filled, not the grid.
        assert!(format!("{reader:?}").contains("level1: [Level1(filled), Level1(filled)]"));
    }

    #[test]
    fn a_corrupt_level1_section_fails_alike_on_every_walk_and_keeps_nothing() {
        let a = archive(0.0);
        let mut image = pack_to_vec(&[("a", &a)]).unwrap();
        let reader = ContainerReader::open(MemorySource::new(image.clone())).unwrap();
        let l1 = reader.records()[0].stz_detail().unwrap().l1;
        image[l1.off as usize] ^= 0xFF;
        let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
        let entry = reader.entry::<f32>(0).unwrap();
        let region = Region::d3(3..11, 2..17, 5..19);
        for _ in 0..2 {
            let errors = [
                entry.decompress().unwrap_err(),
                entry.decompress_level(1).unwrap_err(),
                entry.decompress_region(&region).unwrap_err(),
            ];
            for err in errors {
                assert!(err.to_string().contains("level-1 checksum mismatch"), "{err}");
            }
        }
        assert_eq!(format!("{reader:?}").matches("Level1(empty)").count(), 1);
    }
}
