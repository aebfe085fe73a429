//! Incremental container writer, and [`PackEntry`], the one payload type
//! every writer takes: [`ContainerWriter::add_entry`],
//! [`pack_pipelined`](crate::pack_pipelined), and the mutable container's
//! and the access layer's append and replace.

use crate::crc::crc32;
use crate::format::{
    encode_footer, encode_trailer, EntryDetail, EntryRecord, ForeignDetail, SectionLoc, StzDetail,
    CONTAINER_MAGIC, CONTAINER_VERSION,
};
use std::io::Write;
use std::path::Path;
use stz_codec::{CodecError, Result};
use stz_core::StzArchive;
use stz_field::{Dims, Scalar};

/// Chunk size for streaming payload bytes to the sink.
const COPY_CHUNK: usize = 64 * 1024;

/// A compressed field from a non-STZ codec, ready to be packed as a
/// container entry.
///
/// The bytes are one self-contained archive of the codec identified by
/// `codec` (a `stz_backend::id` wire id); the container indexes it as a
/// single payload section. `dims`/`type_tag`/`eb` are duplicated into the
/// footer so `inspect` and fetch planning never touch the payload.
#[derive(Debug, Clone)]
pub struct ForeignArchive {
    /// Codec wire id (must not be `stz_backend::id::STZ` — native archives
    /// pack through [`ContainerWriter::add_archive`] with a full section
    /// index).
    pub codec: u8,
    /// Element type tag (0 = `f32`, 1 = `f64`).
    pub type_tag: u8,
    /// Grid extents of the encoded field.
    pub dims: Dims,
    /// Absolute point-wise error bound used at compression.
    pub eb: f64,
    /// The codec's archive bytes.
    pub bytes: Vec<u8>,
}

impl ForeignArchive {
    /// Build a record for `bytes` compressed from a `T` field.
    pub fn new<T: Scalar>(codec: u8, dims: Dims, eb: f64, bytes: Vec<u8>) -> Self {
        ForeignArchive { codec, type_tag: T::TYPE_TAG, dims, eb, bytes }
    }
}

/// One entry's payload, ready to be packed, appended or replaced: a native
/// STZ archive over either element type (indexed per section, so streamed
/// queries fetch only what they need) or a foreign codec's archive
/// (indexed as one opaque payload). Every writer takes this one type, so a
/// single run may mix element types and codecs.
#[derive(Debug, Clone)]
pub enum PackEntry {
    /// A native STZ archive over `f32`.
    F32(StzArchive<f32>),
    /// A native STZ archive over `f64`.
    F64(StzArchive<f64>),
    /// A foreign codec's archive.
    Foreign(ForeignArchive),
}

impl From<StzArchive<f32>> for PackEntry {
    fn from(archive: StzArchive<f32>) -> Self {
        PackEntry::F32(archive)
    }
}

impl From<StzArchive<f64>> for PackEntry {
    fn from(archive: StzArchive<f64>) -> Self {
        PackEntry::F64(archive)
    }
}

impl From<ForeignArchive> for PackEntry {
    fn from(foreign: ForeignArchive) -> Self {
        PackEntry::Foreign(foreign)
    }
}

impl PackEntry {
    /// Parse a bare STZ archive, as the element type its header names.
    /// Dispatches on the header's type tag rather than parse-and-retry on a
    /// copy; a wrong tag still ends in `StzArchive::from_bytes`'s own
    /// validation error.
    pub fn from_stz_bytes(bytes: Vec<u8>) -> Result<PackEntry> {
        if stz_core::archive::type_tag(&bytes) == Some(f64::TYPE_TAG) {
            StzArchive::from_bytes(bytes).map(PackEntry::F64)
        } else {
            StzArchive::from_bytes(bytes).map(PackEntry::F32)
        }
    }

    /// Parse a bare archive of any backend, as the magic of `bytes` names
    /// it: an STZ archive as [`PackEntry::from_stz_bytes`] does, a foreign
    /// one as one [`PackEntry::Foreign`] entry of the element type, dims and
    /// bound its header records (`Codec::describe`). Nothing is decoded: a
    /// payload cut short after its header fails the fetch that decodes it,
    /// as a foreign container entry's does.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<PackEntry> {
        let codec = match stz_backend::registry().detect(&bytes) {
            Some(codec) if codec.id() != stz_backend::id::STZ => codec,
            _ => return PackEntry::from_stz_bytes(bytes),
        };
        let stz_backend::ArchiveInfo { type_tag, dims, eb } = codec.describe(&bytes)?;
        Ok(PackEntry::Foreign(ForeignArchive { codec: codec.id(), type_tag, dims, eb, bytes }))
    }

    /// The payload bytes: the archive exactly as a bare file holds it.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            PackEntry::F32(a) => a.as_bytes(),
            PackEntry::F64(a) => a.as_bytes(),
            PackEntry::Foreign(f) => &f.bytes,
        }
    }
}

/// Build the footer index record for `entry` as if its payload bytes
/// began at absolute file offset `base`, returning the record and the
/// payload bytes to write there.
///
/// This is the single source of truth for entry indexing: the write-once
/// [`ContainerWriter`] and the mutable-archive append path both call it,
/// so an appended entry is indexed byte-identically to a packed one.
/// Validates the same invariants the reader enforces (codec 0 must use
/// the STZ layout, type tags ≤ 1, finite positive error bounds, the
/// point cap), so a writer can never emit an entry its own reader
/// rejects.
pub fn index_pack_entry<'e>(
    name: &str,
    entry: &'e PackEntry,
    base: u64,
) -> Result<(EntryRecord, &'e [u8])> {
    match entry {
        PackEntry::F32(archive) => Ok(index_stz_archive(name, archive, base)),
        PackEntry::F64(archive) => Ok(index_stz_archive(name, archive, base)),
        PackEntry::Foreign(foreign) => index_foreign_archive(name, foreign, base),
    }
}

/// Index one native STZ archive's sections as if its bytes began at
/// absolute offset `base`. See [`index_pack_entry`].
pub fn index_stz_archive<'e, T: Scalar>(
    name: &str,
    archive: &'e StzArchive<T>,
    base: u64,
) -> (EntryRecord, &'e [u8]) {
    let bytes = archive.as_bytes();
    // Index every independently fetchable section, relative to `base`.
    let abs = |r: std::ops::Range<usize>| -> SectionLoc {
        SectionLoc {
            off: base + r.start as u64,
            len: (r.end - r.start) as u64,
            crc: crc32(&bytes[r]),
        }
    };
    let l1 = abs(archive.l1_range());
    let plan = archive.plan();
    let mut blocks = Vec::with_capacity(archive.num_levels() as usize - 1);
    for level in &plan.levels[1..] {
        let level_blocks: Vec<SectionLoc> =
            (0..level.blocks.len()).map(|i| abs(archive.block_range(level.index, i))).collect();
        blocks.push(level_blocks);
    }
    let payload = SectionLoc { off: base, len: bytes.len() as u64, crc: crc32(bytes) };
    (
        EntryRecord {
            name: name.to_string(),
            codec: stz_backend::id::STZ,
            payload,
            detail: EntryDetail::Stz(StzDetail { header: archive.header().clone(), l1, blocks }),
        },
        bytes,
    )
}

/// Validate and index one foreign-codec archive as a single payload
/// section at `base`. See [`index_pack_entry`].
pub fn index_foreign_archive<'e>(
    name: &str,
    foreign: &'e ForeignArchive,
    base: u64,
) -> Result<(EntryRecord, &'e [u8])> {
    if foreign.codec == stz_backend::id::STZ {
        return Err(CodecError::unsupported(
            "codec id 0 (stz) entries must be added as indexed archives, not foreign blobs",
        ));
    }
    if foreign.type_tag > 1 {
        return Err(CodecError::unsupported(format!("element type tag {}", foreign.type_tag)));
    }
    if !(foreign.eb > 0.0 && foreign.eb.is_finite()) {
        return Err(CodecError::corrupt(format!("invalid error bound {}", foreign.eb)));
    }
    // Mirror the reader's dims cap so the writer can never emit a
    // container its own reader rejects.
    if foreign.dims.len() as u64 > stz_sz3::stream::MAX_POINTS {
        return Err(CodecError::corrupt(format!(
            "dims {:?} exceed the container point cap",
            foreign.dims
        )));
    }
    let payload =
        SectionLoc { off: base, len: foreign.bytes.len() as u64, crc: crc32(&foreign.bytes) };
    Ok((
        EntryRecord {
            name: name.to_string(),
            codec: foreign.codec,
            payload,
            detail: EntryDetail::Foreign(ForeignDetail {
                type_tag: foreign.type_tag,
                dims: foreign.dims,
                eb: foreign.eb,
            }),
        },
        &foreign.bytes,
    ))
}

/// Streams archives into a container with bounded memory.
///
/// Entries are written strictly forward — payload bytes go to the sink in
/// 64 KiB pieces and are never buffered whole — while the
/// writer accumulates only the per-entry index records (a few hundred bytes
/// each). Packing a long time-step sequence therefore needs memory
/// proportional to *one* archive (the one currently being added), not the
/// dataset: compress a step, [`add_archive`](ContainerWriter::add_archive)
/// it, drop it, repeat.
///
/// [`finish`](ContainerWriter::finish) writes the footer index and trailer;
/// a container without a trailer (writer crashed mid-stream) is rejected by
/// the reader.
///
/// To overlap compression with writing, see
/// [`pack_pipelined`](crate::pack_pipelined), which drives a
/// `ContainerWriter` from a pool of compression workers while preserving
/// the exact bytes of a sequential pack.
#[derive(Debug)]
pub struct ContainerWriter<W: Write> {
    out: W,
    /// Absolute offset of the next byte to be written.
    pos: u64,
    entries: Vec<EntryRecord>,
}

impl<W: Write> ContainerWriter<W> {
    /// Start a container on `out` (writes the 8-byte file header).
    pub fn new(mut out: W) -> Result<Self> {
        out.write_all(&CONTAINER_MAGIC)?;
        out.write_all(&[CONTAINER_VERSION, 0, 0, 0])?;
        Ok(ContainerWriter { out, pos: crate::format::HEADER_LEN, entries: Vec::new() })
    }

    /// Number of entries added so far.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Stream `bytes` to the sink in bounded chunks (the index record
    /// already carries their CRC).
    fn write_payload(&mut self, bytes: &[u8]) -> Result<()> {
        for chunk in bytes.chunks(COPY_CHUNK) {
            self.out.write_all(chunk)?;
        }
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Write one indexed entry's payload and keep its record.
    fn push(&mut self, (record, bytes): (EntryRecord, &[u8])) -> Result<()> {
        self.write_payload(bytes)?;
        self.entries.push(record);
        Ok(())
    }

    /// Append one native STZ archive as entry `name`.
    ///
    /// The archive's section layout (level-1 stream, per-level sub-block
    /// streams) is indexed and checksummed from its existing layout
    /// accessors (via [`index_stz_archive`]); the payload bytes are copied
    /// through verbatim, so a container entry decompresses bit-identically
    /// to the archive it came from.
    pub fn add_archive<T: Scalar>(&mut self, name: &str, archive: &StzArchive<T>) -> Result<()> {
        self.push(index_stz_archive(name, archive, self.pos))
    }

    /// Append one foreign-codec archive as entry `name`.
    ///
    /// The payload is copied through verbatim and indexed as a single
    /// section (via [`index_foreign_archive`]); metadata (`dims`, element
    /// type, error bound) is duplicated into the footer. Native STZ
    /// archives must go through
    /// [`add_archive`](ContainerWriter::add_archive) instead, which indexes
    /// their sections for streamed queries.
    pub fn add_foreign(&mut self, name: &str, foreign: &ForeignArchive) -> Result<()> {
        self.push(index_foreign_archive(name, foreign, self.pos)?)
    }

    /// Append one [`PackEntry`] (native or foreign) as entry `name`.
    pub fn add_entry(&mut self, name: &str, entry: &PackEntry) -> Result<()> {
        self.push(index_pack_entry(name, entry, self.pos)?)
    }

    /// Write the footer and trailer, returning the sink.
    pub fn finish(mut self) -> Result<W> {
        let footer = encode_footer(&self.entries);
        let footer_off = self.pos;
        self.out.write_all(&footer)?;
        let trailer = encode_trailer(footer_off, footer.len() as u64, crc32(&footer));
        self.out.write_all(&trailer)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Pack archives into a container file at `path` (single-shot convenience;
/// for bounded-memory packing of many entries, drive a [`ContainerWriter`]
/// directly and drop each archive after adding it).
pub fn pack_to_file<T: Scalar>(
    path: impl AsRef<Path>,
    entries: &[(&str, &StzArchive<T>)],
) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = ContainerWriter::new(std::io::BufWriter::new(file))?;
    for (name, archive) in entries {
        w.add_archive(name, archive)?;
    }
    w.finish()?;
    Ok(())
}

/// Pack archives into an in-memory container image.
pub fn pack_to_vec<T: Scalar>(entries: &[(&str, &StzArchive<T>)]) -> Result<Vec<u8>> {
    let mut w = ContainerWriter::new(Vec::new())?;
    for (name, archive) in entries {
        w.add_archive(name, archive)?;
    }
    w.finish()
}
