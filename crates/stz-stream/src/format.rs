//! The on-disk container layout.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────────┐
//! │ 0x00  magic "STZC" │ version u8 │ reserved [u8; 3]                 │ 8 B
//! ├────────────────────────────────────────────────────────────────────┤
//! │ entry payloads, back to back                                       │
//! │   each payload = the raw bytes of one codec archive                │
//! │   (STZ: header · level-1 SZ3 stream · per-level sub-block streams; │
//! │    foreign codecs: the engine's own self-contained archive)        │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ footer: uvarint entry_count, then per entry                        │
//! │   name (length-prefixed) · codec id (u8)                           │
//! │   codec = stz:  archive parameters (type, dims, levels, interp,    │
//! │                 bounds, radius)                                    │
//! │                 payload {off, len, crc32} · level-1 {off,len,crc}  │
//! │                 per finer level: nblocks × {off, len, crc32}       │
//! │   other codecs: type, dims, error bound                            │
//! │                 payload {off, len, crc32}                          │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ trailer (fixed 24 B at EOF):                                       │
//! │   footer_off u64 │ footer_len u64 │ footer_crc32 u32 │ "STZE"      │
//! └────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Design notes, in the tradition of seekable production bitstreams:
//!
//! * **Footer-at-end** lets the writer stream payloads forward with bounded
//!   memory — offsets are only known after writing, and a reader finds the
//!   index with two small reads (trailer, then footer) regardless of file
//!   size.
//! * **All archive parameters are duplicated into the footer**, so serving
//!   metadata queries (`inspect`) or planning a region fetch touches zero
//!   payload bytes.
//! * **Per-section CRCs** (not one whole-file checksum) mean a reader that
//!   fetches 2% of the file verifies exactly that 2%.
//! * Offsets are absolute file positions; varint-encoded (the footer for a
//!   4-entry, 3-level container is ~600 bytes).
//! * **Per-entry codec ids** (format v2) let one container mix engines —
//!   e.g. an SZ3 section next to STZ time steps. Version-1 containers
//!   (which predate the codec byte) still parse; every v1 entry is STZ.
//!   Unknown codec ids parse (the foreign index layout is self-describing)
//!   so `inspect` can report them; *decoding* such an entry errors.

use crate::error::{Result, StreamError};
use stz_codec::{ByteReader, ByteWriter};
use stz_core::archive::ArchiveHeader;
use stz_core::level::LevelPlan;
use stz_core::InterpKind;
use stz_field::Dims;

/// Magic bytes opening a container file.
pub const CONTAINER_MAGIC: [u8; 4] = *b"STZC";
/// Magic bytes closing the trailer.
pub const TRAILER_MAGIC: [u8; 4] = *b"STZE";
/// Current *write-once* container format version (v2 added per-entry
/// codec ids). `pack` keeps emitting v2; only the mutable-archive path
/// produces [`MUTABLE_CONTAINER_VERSION`] files.
pub const CONTAINER_VERSION: u8 = 2;
/// Mutable container format version (v3): two shadow generation slots
/// after the header replace the EOF trailer, so commits flip between
/// slots instead of overwriting the only copy of the index pointer.
pub const MUTABLE_CONTAINER_VERSION: u8 = 3;
/// Oldest container format version this reader still parses.
pub const MIN_CONTAINER_VERSION: u8 = 1;
/// Size of the fixed file header.
pub const HEADER_LEN: u64 = 8;
/// Size of the fixed trailer at EOF.
pub const TRAILER_LEN: u64 = 24;
/// Magic bytes opening each v3 generation slot.
pub const GEN_SLOT_MAGIC: [u8; 4] = *b"STZG";
/// Size of one v3 generation slot.
pub const GEN_SLOT_LEN: u64 = 48;
/// Absolute offsets of the two alternating generation slots.
pub const GEN_SLOT_OFFSETS: [u64; 2] = [HEADER_LEN, HEADER_LEN + GEN_SLOT_LEN];
/// First payload byte of a v3 container (header + both slots).
pub const MUTABLE_DATA_START: u64 = HEADER_LEN + 2 * GEN_SLOT_LEN;
/// Upper bound on entries per container (index-bomb guard).
pub const MAX_ENTRIES: u64 = 1 << 20;
/// Upper bound on entry-name length in bytes.
pub const MAX_NAME_LEN: u64 = 4096;

/// Location + integrity of one independently fetchable byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionLoc {
    /// Absolute file offset.
    pub off: u64,
    /// Length in bytes.
    pub len: u64,
    /// CRC-32 of the section bytes.
    pub crc: u32,
}

/// Index detail of a native STZ entry: the archive's parameters plus the
/// location of every independently fetchable section.
#[derive(Debug, Clone)]
pub struct StzDetail {
    /// The archive's parameters, reconstructed without touching the payload.
    pub header: ArchiveHeader,
    /// The level-1 SZ3 stream.
    pub l1: SectionLoc,
    /// Finer-level sub-block streams: `blocks[k - 2][i]` for level `k`,
    /// block `i` (canonical order, matching `LevelPlan`).
    pub blocks: Vec<Vec<SectionLoc>>,
}

impl StzDetail {
    /// Compressed payload bytes needed for levels `1..=k` (the progressive
    /// I/O cost of this entry).
    pub fn bytes_through_level(&self, k: u8) -> u64 {
        if k == 0 {
            return 0;
        }
        let mut total = self.l1.len;
        for level in 2..=k {
            if let Some(blocks) = self.blocks.get(level as usize - 2) {
                total += blocks.iter().map(|b| b.len).sum::<u64>();
            }
        }
        total
    }
}

/// Index detail of a foreign-codec entry: the payload is one opaque,
/// self-contained archive of that codec, so the index carries only what
/// metadata queries need.
#[derive(Debug, Clone, Copy)]
pub struct ForeignDetail {
    /// Element type tag (0 = `f32`, 1 = `f64`).
    pub type_tag: u8,
    /// Grid extents of the encoded field.
    pub dims: Dims,
    /// Absolute point-wise error bound the entry was compressed with.
    pub eb: f64,
}

/// Per-codec index detail of one entry.
#[derive(Debug, Clone)]
pub enum EntryDetail {
    /// A native STZ archive with per-section index.
    Stz(StzDetail),
    /// A foreign codec's archive, indexed as a single payload section.
    Foreign(ForeignDetail),
}

/// One archive's index record in the footer.
#[derive(Debug, Clone)]
pub struct EntryRecord {
    /// Entry name (e.g. a field name or time-step label).
    pub name: String,
    /// Codec wire id (`stz_backend::id`); `stz_backend::id::STZ` for native
    /// entries, which are the only ids a v1 container can hold.
    pub codec: u8,
    /// The whole archive payload.
    pub payload: SectionLoc,
    /// Codec-specific index detail.
    pub detail: EntryDetail,
}

impl EntryRecord {
    /// Element type tag (0 = `f32`, 1 = `f64`).
    pub fn type_tag(&self) -> u8 {
        match &self.detail {
            EntryDetail::Stz(d) => d.header.type_tag,
            EntryDetail::Foreign(d) => d.type_tag,
        }
    }

    /// Grid extents of the encoded field.
    pub fn dims(&self) -> Dims {
        match &self.detail {
            EntryDetail::Stz(d) => d.header.dims,
            EntryDetail::Foreign(d) => d.dims,
        }
    }

    /// Absolute error bound at the finest level.
    pub fn eb(&self) -> f64 {
        match &self.detail {
            EntryDetail::Stz(d) => d.header.eb_finest,
            EntryDetail::Foreign(d) => d.eb,
        }
    }

    /// The STZ detail, if this is a native entry.
    pub fn stz_detail(&self) -> Option<&StzDetail> {
        match &self.detail {
            EntryDetail::Stz(d) => Some(d),
            EntryDetail::Foreign(_) => None,
        }
    }

    /// Compressed payload bytes needed for levels `1..=k` (the progressive
    /// I/O cost of this entry). Foreign codecs have no partial levels: any
    /// `k >= 1` costs the whole payload.
    pub fn bytes_through_level(&self, k: u8) -> u64 {
        match &self.detail {
            EntryDetail::Stz(d) => d.bytes_through_level(k),
            EntryDetail::Foreign(_) => {
                if k == 0 {
                    0
                } else {
                    self.payload.len
                }
            }
        }
    }
}

/// One committed generation of a mutable (v3) container: where its footer
/// lives and how far the committed bytes extend.
///
/// Two 48-byte slots at [`GEN_SLOT_OFFSETS`] alternate: a commit writes
/// the *inactive* slot and never touches the active one, so a crash at any
/// byte offset leaves at least one valid slot — the previous generation —
/// intact. Readers pick the valid slot with the highest generation number;
/// a slot whose magic or CRC does not check out is *torn* and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenSlot {
    /// Monotonic generation number (first commit = 1).
    pub generation: u64,
    /// Absolute offset of this generation's footer.
    pub footer_off: u64,
    /// Footer length in bytes.
    pub footer_len: u64,
    /// Total committed bytes: everything at or past this offset is
    /// uncommitted staging and must be ignored by readers.
    pub committed_len: u64,
    /// CRC-32 of the footer bytes.
    pub footer_crc: u32,
}

/// Serialize one 48-byte generation slot (magic · generation · footer
/// off/len · committed_len · footer CRC · reserved · slot CRC over the
/// preceding 44 bytes).
pub fn encode_gen_slot(s: &GenSlot) -> [u8; GEN_SLOT_LEN as usize] {
    let mut b = [0u8; GEN_SLOT_LEN as usize];
    b[0..4].copy_from_slice(&GEN_SLOT_MAGIC);
    b[4..12].copy_from_slice(&s.generation.to_le_bytes());
    b[12..20].copy_from_slice(&s.footer_off.to_le_bytes());
    b[20..28].copy_from_slice(&s.footer_len.to_le_bytes());
    b[28..36].copy_from_slice(&s.committed_len.to_le_bytes());
    b[36..40].copy_from_slice(&s.footer_crc.to_le_bytes());
    // b[40..44] reserved, zero.
    let crc = crate::crc::crc32(&b[0..44]);
    b[44..48].copy_from_slice(&crc.to_le_bytes());
    b
}

/// Parse one generation slot. `None` means the slot is torn or never
/// written (bad magic or CRC) — not an error by itself, because the
/// sibling slot may still hold a complete generation.
pub fn parse_gen_slot(b: &[u8; GEN_SLOT_LEN as usize]) -> Option<GenSlot> {
    if b[0..4] != GEN_SLOT_MAGIC {
        return None;
    }
    let stored = u32::from_le_bytes(b[44..48].try_into().expect("4 bytes"));
    if crate::crc::crc32(&b[0..44]) != stored {
        return None;
    }
    Some(GenSlot {
        generation: u64::from_le_bytes(b[4..12].try_into().expect("8 bytes")),
        footer_off: u64::from_le_bytes(b[12..20].try_into().expect("8 bytes")),
        footer_len: u64::from_le_bytes(b[20..28].try_into().expect("8 bytes")),
        committed_len: u64::from_le_bytes(b[28..36].try_into().expect("8 bytes")),
        footer_crc: u32::from_le_bytes(b[36..40].try_into().expect("4 bytes")),
    })
}

impl GenSlot {
    /// Whether the slot's ranges are self-consistent for a file of
    /// `file_len` bytes: the footer must sit between the data start and
    /// the committed tail, and the committed tail inside the file. A slot
    /// that fails this is treated the same as a torn one.
    pub fn plausible(&self, file_len: u64) -> bool {
        let Some(footer_end) = self.footer_off.checked_add(self.footer_len) else {
            return false;
        };
        self.generation > 0
            && self.footer_off >= MUTABLE_DATA_START
            && footer_end == self.committed_len
            && self.committed_len <= file_len
    }
}

fn interp_code(interp: InterpKind) -> u8 {
    match interp {
        InterpKind::Linear => 0,
        InterpKind::Cubic => 1,
    }
}

fn put_section(w: &mut ByteWriter, s: &SectionLoc) {
    w.put_uvarint(s.off);
    w.put_uvarint(s.len);
    w.put_u32(s.crc);
}

fn put_dims(w: &mut ByteWriter, dims: Dims) {
    w.put_u8(dims.ndim());
    let [nz, ny, nx] = dims.as_array();
    w.put_uvarint(nz as u64);
    w.put_uvarint(ny as u64);
    w.put_uvarint(nx as u64);
}

/// Serialize the footer (without trailer), always in the current version's
/// layout.
pub fn encode_footer(entries: &[EntryRecord]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + entries.len() * 160);
    w.put_uvarint(entries.len() as u64);
    for e in entries {
        w.put_block(e.name.as_bytes());
        w.put_u8(e.codec);
        match &e.detail {
            EntryDetail::Stz(d) => {
                let h = &d.header;
                w.put_u8(h.type_tag);
                put_dims(&mut w, h.dims);
                w.put_u8(h.levels);
                w.put_u8(interp_code(h.interp));
                w.put_u8(h.adaptive as u8);
                w.put_f64(h.adaptive_ratio);
                w.put_f64(h.eb_finest);
                w.put_uvarint(h.radius as u64);
                put_section(&mut w, &e.payload);
                put_section(&mut w, &d.l1);
                for level_blocks in &d.blocks {
                    w.put_uvarint(level_blocks.len() as u64);
                    for b in level_blocks {
                        put_section(&mut w, b);
                    }
                }
            }
            EntryDetail::Foreign(d) => {
                w.put_u8(d.type_tag);
                put_dims(&mut w, d.dims);
                w.put_f64(d.eb);
                put_section(&mut w, &e.payload);
            }
        }
    }
    w.finish()
}

fn get_section(r: &mut ByteReader<'_>) -> Result<SectionLoc> {
    Ok(SectionLoc { off: r.get_uvarint()?, len: r.get_uvarint()?, crc: r.get_u32()? })
}

/// Check a section lies inside `[lo, hi)`.
fn check_bounds(s: &SectionLoc, lo: u64, hi: u64, what: &str) -> Result<()> {
    let end = s
        .off
        .checked_add(s.len)
        .ok_or_else(|| StreamError::corrupt(format!("{what} section offset overflow")))?;
    if s.off < lo || end > hi {
        return Err(StreamError::corrupt(format!(
            "{what} section {}..{end} outside {lo}..{hi}",
            s.off
        )));
    }
    Ok(())
}

fn get_type_tag(r: &mut ByteReader<'_>) -> Result<u8> {
    let type_tag = r.get_u8()?;
    if type_tag > 1 {
        return Err(StreamError::unsupported(format!("element type tag {type_tag}")));
    }
    Ok(type_tag)
}

fn get_dims(r: &mut ByteReader<'_>) -> Result<Dims> {
    let ndim = r.get_u8()?;
    if !(1..=3).contains(&ndim) {
        return Err(StreamError::corrupt(format!("invalid ndim {ndim}")));
    }
    let nz = r.get_uvarint()?;
    let ny = r.get_uvarint()?;
    let nx = r.get_uvarint()?;
    if nz == 0
        || ny == 0
        || nx == 0
        || nz.saturating_mul(ny).saturating_mul(nx) > stz_sz3::stream::MAX_POINTS
    {
        return Err(StreamError::corrupt(format!("invalid dims {nz}x{ny}x{nx}")));
    }
    if (ndim < 3 && nz != 1) || (ndim < 2 && ny != 1) {
        return Err(StreamError::corrupt("dims inconsistent with ndim"));
    }
    // Entry dims size every decode-side work buffer downstream; reject
    // hostile geometry here, before any of them can be reserved.
    stz_codec::check_decode_alloc(
        nz.saturating_mul(ny).saturating_mul(nx),
        8,
        "container entry field",
    )?;
    Ok(Dims::from_parts(ndim, nz as usize, ny as usize, nx as usize))
}

/// Parse the body of one native STZ entry record (everything after the
/// codec id), shared by the v1, v2, and v3 layouts.
fn parse_stz_entry(
    r: &mut ByteReader<'_>,
    payload_lo: u64,
    payload_end: u64,
) -> Result<(SectionLoc, StzDetail)> {
    let type_tag = get_type_tag(r)?;
    let dims = get_dims(r)?;
    let levels = r.get_u8()?;
    if !(2..=4).contains(&levels) {
        return Err(StreamError::corrupt(format!("invalid level count {levels}")));
    }
    let interp = match r.get_u8()? {
        0 => InterpKind::Linear,
        1 => InterpKind::Cubic,
        k => return Err(StreamError::unsupported(format!("interp kind {k}"))),
    };
    let adaptive = match r.get_u8()? {
        0 => false,
        1 => true,
        k => return Err(StreamError::corrupt(format!("invalid adaptive flag {k}"))),
    };
    let adaptive_ratio = r.get_f64()?;
    if !(adaptive_ratio >= 1.0 && adaptive_ratio.is_finite()) {
        return Err(StreamError::corrupt(format!("invalid adaptive ratio {adaptive_ratio}")));
    }
    let eb_finest = r.get_f64()?;
    if !(eb_finest > 0.0 && eb_finest.is_finite()) {
        return Err(StreamError::corrupt(format!("invalid error bound {eb_finest}")));
    }
    let radius = r.get_uvarint()?;
    if radius == 0 || radius > i64::MAX as u64 {
        return Err(StreamError::corrupt("invalid quantizer radius"));
    }

    let header = ArchiveHeader {
        dims,
        type_tag,
        levels,
        interp,
        adaptive,
        adaptive_ratio,
        eb_finest,
        radius: radius as i64,
    };
    if header.config().usable_level_ebs(eb_finest).is_none() {
        return Err(StreamError::corrupt(format!(
            "error bound {eb_finest} leaves a level's bound zero"
        )));
    }

    let payload = get_section(r)?;
    check_bounds(&payload, payload_lo, payload_end, "payload")?;
    let payload_hi = payload.off + payload.len;
    let l1 = get_section(r)?;
    check_bounds(&l1, payload.off, payload_hi, "level-1")?;

    let plan = LevelPlan::new(header.dims, levels);
    let mut blocks = Vec::with_capacity(levels as usize - 1);
    for k in 2..=levels {
        let n = r.get_uvarint()?;
        if n > 8 {
            return Err(StreamError::corrupt(format!("level with {n} blocks")));
        }
        let expect = plan.levels[k as usize - 1].blocks.len();
        if n as usize != expect {
            return Err(StreamError::corrupt(format!(
                "level {k} has {n} blocks, geometry requires {expect}"
            )));
        }
        let mut level_blocks = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let b = get_section(r)?;
            check_bounds(&b, payload.off, payload_hi, "sub-block")?;
            level_blocks.push(b);
        }
        blocks.push(level_blocks);
    }
    Ok((payload, StzDetail { header, l1, blocks }))
}

/// Parse the body of one foreign-codec entry record (everything after the
/// codec id). The layout is codec-independent, so unknown codec ids still
/// index cleanly; only decoding them fails.
fn parse_foreign_entry(
    r: &mut ByteReader<'_>,
    payload_lo: u64,
    payload_end: u64,
) -> Result<(SectionLoc, ForeignDetail)> {
    let type_tag = get_type_tag(r)?;
    let dims = get_dims(r)?;
    let eb = r.get_f64()?;
    if !(eb > 0.0 && eb.is_finite()) {
        return Err(StreamError::corrupt(format!("invalid error bound {eb}")));
    }
    let payload = get_section(r)?;
    check_bounds(&payload, payload_lo, payload_end, "payload")?;
    Ok((payload, ForeignDetail { type_tag, dims, eb }))
}

/// Parse and validate a footer against the container's file length.
///
/// `version` is the container format version from the file header: v1
/// entries have no codec byte (all are STZ), v2 entries lead with one.
/// Validation mirrors `StzArchive::from_bytes`: every count, range and
/// parameter is cross-checked against the geometry implied by
/// `dims` + `levels`, so a forged index can never direct reads outside the
/// file or allocate disproportionately.
pub fn parse_footer(bytes: &[u8], file_len: u64, version: u8) -> Result<Vec<EntryRecord>> {
    parse_footer_bounded(bytes, HEADER_LEN, file_len.saturating_sub(TRAILER_LEN), version)
}

/// [`parse_footer`] with explicit payload bounds: every payload section
/// must lie inside `[payload_lo, payload_hi)`. The trailer-based layouts
/// (v1/v2) bound payloads by the footer's own start; the mutable layout
/// (v3) bounds them by the committed generation's footer offset, so
/// uncommitted staging bytes past the footer are unreachable by any
/// indexed read.
pub fn parse_footer_bounded(
    bytes: &[u8],
    payload_lo: u64,
    payload_hi: u64,
    version: u8,
) -> Result<Vec<EntryRecord>> {
    let payload_end = payload_hi;
    let mut r = ByteReader::new(bytes);
    let count = r.get_uvarint()?;
    if count > MAX_ENTRIES {
        return Err(StreamError::corrupt(format!("container claims {count} entries")));
    }
    let mut entries = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let name_bytes = r.get_block()?;
        if name_bytes.len() as u64 > MAX_NAME_LEN {
            return Err(StreamError::corrupt("entry name too long"));
        }
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| StreamError::corrupt("entry name is not UTF-8"))?
            .to_string();

        let codec = if version >= 2 { r.get_u8()? } else { stz_backend::id::STZ };
        let (payload, detail) = if codec == stz_backend::id::STZ {
            let (payload, d) = parse_stz_entry(&mut r, payload_lo, payload_end)?;
            (payload, EntryDetail::Stz(d))
        } else {
            let (payload, d) = parse_foreign_entry(&mut r, payload_lo, payload_end)?;
            (payload, EntryDetail::Foreign(d))
        };
        entries.push(EntryRecord { name, codec, payload, detail });
    }
    if r.remaining() != 0 {
        return Err(StreamError::corrupt("trailing bytes after footer entries"));
    }
    Ok(entries)
}

/// Serialize the fixed 24-byte trailer.
pub fn encode_trailer(footer_off: u64, footer_len: u64, footer_crc: u32) -> [u8; 24] {
    let mut t = [0u8; 24];
    t[0..8].copy_from_slice(&footer_off.to_le_bytes());
    t[8..16].copy_from_slice(&footer_len.to_le_bytes());
    t[16..20].copy_from_slice(&footer_crc.to_le_bytes());
    t[20..24].copy_from_slice(&TRAILER_MAGIC);
    t
}

/// Parse the trailer; returns `(footer_off, footer_len, footer_crc)`.
pub fn parse_trailer(t: &[u8; 24], file_len: u64) -> Result<(u64, u64, u32)> {
    if t[20..24] != TRAILER_MAGIC {
        return Err(StreamError::corrupt("bad container trailer magic"));
    }
    let footer_off = u64::from_le_bytes(t[0..8].try_into().expect("8 bytes"));
    let footer_len = u64::from_le_bytes(t[8..16].try_into().expect("8 bytes"));
    let footer_crc = u32::from_le_bytes(t[16..20].try_into().expect("4 bytes"));
    let end = footer_off
        .checked_add(footer_len)
        .ok_or_else(|| StreamError::corrupt("footer range overflow"))?;
    let payload_end = file_len
        .checked_sub(TRAILER_LEN)
        .ok_or_else(|| StreamError::corrupt("file too short for a trailer"))?;
    if footer_off < HEADER_LEN || end != payload_end {
        return Err(StreamError::corrupt(format!(
            "footer range {footer_off}..{end} inconsistent with file length {file_len}"
        )));
    }
    Ok((footer_off, footer_len, footer_crc))
}
