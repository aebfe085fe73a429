//! [`EntryDesc`] and [`ContainerDesc`] — the one description of an entry
//! and of a container, from the footer to the wire.
//!
//! A reader plans a fetch from these alone: dims, element type, codec,
//! hierarchy depth and the cumulative bytes of each level, with no payload
//! byte read. Every store of the access layer lists them, the server's
//! `INSPECT_OK` and `LIST_OK` frames carry them field for field, and the
//! CLI renders them — so every transport describes an entry with the same
//! value.

use crate::EntryMeta;
use stz_core::InterpKind;
use stz_field::Dims;

/// What every store reports about one entry, regardless of where the
/// bytes live: one container footer row.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryDesc {
    /// Position of the entry in the store's listing order.
    pub index: u32,
    /// Entry name (e.g. a field name or time-step label).
    pub name: String,
    /// Codec wire id of the payload (see `stz_backend::id`).
    pub codec_id: u8,
    /// Element type tag (0 = `f32`, 1 = `f64`).
    pub type_tag: u8,
    /// Grid extents of the encoded field.
    pub dims: Dims,
    /// Absolute point-wise error bound (finest level for STZ entries).
    pub eb: f64,
    /// Compressed payload size in bytes.
    pub compressed_len: u64,
    /// CRC-32 of the whole compressed payload.
    pub payload_crc: u32,
    /// Independently fetchable sections (1 for foreign codecs).
    pub sections: u32,
    /// Hierarchy depth (0 for foreign codecs).
    pub levels: u8,
    /// Interpolation kind of the stz hierarchy (0 = none/foreign,
    /// 1 = linear, 2 = cubic).
    pub interp: u8,
    /// Cumulative compressed bytes through level `k` (`levels` values;
    /// empty for foreign codecs).
    pub level_bytes: Vec<u64>,
}

/// Map an [`InterpKind`] to the byte [`EntryDesc::interp`] holds.
fn interp_tag(interp: Option<InterpKind>) -> u8 {
    match interp {
        Some(InterpKind::Linear) => 1,
        Some(InterpKind::Cubic) => 2,
        None => 0,
    }
}

impl EntryDesc {
    /// Describe one container entry from its footer row; no payload bytes
    /// are touched. The one constructor: every store, a memory store
    /// included, lists footer rows.
    pub fn from_meta(index: u32, meta: &EntryMeta<'_>) -> EntryDesc {
        let levels = meta.header().map(|h| h.levels).unwrap_or(0);
        EntryDesc {
            index,
            name: meta.name().to_string(),
            codec_id: meta.codec_id(),
            type_tag: meta.type_tag(),
            dims: meta.dims(),
            eb: meta.error_bound(),
            compressed_len: meta.compressed_len(),
            payload_crc: meta.payload_crc(),
            sections: meta.section_count() as u32,
            levels,
            interp: interp_tag(meta.header().map(|h| h.interp)),
            level_bytes: (1..=levels).map(|k| meta.bytes_through_level(k)).collect(),
        }
    }

    /// Registry name of the entry's codec, or `None` when this build does
    /// not know the id.
    pub fn codec_name(&self) -> Option<&'static str> {
        stz_backend::registry().by_id(self.codec_id).map(|c| c.name())
    }

    /// `"f32"` / `"f64"`.
    pub fn type_name(&self) -> &'static str {
        if self.type_tag == 0 {
            "f32"
        } else {
            "f64"
        }
    }

    /// Interpolation-kind label of the stz hierarchy (`None` for foreign
    /// codecs or an interp code this build does not know).
    pub fn interp_name(&self) -> Option<&'static str> {
        match self.interp {
            1 => Some("linear"),
            2 => Some("cubic"),
            _ => None,
        }
    }
}

/// One container, as a server's `LIST_OK` or a directory scan reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerDesc {
    /// Container name (file stem; what fetch URIs address).
    pub name: String,
    /// Number of entries in its index.
    pub entries: u32,
    /// Size of the container file in bytes.
    pub bytes: u64,
}
