//! # stz-stream — out-of-core archive container + streaming I/O
//!
//! The STZ compressor's headline features are *streaming*: progressive
//! previews and random-access ROI decompression from a fraction of the
//! archive bytes. This crate turns those fractions into real disk I/O
//! savings with a seekable on-disk container:
//!
//! * [`ContainerWriter`] serializes one or more [`StzArchive`](stz_core::StzArchive)s (e.g. the
//!   fields of a time-step sequence) incrementally, with bounded memory,
//!   into a versioned format — magic + header, concatenated payloads, a
//!   footer index of every independently fetchable section (with per-section
//!   CRC-32), and a fixed trailer (see [`mod@format`] for the layout,
//!   `docs/FORMAT.md` for the normative spec).
//! * [`ContainerReader`] opens any [`ByteSource`] — a file
//!   ([`FileSource`]), a memory buffer ([`MemorySource`]), or an
//!   instrumented wrapper ([`CountingSource`]) — with two small reads, then
//!   serves `decompress`, `decompress_level`, `decompress_region` and
//!   progressive refinement through typed [`EntryReader`]s that fetch *only*
//!   the byte ranges a query needs.
//! * [`pack_pipelined`] overlaps compression and writing: entries compress
//!   on worker threads while the writer appends them in order, producing
//!   bytes identical to a sequential pack with memory bounded by a sliding
//!   window.
//!
//! The heavy lifting is shared with the in-memory path: `stz-core`'s decode
//! drivers are generic over [`stz_core::SectionSource`], implemented with
//! positioned reads by [`StzSections`] — the section view an [`EntryReader`]
//! exposes for native STZ entries. Disk-backed results are therefore
//! **bit-identical** to resident-archive results by construction — the same
//! driver runs over both — and the paper's decode-skipping logic doubles as
//! an I/O planner: a sub-block the query skips is a byte range the disk
//! never serves. Foreign-codec entries (container format v2 records a codec
//! id per entry) decode through the `stz-backend` registry instead, as one
//! whole-payload fetch.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! ## Quick start
//!
//! ```
//! use stz_core::{StzCompressor, StzConfig};
//! use stz_field::{Dims, Field, Region};
//! use stz_stream::{pack_to_vec, ContainerReader, MemorySource};
//!
//! let field = Field::from_fn(Dims::d3(24, 24, 24), |z, y, x| {
//!     ((z as f32) * 0.3).sin() + ((y as f32) * 0.2).cos() + x as f32 * 0.01
//! });
//! let archive = StzCompressor::new(StzConfig::three_level(1e-3))
//!     .compress(&field)
//!     .unwrap();
//!
//! // Pack (normally to a file via `pack_to_file` / `ContainerWriter`).
//! let image = pack_to_vec(&[("density", &archive)]).unwrap();
//!
//! // Reopen and query out-of-core.
//! let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
//! let entry = reader.entry_by_name::<f32>("density").unwrap();
//! let preview = entry.decompress_level(1).unwrap();          // ~1.6% of bytes
//! let roi = entry.decompress_region(&Region::d3(4..12, 4..12, 4..12)).unwrap();
//! assert_eq!(preview.dims(), Dims::d3(6, 6, 6));
//! assert_eq!(roi, archive.decompress_region(&Region::d3(4..12, 4..12, 4..12)).unwrap());
//! ```

#![warn(missing_docs)]

pub mod byte_source;
pub mod crc;
pub mod format;
pub mod pipeline;
pub mod reader;
pub mod writer;

pub use byte_source::{ByteSource, CountingSource, FileSource, MemorySource};
pub use pipeline::{pack_pipelined, run_pipelined};
pub use reader::{ContainerReader, EntryMeta, EntryReader, StzSections};
pub use writer::{
    index_foreign_archive, index_pack_entry, index_stz_archive, pack_to_file, pack_to_vec,
    ContainerWriter, ForeignArchive, PackEntry,
};

/// Exists only because `benchmark/src/ingest_live.rs` names `StreamError`.
pub use stz_codec::{CodecError as StreamError, Result};

/// Sniff whether `bytes` begin with the container magic (vs. a bare
/// `StzArchive` stream or something else entirely).
pub fn is_container_prefix(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[0..4] == format::CONTAINER_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use stz_core::{StzArchive, StzCompressor, StzConfig};
    use stz_field::{Dims, Field};

    fn archive(seed: f32) -> StzArchive<f32> {
        let f = Field::from_fn(Dims::d3(16, 16, 16), |z, y, x| {
            ((z as f32) * 0.2 + seed).sin() + ((y as f32) * 0.1).cos() + x as f32 * 0.01
        });
        StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap()
    }

    #[test]
    fn multi_entry_roundtrip_in_memory() {
        let (a, b) = (archive(0.0), archive(1.0));
        let image = pack_to_vec(&[("t0", &a), ("t1", &b)]).unwrap();
        assert!(is_container_prefix(&image));
        let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
        assert_eq!(reader.entry_count(), 2);
        assert_eq!(reader.find("t1"), Some(1));
        let names: Vec<&str> = reader.entries().map(|e| e.name()).collect();
        assert_eq!(names, ["t0", "t1"]);
        for (i, orig) in [&a, &b].into_iter().enumerate() {
            let entry = reader.entry::<f32>(i).unwrap();
            assert_eq!(entry.decompress().unwrap(), orig.decompress().unwrap());
            assert_eq!(
                entry.read_archive().unwrap().as_bytes(),
                orig.as_bytes(),
                "payload must round-trip bit-identically"
            );
        }
    }

    #[test]
    fn wrong_type_and_missing_entries_rejected() {
        let a = archive(0.5);
        let image = pack_to_vec(&[("x", &a)]).unwrap();
        let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
        assert!(reader.entry::<f64>(0).is_err());
        assert!(reader.entry::<f32>(1).is_err());
        assert!(reader.entry_by_name::<f32>("y").is_err());
        assert!(reader.entry_by_name::<f32>("x").is_ok());
    }
}
