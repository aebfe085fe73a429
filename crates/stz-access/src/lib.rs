//! # stz-access — one read surface for in-memory, on-disk, and remote archives
//!
//! The workspace grew three incompatible ways to read compressed fields:
//! resident [`StzArchive`](stz_core::StzArchive)s, on-disk containers via
//! [`stz_stream::ContainerReader`], and the STZP network client
//! ([`stz_serve::Client`]). Every consumer — CLI, benches, examples — had to
//! pick a transport up front and re-implement its fetch logic per transport.
//!
//! This crate collapses them behind two object-safe traits:
//!
//! * [`Store`] — a collection of entries somewhere: [`list`](Store::list)
//!   the [`EntryDesc`]s, [`open`](Store::open) one by [`EntrySel`].
//! * [`Entry`] — one opened entry: serve any [`Fetch`] request, returning a
//!   [`FetchedField`] whose bytes are **identical across transports** — the
//!   core decode drivers are shared, so a `MemStore`, `FileStore`, and
//!   `RemoteStore` answering the same `Fetch` produce the same bytes, and
//!   the access-matrix integration test pins that.
//!
//! Three stores ship:
//!
//! | store | wraps | bytes live |
//! |---|---|---|
//! | [`MemStore`] | `StzArchive` / `ForeignArchive` | in this process |
//! | [`FileStore`] | `ContainerReader` over any [`ByteSource`](stz_stream::ByteSource) | on disk (or wherever the source reads) |
//! | [`RemoteStore`] | `stz_serve::Client` | behind an STZP server |
//!
//! [`open_store`] turns a location string — a filesystem path or an
//! `stz://host:port/container` URI — into the right `Box<dyn Store>`, which
//! is how the CLI serves `list` / `inspect` / `extract` / `preview` from a
//! single `--from` flag with one code path per verb.
//!
//! Errors fold onto one taxonomy ([`AccessError`]) on every transport: a
//! missing entry is `NotFound` whether the lookup failed in a `Vec`, a
//! footer index, or an `INSPECT` round-trip. See `docs/ACCESS.md` for the
//! normative contract.
//!
//! ## Quick start
//!
//! ```
//! use stz_access::{EntrySel, Fetch, MemStore, Store};
//! use stz_core::{StzCompressor, StzConfig};
//! use stz_field::{Dims, Field, Region};
//!
//! let field = Field::from_fn(Dims::d3(16, 16, 16), |z, y, x| {
//!     ((z as f32) * 0.3).sin() + ((y as f32) * 0.2).cos() + x as f32 * 0.01
//! });
//! let archive = StzCompressor::new(StzConfig::three_level(1e-3))
//!     .compress(&field)
//!     .unwrap();
//!
//! let mut store = MemStore::new();
//! store.add("density", archive);
//!
//! // The same calls work verbatim against a FileStore or RemoteStore.
//! let entry = store.open(&EntrySel::Name("density".into())).unwrap();
//! let preview = entry.fetch(&Fetch::Level(1)).unwrap();
//! let roi = entry.fetch(&Fetch::Region(Region::d3(2..6, 0..16, 4..8))).unwrap();
//! assert_eq!(preview.dims, Dims::d3(4, 4, 4));
//! assert_eq!(roi.dims, Dims::d3(4, 16, 4));
//! ```

#![warn(missing_docs)]

pub mod desc;
pub mod error;
pub mod file;
pub mod mem;
pub mod remote;
pub mod uri;
pub mod write;

pub use desc::EntryDesc;
pub use error::{AccessError, Result};
pub use file::FileStore;
pub use mem::MemStore;
pub use remote::{list_containers, ContainerDesc, RemoteStore};
pub use uri::{is_container_path, list_location, open_store, Location};
pub use write::{
    open_store_mut, CompactReport, EntryMut, EntryPayload, FileStoreMut, MutStatus, StoreMut,
};

// One selector type across the whole stack: the access layer and the wire
// protocol address entries identically.
pub use stz_serve::EntrySel;

use stz_core::{ProgressiveDecoder, SectionSource};
use stz_field::{Dims, Field, Region, Scalar};

/// A typed read request — the one vocabulary every transport serves.
#[derive(Debug, Clone, PartialEq)]
pub enum Fetch {
    /// Full-resolution decode of the whole entry.
    Full,
    /// Preview through hierarchy level `k` (1 = coarsest). STZ entries
    /// only.
    Level(u8),
    /// Full-resolution decode of a region (half-open bounds). STZ entries
    /// read only the intersecting sections; foreign entries decode fully
    /// and crop.
    Region(Region),
    /// Preview through level `k`, produced by the *incremental* refinement
    /// path (one level at a time) instead of the direct preview decode.
    /// Byte-identical to [`Fetch::Level`] by construction; on the wire both
    /// travel as `FETCH_PROGRESSIVE`. STZ entries only.
    Progressive(u8),
    /// The compressed payload bytes of raw section `s`, undecoded.
    /// Section `0` — the whole payload — is the only index every
    /// transport can address today; other indices are `Unsupported`.
    RawSection(u32),
}

impl Fetch {
    /// Whether the fetched bytes are compressed payload (not decoded
    /// scalars).
    pub fn is_raw(&self) -> bool {
        matches!(self, Fetch::RawSection(_))
    }
}

/// Where fetched bytes came from — diagnostic provenance, the one field of
/// a [`FetchedField`] that legitimately differs across transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// A resident archive in this process.
    Memory,
    /// A container file (label is the path or source description).
    File(String),
    /// An STZP server (label is `host:port/container`).
    Remote(String),
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Provenance::Memory => write!(f, "memory"),
            Provenance::File(label) => write!(f, "file:{label}"),
            Provenance::Remote(label) => write!(f, "stz://{label}"),
        }
    }
}

/// The result of a [`Fetch`]: data + dims + codec + provenance.
///
/// For decoded fetches, `data` is the raw little-endian scalars of the
/// decoded block (`dims.len() * bytes_per` long) — the exact bytes a local
/// decode followed by `write_raw` would produce. For
/// [`Fetch::RawSection`], `data` is the compressed payload and
/// `dims`/`type_tag` describe the *encoded* field, not the byte layout.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedField {
    /// The request that produced this field.
    pub fetch: Fetch,
    /// Grid extents of the decoded block (entry extents for raw fetches).
    pub dims: Dims,
    /// Element type tag (0 = `f32`, 1 = `f64`).
    pub type_tag: u8,
    /// Codec wire id of the entry's payload.
    pub codec_id: u8,
    /// The fetched bytes (see type-level docs).
    pub data: Vec<u8>,
    /// Where the bytes came from.
    pub provenance: Provenance,
}

impl FetchedField {
    /// Build a decoded result from `walk` through level `k`, its answer
    /// stored as little-endian scalars straight into `data`: how every
    /// store answers a decoded fetch of a native entry, as the server
    /// answers one into its response frame.
    pub(crate) fn from_walk<T: Scalar, S: SectionSource + ?Sized>(
        fetch: Fetch,
        codec_id: u8,
        walk: ProgressiveDecoder<'_, T, S>,
        k: u8,
        provenance: Provenance,
    ) -> Result<FetchedField> {
        let mut answer = None;
        walk.decode_to_le(k, |dims| &mut answer.insert((dims, vec![0; dims.len() * T::BYTES])).1)?;
        let (dims, data) = answer.expect("a decoded walk asked for its memory");
        Ok(FetchedField { fetch, dims, type_tag: T::TYPE_TAG, codec_id, data, provenance })
    }

    /// Build a decoded result from a field a foreign codec decoded.
    pub(crate) fn from_field<T: Scalar>(
        fetch: Fetch,
        codec_id: u8,
        field: &Field<T>,
        provenance: Provenance,
    ) -> FetchedField {
        let mut data = Vec::with_capacity(field.nbytes());
        T::write_slice_exact(field.as_slice(), &mut data);
        FetchedField {
            fetch,
            dims: field.dims(),
            type_tag: T::TYPE_TAG,
            codec_id,
            data,
            provenance,
        }
    }

    /// Reinterpret a decoded fetch as a typed field. Fails on a type
    /// mismatch or a raw fetch.
    pub fn into_field<T: Scalar>(self) -> Result<Field<T>> {
        if self.fetch.is_raw() {
            return Err(AccessError::bad_request(
                "a raw-section fetch carries compressed bytes, not a decodable field",
            ));
        }
        if self.type_tag != T::TYPE_TAG {
            return Err(AccessError::bad_request(format!(
                "fetched element type tag {} does not match the requested type",
                self.type_tag
            )));
        }
        let values: Vec<T> = self.data.chunks_exact(T::BYTES).map(T::read_exact).collect();
        Ok(Field::from_vec(self.dims, values))
    }
}

/// A collection of compressed entries somewhere — in memory, on disk, or
/// behind a server. Object-safe; `&self` methods so one store can serve
/// concurrent readers (remote stores serialize internally).
pub trait Store: Send + Sync {
    /// Human-readable location (path, URI, …) for diagnostics.
    fn locate(&self) -> String;

    /// Describe every entry, in store order.
    fn list(&self) -> Result<Vec<EntryDesc>>;

    /// Open one entry for fetching.
    fn open(&self, sel: &EntrySel) -> Result<Box<dyn Entry>>;
}

/// One opened entry: a location-transparent fetch handle.
pub trait Entry: Send + Sync {
    /// The entry's descriptor (resolved at open time; no payload reads).
    fn desc(&self) -> &EntryDesc;

    /// Serve one [`Fetch`]. Identical requests against identical entries
    /// return byte-identical [`FetchedField::data`] on every transport.
    fn fetch(&self, fetch: &Fetch) -> Result<FetchedField>;
}

/// Record one completed fetch into the process-wide telemetry registry:
/// `stz_access_fetch_total`, `stz_access_fetch_bytes_total`, and the
/// `stz_access_fetch_latency_ns` histogram, all labeled by `transport`
/// (`"memory"`, `"file"`, or `"remote"`). Called by every store's
/// [`Entry::fetch`] on success, so the three transports stay comparable.
pub(crate) fn record_fetch(transport: &'static str, bytes: usize, started: std::time::Instant) {
    let reg = stz_telemetry::global();
    let labels = [("transport", transport)];
    reg.counter("stz_access_fetch_total", &labels).inc();
    reg.counter("stz_access_fetch_bytes_total", &labels).add(bytes as u64);
    reg.latency("stz_access_fetch_latency_ns", &labels).record_duration(started.elapsed());
}

/// The request validation shared by every store, so malformed fetches are
/// classified identically on every transport — before any bytes move.
pub(crate) fn validate_fetch(fetch: &Fetch, desc: &EntryDesc) -> Result<()> {
    match fetch {
        Fetch::Full => Ok(()),
        Fetch::Region(region) => {
            if !region.fits_in(desc.dims) {
                return Err(AccessError::bad_request(format!(
                    "region {region:?} outside entry dims {}",
                    desc.dims
                )));
            }
            Ok(())
        }
        Fetch::Level(k) | Fetch::Progressive(k) => {
            if desc.codec_id != stz_backend::id::STZ || desc.levels == 0 {
                return Err(AccessError::unsupported(format!(
                    "level previews require a native stz entry; entry {:?} uses codec {}",
                    desc.name,
                    desc.codec_name()
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("id {}", desc.codec_id)),
                )));
            }
            if *k == 0 {
                return Err(AccessError::bad_request("preview level must be ≥ 1"));
            }
            if *k > desc.levels {
                return Err(AccessError::bad_request(format!(
                    "preview level {k} exceeds the entry's {} levels",
                    desc.levels
                )));
            }
            Ok(())
        }
        Fetch::RawSection(0) => Ok(()),
        Fetch::RawSection(s) => Err(AccessError::unsupported(format!(
            "raw section {s}: only section 0 (the whole payload) is addressable today"
        ))),
    }
}

/// Resolve an [`EntrySel`] against a descriptor list.
pub(crate) fn resolve_sel<'a>(
    descs: &'a [EntryDesc],
    sel: &EntrySel,
    locate: &str,
) -> Result<&'a EntryDesc> {
    match sel {
        EntrySel::Index(i) => descs.get(*i as usize).ok_or_else(|| {
            AccessError::not_found(format!(
                "entry index {i} out of range ({} entries in {locate})",
                descs.len()
            ))
        }),
        EntrySel::Name(name) => descs
            .iter()
            .find(|d| d.name == *name)
            .ok_or_else(|| AccessError::not_found(format!("no entry named {name:?} in {locate}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(codec_id: u8, levels: u8) -> EntryDesc {
        EntryDesc {
            index: 0,
            name: "t0".into(),
            codec_id,
            type_tag: 0,
            dims: Dims::d3(16, 16, 16),
            eb: 1e-3,
            compressed_len: 100,
            payload_crc: 0,
            sections: 1,
            levels,
            interp: if levels > 0 { 2 } else { 0 },
            level_bytes: (1..=levels as u64).collect(),
        }
    }

    #[test]
    fn validation_classes_are_transport_independent() {
        let stz = desc(stz_backend::id::STZ, 3);
        let zfp = desc(stz_backend::id::ZFP, 0);
        assert!(validate_fetch(&Fetch::Full, &stz).is_ok());
        assert!(validate_fetch(&Fetch::Full, &zfp).is_ok());
        assert!(validate_fetch(&Fetch::Level(3), &stz).is_ok());
        assert!(matches!(validate_fetch(&Fetch::Level(1), &zfp), Err(AccessError::Unsupported(_))));
        assert!(matches!(validate_fetch(&Fetch::Level(0), &stz), Err(AccessError::BadRequest(_))));
        assert!(matches!(
            validate_fetch(&Fetch::Progressive(4), &stz),
            Err(AccessError::BadRequest(_))
        ));
        assert!(matches!(
            validate_fetch(&Fetch::Region(Region::d3(0..32, 0..1, 0..1)), &stz),
            Err(AccessError::BadRequest(_))
        ));
        assert!(validate_fetch(&Fetch::RawSection(0), &zfp).is_ok());
        assert!(matches!(
            validate_fetch(&Fetch::RawSection(1), &stz),
            Err(AccessError::Unsupported(_))
        ));
    }

    #[test]
    fn selector_resolution() {
        let descs = vec![desc(0, 3)];
        assert!(resolve_sel(&descs, &EntrySel::Index(0), "here").is_ok());
        assert!(matches!(
            resolve_sel(&descs, &EntrySel::Index(1), "here"),
            Err(AccessError::NotFound(_))
        ));
        assert!(resolve_sel(&descs, &EntrySel::Name("t0".into()), "here").is_ok());
        assert!(matches!(
            resolve_sel(&descs, &EntrySel::Name("nope".into()), "here"),
            Err(AccessError::NotFound(_))
        ));
    }
}
