//! # stz-access — one read surface for in-memory, on-disk, and remote archives
//!
//! Containers in memory, on disk ([`stz_stream::ContainerReader`]) and behind
//! an STZP server ([`stz_serve::Client`]) are read through two object-safe
//! traits, so no consumer picks a transport up front:
//!
//! * [`Store`] — a collection of entries somewhere: [`list`](Store::list)
//!   the [`EntryDesc`]s, [`open`](Store::open) one by [`EntrySel`].
//! * [`Entry`] — one opened entry: serve any [`Fetch`] request, returning a
//!   [`FetchedField`] whose bytes are **identical across transports** — a
//!   local store's fetch is the container reader's, and a server's miss is
//!   the same call, so a `MemStore`, `FileStore`, and `RemoteStore`
//!   answering the same `Fetch` produce the same bytes, and the
//!   access-matrix integration test pins that.
//!
//! Three stores ship:
//!
//! | store | wraps | bytes live |
//! |---|---|---|
//! | [`MemStore`] | a v3 container image ([`FileStoreMut`] over a `MemBacking`, read by a [`FileStore`]) | in this process |
//! | [`FileStore`] | `ContainerReader` over any [`ByteSource`](stz_stream::ByteSource) | on disk (or wherever the source reads) |
//! | [`RemoteStore`] | `stz_serve::Client` | behind an STZP server |
//!
//! [`open_store`] turns a location string — a filesystem path or an
//! `stz://host:port/container` URI — into the right `Box<dyn Store>`, which
//! is how the CLI serves `list` / `inspect` / `extract` / `preview` from a
//! single `--from` flag with one code path per verb.
//!
//! Errors fold onto one taxonomy ([`AccessError`]) on every transport: a
//! missing entry is `NotFound` whether the lookup failed in a footer index
//! or an `INSPECT` round-trip. See `docs/ACCESS.md` for the contract.
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

pub mod error;
pub mod file;
pub mod mem;
pub mod remote;
pub mod uri;
pub mod write;

pub use error::{AccessError, Result};
pub use file::FileStore;
pub use mem::MemStore;
pub use remote::{list_containers, RemoteStore};
pub use uri::{is_container_path, list_location, open_store, Location};
pub use write::{open_store_mut, EntryMut, FileStoreMut, MutStatus, StoreMut};

// One selector, one request and one descriptor from the footer to the wire:
// every store and the server resolve, check and describe an entry alike;
// one payload type and one compaction report for every writer.
pub use stz_mutate::CompactStats;
pub use stz_stream::{ContainerDesc, EntryDesc, EntrySel, Fetch, PackEntry};

use stz_field::{Dims, Field, Scalar};

/// Where fetched bytes came from — diagnostic provenance, the one field of
/// a [`FetchedField`] that legitimately differs across transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// An in-memory container in this process ([`MemStore`]).
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
/// `stz_access_fetch_latency_ns` histogram, all labeled by the `transport`
/// of its provenance (`"memory"`, `"file"`, or `"remote"`). Called by every
/// store's [`Entry::fetch`] on success, so the three transports stay
/// comparable.
pub(crate) fn record_fetch(fetched: &FetchedField, started: std::time::Instant) {
    let transport = match fetched.provenance {
        Provenance::Memory => "memory",
        Provenance::File(_) => "file",
        Provenance::Remote(_) => "remote",
    };
    let reg = stz_telemetry::global();
    let labels = [("transport", transport)];
    reg.counter("stz_access_fetch_total", &labels).inc();
    reg.counter("stz_access_fetch_bytes_total", &labels).add(fetched.data.len() as u64);
    reg.latency("stz_access_fetch_latency_ns", &labels).record_duration(started.elapsed());
}
