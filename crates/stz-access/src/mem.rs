//! [`MemStore`] — the in-process store over resident archives.

use crate::error::{AccessError, Result};
use crate::{Entry, EntryDesc, EntrySel, Fetch, FetchedField, Provenance, Store};
use std::sync::Arc;
use stz_backend::BackendScalar;
use stz_core::archive::type_tag;
use stz_core::StzArchive;
use stz_field::{Dims, Scalar};
use stz_stream::reader::decode_foreign;
use stz_stream::{resolve_sel, validate_fetch, ForeignArchive};

/// A resident archive a [`MemStore`] can host.
#[derive(Debug, Clone)]
pub enum MemArchive {
    /// A native STZ archive over `f32`.
    F32(Arc<StzArchive<f32>>),
    /// A native STZ archive over `f64`.
    F64(Arc<StzArchive<f64>>),
    /// A foreign codec's archive (decoded through the registry).
    Foreign(Arc<ForeignArchive>),
}

impl From<StzArchive<f32>> for MemArchive {
    fn from(a: StzArchive<f32>) -> Self {
        MemArchive::F32(Arc::new(a))
    }
}

impl From<StzArchive<f64>> for MemArchive {
    fn from(a: StzArchive<f64>) -> Self {
        MemArchive::F64(Arc::new(a))
    }
}

impl From<ForeignArchive> for MemArchive {
    fn from(a: ForeignArchive) -> Self {
        MemArchive::Foreign(Arc::new(a))
    }
}

impl MemArchive {
    fn desc(&self, index: u32, name: &str) -> EntryDesc {
        match self {
            MemArchive::F32(a) => EntryDesc::from_archive(index, name, a),
            MemArchive::F64(a) => EntryDesc::from_archive(index, name, a),
            MemArchive::Foreign(f) => EntryDesc::from_foreign(index, name, f),
        }
    }
}

/// The in-process [`Store`]: entries are resident
/// [`StzArchive`]s/[`ForeignArchive`]s, fetches are direct decodes. The
/// zero-transport baseline the other stores are byte-identical to.
///
/// Descriptors (including the payload CRC, a full-payload hash) are
/// computed once per [`add`](MemStore::add); `list`/`open` only clone
/// them, honoring the "no payload reads" descriptor contract.
#[derive(Debug)]
pub struct MemStore {
    archives: Vec<MemArchive>,
    descs: Vec<EntryDesc>,
    /// Mutation bookkeeping for the [`StoreMut`] surface: resident data
    /// has no crash window, but the generation/staged contract still
    /// holds so callers can treat every backend identically.
    generation: u64,
    staged: bool,
}

impl Default for MemStore {
    fn default() -> MemStore {
        MemStore { archives: Vec::new(), descs: Vec::new(), generation: 1, staged: false }
    }
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Append an entry (a `StzArchive<f32>`, `StzArchive<f64>`, or
    /// [`ForeignArchive`], via `Into`).
    pub fn add(&mut self, name: &str, archive: impl Into<MemArchive>) {
        let archive = archive.into();
        self.descs.push(archive.desc(self.archives.len() as u32, name));
        self.archives.push(archive);
    }

    /// Load a bare `.stz` archive file as a single-entry store named by
    /// file stem — how the CLI serves `--from <bare archive>` through the
    /// same code path as containers and servers.
    pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<MemStore> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "archive".to_string());
        // Dispatch f32/f64 from the header's type tag instead of
        // parse-and-retry on a clone — no second copy of a possibly large
        // file. A wrong or corrupt tag byte still ends in `from_bytes`'s
        // own validation error.
        let parsed = if type_tag(&bytes) == Some(f64::TYPE_TAG) {
            StzArchive::<f64>::from_bytes(bytes).map(MemArchive::from)
        } else {
            StzArchive::<f32>::from_bytes(bytes).map(MemArchive::from)
        };
        let archive = parsed.map_err(|e| {
            AccessError::corrupt(format!("{} is not an stz archive: {e}", path.display()))
        })?;
        let mut store = MemStore::new();
        store.add(&name, archive);
        Ok(store)
    }

    /// Number of hosted entries.
    pub fn len(&self) -> usize {
        self.archives.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.archives.is_empty()
    }
}

impl crate::write::StoreMut for MemStore {
    fn locate(&self) -> String {
        Store::locate(self)
    }

    fn list_staged(&self) -> Result<Vec<EntryDesc>> {
        Store::list(self)
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn append(&mut self, name: &str, payload: crate::write::EntryPayload) -> Result<()> {
        crate::write::ensure_absent(self.descs.iter().map(|d| d.name.as_str()), name)?;
        self.add(name, payload);
        self.staged = true;
        Ok(())
    }

    fn replace(&mut self, name: &str, payload: crate::write::EntryPayload) -> Result<()> {
        let locate = Store::locate(self);
        crate::write::ensure_present(self.descs.iter().map(|d| d.name.as_str()), name, &locate)?;
        let index = self.descs.iter().position(|d| d.name == name).expect("checked present");
        let archive: MemArchive = payload.into();
        self.descs[index] = archive.desc(index as u32, name);
        self.archives[index] = archive;
        self.staged = true;
        Ok(())
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        let locate = Store::locate(self);
        crate::write::ensure_present(self.descs.iter().map(|d| d.name.as_str()), name, &locate)?;
        let index = self.descs.iter().position(|d| d.name == name).expect("checked present");
        self.archives.remove(index);
        self.descs.remove(index);
        for (i, d) in self.descs.iter_mut().enumerate() {
            d.index = i as u32;
        }
        self.staged = true;
        Ok(())
    }

    fn open_mut<'s>(&'s mut self, sel: &EntrySel) -> Result<Box<dyn crate::write::EntryMut + 's>> {
        crate::write::open_entry_mut(self, sel)
    }

    fn commit(&mut self) -> Result<u64> {
        if self.staged {
            self.generation += 1;
            self.staged = false;
        }
        Ok(self.generation)
    }

    fn compact(&mut self) -> Result<crate::write::CompactReport> {
        crate::write::StoreMut::commit(self)?;
        // Resident archives have no dead bytes; compaction is the no-op
        // that reports so.
        let live: u64 = self.descs.iter().map(|d| d.compressed_len).sum();
        Ok(crate::write::CompactReport {
            generation: self.generation,
            before_bytes: live,
            after_bytes: live,
            reclaimed_bytes: 0,
        })
    }

    fn status(&self) -> crate::write::MutStatus {
        crate::write::MutStatus {
            generation: self.generation,
            entries: self.descs.len(),
            staged: self.staged,
            live_bytes: self.descs.iter().map(|d| d.compressed_len).sum(),
            dead_bytes: 0,
        }
    }
}

impl From<crate::write::EntryPayload> for MemArchive {
    fn from(p: crate::write::EntryPayload) -> Self {
        match p {
            crate::write::EntryPayload::F32(a) => a.into(),
            crate::write::EntryPayload::F64(a) => a.into(),
            crate::write::EntryPayload::Foreign(f) => f.into(),
        }
    }
}

impl Store for MemStore {
    fn locate(&self) -> String {
        format!("<memory: {} entries>", self.archives.len())
    }

    fn list(&self) -> Result<Vec<EntryDesc>> {
        Ok(self.descs.clone())
    }

    fn open(&self, sel: &EntrySel) -> Result<Box<dyn Entry>> {
        let desc = resolve_sel(&self.descs, sel)?.clone();
        let archive = self.archives[desc.index as usize].clone();
        Ok(Box::new(MemEntry { archive, desc }))
    }
}

/// One opened [`MemStore`] entry.
struct MemEntry {
    archive: MemArchive,
    desc: EntryDesc,
}

impl MemEntry {
    /// The answer to `fetch`: `data`, of `dims`.
    fn fetched(&self, fetch: &Fetch, dims: Dims, data: Vec<u8>) -> FetchedField {
        let (type_tag, codec_id) = (self.desc.type_tag, self.desc.codec_id);
        let provenance = Provenance::Memory;
        FetchedField { fetch: fetch.clone(), dims, type_tag, codec_id, data, provenance }
    }

    /// Serve `fetch` at the pool's width, a decode ending in the fetch's bytes
    /// and resuming from the archive's level 1.
    fn fetch_stz<T: Scalar>(&self, archive: &StzArchive<T>, fetch: &Fetch) -> Result<FetchedField> {
        let (walk, k) = match fetch {
            Fetch::Full => (archive.progressive(), archive.num_levels()),
            Fetch::Level(k) | Fetch::Progressive(k) => (archive.progressive(), *k),
            Fetch::Region(region) => (archive.progressive_region(region)?, archive.num_levels()),
            Fetch::RawSection(_) => {
                return Ok(self.fetched(fetch, self.desc.dims, archive.as_bytes().to_vec()))
            }
        };
        let mut answer = None;
        walk.decode_to_le(k, |dims| &mut answer.insert((dims, vec![0; dims.len() * T::BYTES])).1)?;
        let (dims, data) = answer.expect("a decoded walk asked for its memory");
        Ok(self.fetched(fetch, dims, data))
    }

    fn fetch_foreign<T: BackendScalar>(
        &self,
        foreign: &ForeignArchive,
        fetch: &Fetch,
    ) -> Result<FetchedField> {
        let (name, dims) = (&self.desc.name, self.desc.dims);
        if fetch.is_raw() {
            return Ok(self.fetched(fetch, dims, foreign.bytes.clone()));
        }
        let field = decode_foreign::<T>(name, foreign.codec, dims, &foreign.bytes)?;
        let field = match fetch {
            Fetch::Region(region) => field.extract_region(region),
            _ => field,
        };
        let mut data = Vec::with_capacity(field.nbytes());
        T::write_slice_exact(field.as_slice(), &mut data);
        Ok(self.fetched(fetch, field.dims(), data))
    }
}

impl Entry for MemEntry {
    fn desc(&self) -> &EntryDesc {
        &self.desc
    }

    fn fetch(&self, fetch: &Fetch) -> Result<FetchedField> {
        validate_fetch(fetch, &self.desc)?;
        let started = std::time::Instant::now();
        let fetched = match (&self.archive, self.desc.type_tag) {
            (MemArchive::F32(a), _) => self.fetch_stz(a, fetch),
            (MemArchive::F64(a), _) => self.fetch_stz(a, fetch),
            (MemArchive::Foreign(f), 0) => self.fetch_foreign::<f32>(f, fetch),
            (MemArchive::Foreign(f), _) => self.fetch_foreign::<f64>(f, fetch),
        }?;
        crate::record_fetch("memory", fetched.data.len(), started);
        Ok(fetched)
    }
}
