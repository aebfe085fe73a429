//! [`MemStore`] — the in-process store: a v3 container image in memory.

use crate::error::{AccessError, Result};
use crate::write::{MutStatus, StoreMut};
use crate::{Entry, EntryDesc, EntrySel, FileStore, FileStoreMut, PackEntry, Provenance, Store};
use stz_mutate::{CompactStats, MemBacking, MutableContainer};

/// The in-process [`Store`]: a mutable (v3) container image held in memory,
/// written by a [`FileStoreMut`] as a container file is, and read by a
/// [`FileStore`] over its committed generation, so every fetch is the
/// container reader's.
///
/// The read side is reopened at each commit and compaction over a snapshot
/// of the image that shares its bytes ([`MemBacking`] clones are
/// copy-on-write). An entry opened earlier keeps answering from the
/// generation it was opened on, as a file reader does.
#[derive(Debug)]
pub struct MemStore {
    writer: FileStoreMut<MemBacking>,
    committed: FileStore<MemBacking>,
}

impl Default for MemStore {
    fn default() -> MemStore {
        let container = MutableContainer::create(MemBacking::empty())
            .expect("writes to a memory image do not fail");
        let committed = read_side(container.backing()).expect("a created container opens");
        MemStore { writer: FileStoreMut::new(container, "memory"), committed }
    }
}

/// A store over the committed generation of `image`, sharing its bytes.
fn read_side(image: &MemBacking) -> Result<FileStore<MemBacking>> {
    FileStore::open_as(image.clone(), Provenance::Memory)
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Append an entry (a `StzArchive<f32>`, `StzArchive<f64>`, or
    /// [`ForeignArchive`](stz_stream::ForeignArchive), via `Into`) and
    /// commit it.
    ///
    /// # Panics
    /// If the store already holds an entry named `name`, with the
    /// `BadRequest` text of [`StoreMut::append`].
    pub fn add(&mut self, name: &str, archive: impl Into<PackEntry>) {
        let added = self.append(name, archive.into()).and_then(|()| self.commit());
        if let Err(e) = added {
            panic!("{e}");
        }
    }

    /// Load a bare archive file — STZ's, or any backend's that its magic
    /// names ([`PackEntry::from_bytes`]) — as a single-entry store named by
    /// file stem: how the CLI serves `--from <bare archive>` through the
    /// same code path as containers and servers.
    pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<MemStore> {
        let path = path.as_ref();
        let archive = PackEntry::from_bytes(std::fs::read(path)?).map_err(|e| {
            AccessError::corrupt(format!("{} is not an stz archive: {e}", path.display()))
        })?;
        MemStore::of_file(path, archive)
    }

    /// A single-entry store of `archive`, the bare archive file at `path`,
    /// named by its stem as [`MemStore::open_path`] names it.
    pub fn of_file(path: &std::path::Path, archive: PackEntry) -> Result<MemStore> {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "archive".to_string());
        let mut store = MemStore::new();
        store.append(&name, archive).and_then(|()| store.commit())?;
        Ok(store)
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.committed.reader().entry_count()
    }

    /// Whether the store holds no committed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reopen the read side when the committed generation moved.
    fn publish(&mut self) -> Result<()> {
        if self.committed.reader().generation() != self.writer.generation() {
            self.committed = read_side(self.writer.container().backing())?;
        }
        Ok(())
    }
}

impl StoreMut for MemStore {
    fn locate(&self) -> String {
        Store::locate(self)
    }

    fn list_staged(&self) -> Result<Vec<EntryDesc>> {
        self.writer.list_staged()
    }

    fn generation(&self) -> u64 {
        self.writer.generation()
    }

    fn append(&mut self, name: &str, payload: PackEntry) -> Result<()> {
        self.writer.append(name, payload)
    }

    fn replace(&mut self, name: &str, payload: PackEntry) -> Result<()> {
        self.writer.replace(name, payload)
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        self.writer.delete(name)
    }

    fn commit(&mut self) -> Result<u64> {
        let generation = self.writer.commit()?;
        self.publish()?;
        Ok(generation)
    }

    fn compact(&mut self) -> Result<CompactStats> {
        let report = self.writer.compact()?;
        self.publish()?;
        Ok(report)
    }

    fn status(&self) -> MutStatus {
        self.writer.status()
    }
}

impl Store for MemStore {
    fn locate(&self) -> String {
        format!("<memory: {} entries>", self.len())
    }

    fn list(&self) -> Result<Vec<EntryDesc>> {
        self.committed.list()
    }

    fn open(&self, sel: &EntrySel) -> Result<Box<dyn Entry>> {
        self.committed.open(sel)
    }
}
