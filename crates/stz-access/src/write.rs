//! Object-safe mutation surface: [`StoreMut`] / [`EntryMut`], the write
//! twins of [`Store`](crate::Store) / [`Entry`](crate::Entry).
//!
//! The same contract philosophy as the read side: one vocabulary, one
//! error taxonomy and object safety. A payload is a [`PackEntry`], the one
//! type every container writer takes, so an `f32`, `f64` or foreign entry
//! reaches the container unconverted. Appending an existing name is
//! `BadRequest` and replacing a missing one is `NotFound`, on every
//! backend. Object safety lets the CLI's `append`/`delete`/`compact` verbs
//! hold a `Box<dyn StoreMut>` without caring where the bytes land.
//!
//! Both stores that implement it write a v3 container the same way:
//!
//! | store | wraps | commit means |
//! |---|---|---|
//! | [`FileStoreMut`] | [`stz_mutate::MutableContainer`] over a file (or any [`MutBacking`]) | atomic generation flip (v3 shadow slots) |
//! | [`MemStore`](crate::MemStore) | a `FileStoreMut` over a [`MemBacking`](stz_mutate::MemBacking) image | the same flip, then its read side reopens on the new generation |
//!
//! Remote stores are deliberately absent: STZP is a read protocol, and
//! mutation happens where the bytes live — [`open_store_mut`] says so
//! rather than pretending.

use crate::error::{AccessError, Result};
use crate::{EntryDesc, EntrySel};
use std::path::Path;
use stz_mutate::{CompactStats, FileBacking, MutBacking, MutableContainer};
use stz_stream::{resolve_sel, EntryMeta, PackEntry};

/// Mutation-side accounting of a store (see
/// [`StoreMut::status`]). Byte fields are compressed payload bytes; a
/// memory store counts them as a file store does (a replaced or deleted
/// payload is dead until [`StoreMut::compact`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutStatus {
    /// Committed generation number.
    pub generation: u64,
    /// Entries in the current (possibly uncommitted) index.
    pub entries: usize,
    /// Whether uncommitted mutations are staged.
    pub staged: bool,
    /// Payload bytes the current index references.
    pub live_bytes: u64,
    /// Committed payload bytes no longer referenced (reclaimable by
    /// [`StoreMut::compact`]).
    pub dead_bytes: u64,
}

/// A mutable collection of entries. Mutations *stage*; readers see them
/// only after [`commit`](StoreMut::commit) — which is atomic on every
/// backend that can crash (the file store's shadow-slot flip).
pub trait StoreMut: Send {
    /// Human-readable location for diagnostics.
    fn locate(&self) -> String;

    /// Describe every entry of the current — staged mutations included —
    /// index, in store order. Named apart from [`Store::list`](crate::Store::list)
    /// so types implementing both traits stay unambiguous to call.
    fn list_staged(&self) -> Result<Vec<EntryDesc>>;

    /// Committed generation number.
    fn generation(&self) -> u64;

    /// Stage a new entry. Appending a name that already exists is a
    /// `BadRequest` (use [`replace`](StoreMut::replace)).
    fn append(&mut self, name: &str, payload: PackEntry) -> Result<()>;

    /// Stage a replacement payload for the entry named `name`
    /// (`NotFound` if absent).
    fn replace(&mut self, name: &str, payload: PackEntry) -> Result<()>;

    /// Stage removal of the entry named `name` (`NotFound` if absent).
    fn delete(&mut self, name: &str) -> Result<()>;

    /// Open one entry of the current index as a mutation handle.
    fn open_mut<'s>(&'s mut self, sel: &EntrySel) -> Result<Box<dyn EntryMut + 's>> {
        let desc = resolve_sel(&self.list_staged()?, sel)?.clone();
        Ok(Box::new(StoreEntryMut { store: self, desc }))
    }

    /// Atomically publish all staged mutations as the next generation and
    /// return its number (a no-op returning the current generation when
    /// nothing is staged).
    fn commit(&mut self) -> Result<u64>;

    /// Commit, then reclaim dead bytes (rewrite live payloads; atomic
    /// swap). Concurrent readers pinned to older generations are
    /// unaffected. Returns the container's own report.
    fn compact(&mut self) -> Result<CompactStats>;

    /// Point-in-time accounting.
    fn status(&self) -> MutStatus;
}

/// One opened entry of a [`StoreMut`]: a mutation handle that borrows the
/// store exclusively for its lifetime.
pub trait EntryMut: Send {
    /// The entry's descriptor as of open time.
    fn desc(&self) -> &EntryDesc;

    /// Stage a replacement payload for this entry.
    fn replace(&mut self, payload: PackEntry) -> Result<()>;

    /// Stage removal of this entry, consuming the handle.
    fn delete(self: Box<Self>) -> Result<()>;
}

/// The mutable container store: a [`MutableContainer`] over a container
/// file (or any [`MutBacking`]), committing through the v3
/// shadow-generation-slot protocol. Opening a missing path creates an empty
/// container; opening a write-once (v1/v2) container upgrades it in place
/// first (atomic rename; same payload bytes).
#[derive(Debug)]
pub struct FileStoreMut<B: MutBacking = FileBacking> {
    container: MutableContainer<B>,
    label: String,
}

impl FileStoreMut {
    /// Open (creating or upgrading as needed) the container at `path` for
    /// mutation.
    pub fn open_path(path: impl AsRef<Path>) -> Result<FileStoreMut> {
        let path = path.as_ref();
        Ok(FileStoreMut::new(MutableContainer::open_path(path)?, path.display().to_string()))
    }
}

impl<B: MutBacking> FileStoreMut<B> {
    /// Mutate an opened container, labelled for diagnostics.
    pub(crate) fn new(container: MutableContainer<B>, label: impl Into<String>) -> FileStoreMut<B> {
        FileStoreMut { container, label: label.into() }
    }

    /// The underlying mutable container.
    pub fn container(&self) -> &MutableContainer<B> {
        &self.container
    }

    /// `NotFound` unless the current index holds an entry named `name`.
    fn ensure_present(&self, name: &str) -> Result<()> {
        match self.container.find(name) {
            Some(_) => Ok(()),
            None => {
                Err(AccessError::not_found(format!("no entry named {name:?} in {}", self.label)))
            }
        }
    }
}

impl<B: MutBacking> StoreMut for FileStoreMut<B> {
    fn locate(&self) -> String {
        self.label.clone()
    }

    fn list_staged(&self) -> Result<Vec<EntryDesc>> {
        let meta = self.container.records().iter().map(EntryMeta::from_record);
        Ok(meta.enumerate().map(|(i, meta)| EntryDesc::from_meta(i as u32, &meta)).collect())
    }

    fn generation(&self) -> u64 {
        self.container.generation()
    }

    fn append(&mut self, name: &str, payload: PackEntry) -> Result<()> {
        if self.container.find(name).is_some() {
            return Err(AccessError::bad_request(format!(
                "entry {name:?} already exists; replace or delete it first"
            )));
        }
        Ok(self.container.append(name, &payload)?)
    }

    fn replace(&mut self, name: &str, payload: PackEntry) -> Result<()> {
        self.ensure_present(name)?;
        Ok(self.container.replace(name, &payload)?)
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        self.ensure_present(name)?;
        Ok(self.container.delete(name)?)
    }

    fn commit(&mut self) -> Result<u64> {
        Ok(self.container.commit()?)
    }

    fn compact(&mut self) -> Result<CompactStats> {
        Ok(self.container.compact()?)
    }

    fn status(&self) -> MutStatus {
        let s = self.container.stats();
        MutStatus {
            generation: s.generation,
            entries: s.entries,
            staged: self.container.is_dirty(),
            live_bytes: s.live_payload_bytes,
            dead_bytes: s.dead_payload_bytes,
        }
    }
}

/// The one [`EntryMut`] implementation: a name pinned at open time over
/// any exclusively borrowed [`StoreMut`].
struct StoreEntryMut<'s, S: StoreMut + ?Sized> {
    store: &'s mut S,
    desc: EntryDesc,
}

impl<S: StoreMut + ?Sized> EntryMut for StoreEntryMut<'_, S> {
    fn desc(&self) -> &EntryDesc {
        &self.desc
    }

    fn replace(&mut self, payload: PackEntry) -> Result<()> {
        let name = self.desc.name.clone();
        self.store.replace(&name, payload)
    }

    fn delete(self: Box<Self>) -> Result<()> {
        let name = self.desc.name.clone();
        self.store.delete(&name)
    }
}

/// Open the [`StoreMut`] a location names. Only local containers are
/// writable: a remote URI is rejected with `Unsupported` (STZP is a read
/// protocol — mutate on the serving host, the server picks up the new
/// generation on its next open).
pub fn open_store_mut(location: &str) -> Result<Box<dyn StoreMut>> {
    match crate::uri::Location::parse(location)? {
        crate::uri::Location::Remote { addr, .. } => Err(AccessError::unsupported(format!(
            "stz://{addr} is read-only over the wire; run the mutation on the host serving it"
        ))),
        crate::uri::Location::Path(path) => {
            if path.is_dir() {
                return Err(AccessError::bad_uri(format!(
                    "{} is a directory; name a container inside it",
                    path.display()
                )));
            }
            Ok(Box::new(FileStoreMut::open_path(&path)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Entry, Fetch, MemStore, Store};
    use stz_core::{reference, StzArchive, StzCompressor, StzConfig};
    use stz_field::{Dims, Field, Scalar};

    fn archive(seed: f32) -> StzArchive<f32> {
        let f = Field::from_fn(Dims::d3(12, 12, 12), |z, y, x| {
            ((z as f32) * 0.2 + seed).sin() + ((y as f32) * 0.1).cos() + x as f32 * 0.01
        });
        StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap()
    }

    /// The reference decoder's full answer for `archive(seed)`, as fetched.
    fn reference_full(seed: f32) -> Vec<u8> {
        let field = reference::decode(&archive(seed), 3).unwrap();
        let mut out = Vec::new();
        f32::write_slice_exact(field.as_slice(), &mut out);
        out
    }

    /// Hands a store's read side to its callback: the store itself for a
    /// memory store, a store opened anew over the container for a file.
    type ReadSide<'a, S> = dyn Fn(&S, &mut dyn FnMut(&dyn Store)) + 'a;

    /// Runs the store contract on `store`, reading it through `read`.
    fn drive<S: StoreMut>(store: &mut S, read: &ReadSide<'_, S>) {
        let listed = |store: &S| {
            let mut names = Vec::new();
            read(store, &mut |r| names = r.list().unwrap().into_iter().map(|d| d.name).collect());
            names
        };
        let open = |store: &S, name: &str| {
            let mut entry = None;
            read(store, &mut |r| entry = Some(r.open(&EntrySel::Name(name.into())).unwrap()));
            entry.unwrap()
        };
        let full = |entry: &dyn Entry| entry.fetch(&Fetch::Full).unwrap().data;

        assert_eq!(store.list_staged().unwrap().len(), 0);
        store.append("a", archive(0.0).into()).unwrap();
        store.append("b", archive(1.0).into()).unwrap();
        assert!(listed(store).is_empty(), "an uncommitted append is not read");
        assert!(matches!(store.append("a", archive(9.0).into()), Err(AccessError::BadRequest(_))));
        assert!(matches!(
            store.replace("nope", archive(9.0).into()),
            Err(AccessError::NotFound(_))
        ));
        assert!(matches!(store.delete("nope"), Err(AccessError::NotFound(_))));
        let g0 = store.generation();
        let g1 = store.commit().unwrap();
        assert!(g1 > g0);
        assert_eq!(store.commit().unwrap(), g1, "clean commit is a no-op");
        assert_eq!(listed(store), ["a", "b"]);
        let before = open(store, "b");
        assert_eq!(full(&*before), reference_full(1.0));

        // Entry-handle mutation.
        let mut handle = store.open_mut(&EntrySel::Name("b".into())).unwrap();
        assert_eq!(handle.desc().name, "b");
        handle.replace(archive(2.0).into()).unwrap();
        drop(handle);
        store.open_mut(&EntrySel::Index(0)).unwrap().delete().unwrap();
        store.commit().unwrap();

        let names: Vec<String> = store.list_staged().unwrap().into_iter().map(|d| d.name).collect();
        assert_eq!(names, ["b"]);
        let report = store.compact().unwrap();
        assert_eq!(report.before_bytes - report.reclaimed_bytes, report.after_bytes);
        assert!(!store.status().staged);
        assert_eq!(store.status().dead_bytes, 0);
        assert_eq!(listed(store), ["b"]);
        assert_eq!(full(&*open(store, "b")), reference_full(2.0));
        assert_eq!(full(&*before), reference_full(1.0), "an entry opened before keeps its answer");
    }

    #[test]
    fn mem_store_mutation_contract() {
        let mut store = MemStore::new();
        drive(&mut store, &|store, show| show(store));
    }

    #[test]
    #[should_panic(expected = "bad request: entry \"a\" already exists")]
    fn mem_store_add_panics_on_a_duplicate_name() {
        let mut store = MemStore::new();
        store.add("a", archive(0.0));
        store.add("a", archive(1.0));
    }

    #[test]
    fn file_store_mutation_contract_and_read_parity() {
        let path = std::env::temp_dir().join(format!("stz_access_mut_{}.stzc", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let location = path.display().to_string();
        let mut store = FileStoreMut::open_path(&path).unwrap();
        drive(&mut store, &|_, show| show(&*crate::open_store(&location).unwrap()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_store_mut_rejects_remote_and_dirs() {
        assert!(matches!(
            open_store_mut("stz://127.0.0.1:1/steps"),
            Err(AccessError::Unsupported(_))
        ));
        let dir = std::env::temp_dir();
        assert!(matches!(open_store_mut(&dir.display().to_string()), Err(AccessError::BadUri(_))));
    }
}
