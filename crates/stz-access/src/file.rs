//! [`FileStore`] — the out-of-core store over an on-disk (or any
//! [`ByteSource`]-backed) container, and the read side of every local store.

use crate::error::Result;
use crate::{Entry, EntryDesc, EntrySel, Fetch, FetchedField, Provenance, Store};
use std::path::Path;
use std::sync::Arc;
use stz_stream::{resolve_sel, validate_fetch, ByteSource, ContainerReader, FileSource};

/// The out-of-core [`Store`]: wraps a [`ContainerReader`] over any
/// [`ByteSource`], so fetches read **only the byte ranges the request
/// needs** (a level-1 preview touches ~2% of the file; an ROI touches the
/// level-1 stream plus intersecting sub-blocks).
///
/// The reader is shared behind an [`Arc`]; all container I/O is positioned
/// reads, so opened entries can fetch concurrently. A
/// [`MemStore`](crate::MemStore) reads its committed image through one, so
/// its answers carry [`Provenance::Memory`].
#[derive(Debug)]
pub struct FileStore<S: ByteSource + 'static> {
    reader: Arc<ContainerReader<S>>,
    provenance: Provenance,
}

impl FileStore<FileSource> {
    /// Open a `.stzc` container file from disk.
    pub fn open_path(path: impl AsRef<Path>) -> Result<FileStore<FileSource>> {
        let path = path.as_ref();
        FileStore::open_source(FileSource::open(path)?, path.display().to_string())
    }
}

impl<S: ByteSource + 'static> FileStore<S> {
    /// Open a container over an arbitrary byte source (a memory buffer, a
    /// [`CountingSource`](stz_stream::CountingSource) wrapper, …),
    /// labelled for provenance.
    pub fn open_source(source: S, label: impl Into<String>) -> Result<FileStore<S>> {
        FileStore::open_as(source, Provenance::File(label.into()))
    }

    /// Open a container over `source`, its answers coming from `provenance`.
    pub(crate) fn open_as(source: S, provenance: Provenance) -> Result<FileStore<S>> {
        Ok(FileStore { reader: Arc::new(ContainerReader::open(source)?), provenance })
    }

    /// The underlying container reader (e.g. to inspect a counting
    /// source's tallies).
    pub fn reader(&self) -> &ContainerReader<S> {
        &self.reader
    }
}

impl<S: ByteSource + 'static> Store for FileStore<S> {
    fn locate(&self) -> String {
        match &self.provenance {
            Provenance::File(label) => label.clone(),
            other => other.to_string(),
        }
    }

    fn list(&self) -> Result<Vec<EntryDesc>> {
        Ok(self.reader.descs().to_vec())
    }

    fn open(&self, sel: &EntrySel) -> Result<Box<dyn Entry>> {
        let index = resolve_sel(self.reader.descs(), sel)?.index as usize;
        Ok(Box::new(FileEntry {
            reader: Arc::clone(&self.reader),
            provenance: self.provenance.clone(),
            index,
        }))
    }
}

/// One opened [`FileStore`] entry. Holds its own handle on the shared
/// reader, so it outlives the store that opened it and keeps answering from
/// the generation that reader pinned.
struct FileEntry<S: ByteSource + 'static> {
    reader: Arc<ContainerReader<S>>,
    provenance: Provenance,
    index: usize,
}

impl<S: ByteSource + 'static> Entry for FileEntry<S> {
    fn desc(&self) -> &EntryDesc {
        &self.reader.descs()[self.index]
    }

    /// Serve `fetch` at the pool's width, straight into the bytes returned.
    fn fetch(&self, fetch: &Fetch) -> Result<FetchedField> {
        let desc = self.desc();
        validate_fetch(fetch, desc)?;
        let started = std::time::Instant::now();
        let mut answer = None;
        self.reader
            .fetch_le(self.index, fetch, |dims, len| &mut answer.insert((dims, vec![0; len])).1)?;
        let (dims, data) = answer.expect("a fetch asked for its memory");
        let (type_tag, codec_id, provenance) =
            (desc.type_tag, desc.codec_id, self.provenance.clone());
        let fetched =
            FetchedField { fetch: fetch.clone(), dims, type_tag, codec_id, data, provenance };
        crate::record_fetch(&fetched, started);
        Ok(fetched)
    }
}
