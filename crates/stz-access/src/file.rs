//! [`FileStore`] — the out-of-core store over an on-disk (or any
//! [`ByteSource`]-backed) container.

use crate::error::Result;
use crate::{
    resolve_sel, validate_fetch, Entry, EntryDesc, EntrySel, Fetch, FetchedField, Provenance, Store,
};
use std::path::Path;
use std::sync::Arc;
use stz_backend::BackendScalar;
use stz_core::pool;
use stz_stream::{ByteSource, ContainerReader, FileSource};

/// The out-of-core [`Store`]: wraps a [`ContainerReader`] over any
/// [`ByteSource`], so fetches read **only the byte ranges the request
/// needs** (a level-1 preview touches ~2% of the file; an ROI touches the
/// level-1 stream plus intersecting sub-blocks).
///
/// The reader is shared behind an [`Arc`]; all container I/O is positioned
/// reads, so opened entries can fetch concurrently.
#[derive(Debug)]
pub struct FileStore<S: ByteSource + 'static> {
    reader: Arc<ContainerReader<S>>,
    label: String,
    /// Descriptors built once at open — the footer is already parsed and
    /// the container immutable behind this reader; `list`/`open` clone.
    descs: Vec<EntryDesc>,
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
        let reader = ContainerReader::open(source)?;
        let descs = reader
            .entries()
            .enumerate()
            .map(|(i, meta)| EntryDesc::from_meta(i as u32, &meta))
            .collect();
        Ok(FileStore { reader: Arc::new(reader), label: label.into(), descs })
    }

    /// The underlying container reader (e.g. to inspect a counting
    /// source's tallies).
    pub fn reader(&self) -> &ContainerReader<S> {
        &self.reader
    }
}

impl<S: ByteSource + 'static> Store for FileStore<S> {
    fn locate(&self) -> String {
        self.label.clone()
    }

    fn list(&self) -> Result<Vec<EntryDesc>> {
        Ok(self.descs.clone())
    }

    fn open(&self, sel: &EntrySel) -> Result<Box<dyn Entry>> {
        let desc = resolve_sel(&self.descs, sel, &self.label)?.clone();
        Ok(Box::new(FileEntry {
            reader: Arc::clone(&self.reader),
            label: self.label.clone(),
            desc,
        }))
    }
}

/// One opened [`FileStore`] entry. Holds its own handle on the shared
/// reader, so it outlives the store that opened it.
struct FileEntry<S: ByteSource + 'static> {
    reader: Arc<ContainerReader<S>>,
    label: String,
    desc: EntryDesc,
}

impl<S: ByteSource + 'static> FileEntry<S> {
    /// Serve `fetch` at width 1: a native entry's decode ends in the
    /// fetch's bytes ([`FetchedField::from_walk`]); a foreign codec's field
    /// is decoded whole and copied.
    fn fetch_typed<T: BackendScalar>(&self, fetch: &Fetch) -> Result<FetchedField> {
        let entry = self.reader.entry::<T>(self.desc.index as usize)?;
        let provenance = Provenance::File(self.label.clone());
        let (codec_id, levels) = (self.desc.codec_id, self.desc.levels);
        let (walk, k) = match fetch {
            Fetch::RawSection(_) => {
                return Ok(FetchedField {
                    fetch: fetch.clone(),
                    dims: self.desc.dims,
                    type_tag: self.desc.type_tag,
                    codec_id,
                    data: entry.read_payload()?,
                    provenance,
                })
            }
            _ if codec_id != stz_backend::id::STZ => {
                let field = match fetch {
                    Fetch::Region(region) => entry.decompress_region(region)?,
                    Fetch::Level(k) | Fetch::Progressive(k) => entry.decompress_level(*k)?,
                    _ => entry.decompress()?,
                };
                return Ok(FetchedField::from_field(fetch.clone(), codec_id, &field, provenance));
            }
            Fetch::Full => (entry.progressive()?, levels),
            Fetch::Level(k) | Fetch::Progressive(k) => (entry.progressive()?, *k),
            Fetch::Region(region) => (entry.progressive_region(region)?, levels),
        };
        pool::with_threads(1, || {
            FetchedField::from_walk(fetch.clone(), codec_id, walk, k, provenance)
        })
    }
}

impl<S: ByteSource + 'static> Entry for FileEntry<S> {
    fn desc(&self) -> &EntryDesc {
        &self.desc
    }

    fn fetch(&self, fetch: &Fetch) -> Result<FetchedField> {
        validate_fetch(fetch, &self.desc)?;
        let started = std::time::Instant::now();
        let fetched = match self.desc.type_tag {
            0 => self.fetch_typed::<f32>(fetch),
            _ => self.fetch_typed::<f64>(fetch),
        }?;
        crate::record_fetch("file", fetched.data.len(), started);
        Ok(fetched)
    }
}
