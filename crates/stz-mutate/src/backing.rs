//! Writable storage behind a mutable container.
//!
//! [`MutBacking`] extends [`ByteSource`] with the four primitives the
//! commit protocol needs: positioned writes, truncation, durability
//! barriers, and whole-image replacement (compaction's sibling-file +
//! atomic-rename step). Three implementations:
//!
//! * [`FileBacking`] — a real container file (positioned writes, `fsync`,
//!   rename-based replacement);
//! * [`MemBacking`] — an in-memory image for tests and staging;
//! * [`RecordingBacking`] — wraps a [`MemBacking`] and journals every
//!   mutation, so crash-safety tests can replay an *arbitrary byte prefix*
//!   of the write stream and open the result — simulating power loss at
//!   every offset without ever touching a disk.
//!
//! The crash model the journal encodes: writes persist in the order they
//! were issued, a crash cuts the stream at any byte, and a partially
//! persisted write applies an arbitrary prefix of its bytes. [`sync`]
//! records a barrier (cost 0 — it persists nothing new); replacement is
//! atomic (`rename(2)` semantics: old image or new image, never a mix).
//!
//! [`sync`]: MutBacking::sync

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use stz_codec::{CodecError, Result};
use stz_stream::ByteSource;

/// Writable random-access storage for a mutable container.
///
/// Write methods take `&mut self` — there is exactly one writer per
/// container — while reads stay `&self` (inherited from [`ByteSource`]),
/// so the commit path can re-verify what it wrote.
pub trait MutBacking: ByteSource {
    /// Write all of `buf` at absolute `offset`, extending the backing
    /// (zero-filled) if the write lands past the current end.
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> Result<()>;

    /// Truncate or zero-extend the backing to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> Result<()>;

    /// Durability barrier: all preceding writes are persisted before any
    /// later write may be.
    fn sync(&mut self) -> Result<()>;

    /// Atomically replace the entire backing with the bytes `build`
    /// streams into the writer, reading the *old* content through the
    /// supplied source. Either the old image or the complete new image
    /// survives a crash — never a mixture (file implementation: write a
    /// sibling, fsync, `rename(2)` over the original).
    fn replace_with(
        &mut self,
        build: &mut dyn FnMut(&dyn ByteSource, &mut dyn Write) -> Result<()>,
    ) -> Result<()>;
}

/// A mutable container file on disk.
///
/// Reads use positioned I/O (no shared cursor); writes, truncation and
/// `fsync` go through the same handle. [`replace_with`] writes a
/// `<path>.compact.tmp` sibling, fsyncs it, renames it over the original
/// (atomic on POSIX — concurrent readers holding the old file descriptor
/// keep reading the old, still-complete image), and best-effort fsyncs the
/// parent directory so the rename itself is durable.
///
/// [`replace_with`]: MutBacking::replace_with
#[derive(Debug)]
pub struct FileBacking {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
    path: PathBuf,
    len: AtomicU64,
}

impl FileBacking {
    /// Create (or truncate) the file at `path` for read-write access.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        Ok(Self::wrap(file, path.as_ref().to_path_buf(), 0))
    }

    /// Open the existing file at `path` for read-write access.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path.as_ref())?;
        let len = file.metadata()?.len();
        Ok(Self::wrap(file, path.as_ref().to_path_buf(), len))
    }

    fn wrap(file: File, path: PathBuf, len: u64) -> Self {
        #[cfg(not(unix))]
        let file = std::sync::Mutex::new(file);
        FileBacking { file, path, len: AtomicU64::new(len) }
    }

    /// The path this backing writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn sync_parent_dir(&self) {
        // Durability of the rename itself; failure only costs durability
        // of the *latest* image on power loss, never consistency.
        if let Some(parent) = self.path.parent() {
            let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
}

impl ByteSource for FileBacking {
    fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    #[cfg(unix)]
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = self.file.lock().expect("file lock poisoned");
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

impl MutBacking for FileBacking {
    #[cfg(unix)]
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, offset)?;
        self.len.fetch_max(offset + buf.len() as u64, Ordering::AcqRel);
        Ok(())
    }

    #[cfg(not(unix))]
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        use std::io::{Seek, SeekFrom};
        let mut file = self.file.lock().expect("file lock poisoned");
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(buf)?;
        self.len.fetch_max(offset + buf.len() as u64, Ordering::AcqRel);
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        #[cfg(unix)]
        self.file.set_len(len)?;
        #[cfg(not(unix))]
        self.file.lock().expect("file lock poisoned").set_len(len)?;
        self.len.store(len, Ordering::Release);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        #[cfg(unix)]
        self.file.sync_data()?;
        #[cfg(not(unix))]
        self.file.lock().expect("file lock poisoned").sync_data()?;
        Ok(())
    }

    fn replace_with(
        &mut self,
        build: &mut dyn FnMut(&dyn ByteSource, &mut dyn Write) -> Result<()>,
    ) -> Result<()> {
        let mut tmp_name = self.path.as_os_str().to_os_string();
        tmp_name.push(".compact.tmp");
        let tmp = PathBuf::from(tmp_name);

        let result = (|| -> Result<u64> {
            let file = File::create(&tmp)?;
            let mut out = io::BufWriter::new(file);
            build(&*self, &mut out)?;
            out.flush()?;
            let file = out.into_inner().map_err(|e| e.into_error())?;
            let len = file.metadata()?.len();
            file.sync_all()?;
            Ok(len)
        })();
        let new_len = match result {
            Ok(len) => len,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };

        std::fs::rename(&tmp, &self.path)?;
        self.sync_parent_dir();
        // The old handle now points at the unlinked inode; reopen.
        let file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        #[cfg(not(unix))]
        let file = std::sync::Mutex::new(file);
        self.file = file;
        self.len.store(new_len, Ordering::Release);
        Ok(())
    }
}

/// Borrowed read-only view used to hand a backing's current bytes to a
/// [`replace_with`](MutBacking::replace_with) builder.
struct SliceSource<'a>(&'a [u8]);

impl ByteSource for SliceSource<'_> {
    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "offset beyond buffer"))?;
        let end = start
            .checked_add(buf.len())
            .filter(|&e| e <= self.0.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read beyond buffer"))?;
        buf.copy_from_slice(&self.0[start..end]);
        Ok(())
    }
}

/// An in-memory mutable container image.
#[derive(Debug, Clone, Default)]
pub struct MemBacking {
    bytes: Vec<u8>,
}

impl MemBacking {
    /// An empty backing.
    pub fn empty() -> Self {
        MemBacking { bytes: Vec::new() }
    }

    /// Wrap an existing image.
    pub fn new(bytes: Vec<u8>) -> Self {
        MemBacking { bytes }
    }

    /// The current image bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Unwrap into the image bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl ByteSource for MemBacking {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        SliceSource(&self.bytes).read_exact_at(offset, buf)
    }
}

impl MutBacking for MemBacking {
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        let start = usize::try_from(offset)
            .map_err(|_| CodecError::corrupt("write offset beyond addressable memory"))?;
        let end = start
            .checked_add(buf.len())
            .ok_or_else(|| CodecError::corrupt("write range overflow"))?;
        if end > self.bytes.len() {
            self.bytes.resize(end, 0);
        }
        self.bytes[start..end].copy_from_slice(buf);
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        let len = usize::try_from(len)
            .map_err(|_| CodecError::corrupt("length beyond addressable memory"))?;
        self.bytes.resize(len, 0);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn replace_with(
        &mut self,
        build: &mut dyn FnMut(&dyn ByteSource, &mut dyn Write) -> Result<()>,
    ) -> Result<()> {
        let mut new = Vec::with_capacity(self.bytes.len());
        build(&SliceSource(&self.bytes), &mut new)?;
        self.bytes = new;
        Ok(())
    }
}

/// One journaled mutation of a [`RecordingBacking`].
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Positioned write of `bytes` at `offset`. A crash may persist any
    /// byte prefix of it.
    Write {
        /// Absolute offset of the write.
        offset: u64,
        /// The bytes written.
        bytes: Vec<u8>,
    },
    /// Truncation / extension to a new length (applied atomically).
    SetLen(u64),
    /// Durability barrier (persists nothing new; cost 0 in the replay).
    Sync,
    /// Whole-image replacement (rename semantics: all-or-nothing).
    Replace(Vec<u8>),
}

/// Replay cost of one op in bytes: how far the crash cursor must advance
/// for the op to be fully persisted.
pub fn op_cost(op: &WriteOp) -> u64 {
    match op {
        WriteOp::Write { bytes, .. } => bytes.len() as u64,
        WriteOp::SetLen(_) | WriteOp::Replace(_) => 1,
        WriteOp::Sync => 0,
    }
}

/// Total replay cost of a journal — the number of distinct crash points
/// `cut + 1` (every value of `budget` in `0..=journal_cost`).
pub fn journal_cost(ops: &[WriteOp]) -> u64 {
    ops.iter().map(op_cost).sum()
}

/// Apply the first `budget` cost units of `ops` on top of `base`,
/// returning the image a crash at that point would leave on disk. A
/// [`WriteOp::Write`] whose cost exceeds the remaining budget applies only
/// that prefix of its bytes (a torn write); `SetLen` and `Replace` are
/// all-or-nothing.
pub fn replay_prefix(base: &[u8], ops: &[WriteOp], mut budget: u64) -> Vec<u8> {
    let mut image = base.to_vec();
    for op in ops {
        let cost = op_cost(op);
        let torn = cost > budget;
        match op {
            WriteOp::Write { offset, bytes } => {
                let take = if torn { budget as usize } else { bytes.len() };
                let start = *offset as usize;
                let end = start + take;
                if end > image.len() {
                    image.resize(end, 0);
                }
                image[start..end].copy_from_slice(&bytes[..take]);
            }
            WriteOp::SetLen(len) => {
                if !torn {
                    image.resize(*len as usize, 0);
                }
            }
            WriteOp::Sync => {}
            WriteOp::Replace(bytes) => {
                if !torn {
                    image = bytes.clone();
                }
            }
        }
        if torn {
            break;
        }
        budget -= cost;
    }
    image
}

/// A [`MemBacking`] that journals every mutation for crash replay.
///
/// Construction snapshots the base image; every subsequent write op is
/// appended to the journal *and* applied to the live image. A test then
/// drives real container mutations through it, takes
/// [`into_parts`](RecordingBacking::into_parts), and sweeps
/// [`replay_prefix`] over every crash point.
#[derive(Debug, Default)]
pub struct RecordingBacking {
    inner: MemBacking,
    base: Vec<u8>,
    journal: Vec<WriteOp>,
}

impl RecordingBacking {
    /// Start recording on top of `image` (often empty).
    pub fn new(image: Vec<u8>) -> Self {
        RecordingBacking { base: image.clone(), inner: MemBacking::new(image), journal: Vec::new() }
    }

    /// The mutations journaled so far, in issue order.
    pub fn journal(&self) -> &[WriteOp] {
        &self.journal
    }

    /// The live (fully applied) image.
    pub fn image(&self) -> &[u8] {
        self.inner.as_bytes()
    }

    /// Unwrap into `(base_image, journal)` for crash replay.
    pub fn into_parts(self) -> (Vec<u8>, Vec<WriteOp>) {
        (self.base, self.journal)
    }
}

impl ByteSource for RecordingBacking {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact_at(offset, buf)
    }
}

impl MutBacking for RecordingBacking {
    fn write_all_at(&mut self, offset: u64, buf: &[u8]) -> Result<()> {
        self.journal.push(WriteOp::Write { offset, bytes: buf.to_vec() });
        self.inner.write_all_at(offset, buf)
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        self.journal.push(WriteOp::SetLen(len));
        self.inner.set_len(len)
    }

    fn sync(&mut self) -> Result<()> {
        self.journal.push(WriteOp::Sync);
        self.inner.sync()
    }

    fn replace_with(
        &mut self,
        build: &mut dyn FnMut(&dyn ByteSource, &mut dyn Write) -> Result<()>,
    ) -> Result<()> {
        self.inner.replace_with(build)?;
        self.journal.push(WriteOp::Replace(self.inner.as_bytes().to_vec()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backing_extends_on_far_write() {
        let mut b = MemBacking::empty();
        b.write_all_at(4, &[7, 8]).unwrap();
        assert_eq!(b.as_bytes(), &[0, 0, 0, 0, 7, 8]);
        b.set_len(3).unwrap();
        assert_eq!(b.as_bytes(), &[0, 0, 0]);
    }

    #[test]
    fn replay_prefix_tears_writes_at_byte_granularity() {
        let ops = vec![
            WriteOp::Write { offset: 0, bytes: vec![1, 2, 3] },
            WriteOp::Sync,
            WriteOp::Write { offset: 1, bytes: vec![9, 9] },
        ];
        assert_eq!(journal_cost(&ops), 5);
        assert_eq!(replay_prefix(&[], &ops, 0), Vec::<u8>::new());
        assert_eq!(replay_prefix(&[], &ops, 2), vec![1, 2]);
        assert_eq!(replay_prefix(&[], &ops, 3), vec![1, 2, 3]);
        assert_eq!(replay_prefix(&[], &ops, 4), vec![1, 9, 3]);
        assert_eq!(replay_prefix(&[], &ops, 5), vec![1, 9, 9]);
    }

    #[test]
    fn replay_set_len_and_replace_are_atomic() {
        let ops = vec![WriteOp::SetLen(2), WriteOp::Replace(vec![5, 5, 5])];
        assert_eq!(replay_prefix(&[1, 2, 3, 4], &ops, 0), vec![1, 2, 3, 4]);
        assert_eq!(replay_prefix(&[1, 2, 3, 4], &ops, 1), vec![1, 2]);
        assert_eq!(replay_prefix(&[1, 2, 3, 4], &ops, 2), vec![5, 5, 5]);
    }

    #[test]
    fn recording_backing_journal_replays_to_live_image() {
        let mut b = RecordingBacking::new(vec![0; 4]);
        b.write_all_at(0, &[1, 2]).unwrap();
        b.sync().unwrap();
        b.write_all_at(6, &[3]).unwrap();
        b.set_len(5).unwrap();
        let live = b.image().to_vec();
        let (base, ops) = b.into_parts();
        assert_eq!(replay_prefix(&base, &ops, journal_cost(&ops)), live);
    }

    #[test]
    fn file_backing_roundtrip_and_replace() {
        let path =
            std::env::temp_dir().join(format!("stz_mutate_backing_{}.bin", std::process::id()));
        let mut b = FileBacking::create(&path).unwrap();
        b.write_all_at(0, b"hello world").unwrap();
        b.sync().unwrap();
        let mut buf = [0u8; 5];
        b.read_exact_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        b.replace_with(&mut |src, out| {
            let mut old = vec![0u8; src.len() as usize];
            src.read_exact_at(0, &mut old)?;
            out.write_all(b"new:")?;
            out.write_all(&old[..5])?;
            Ok(())
        })
        .unwrap();
        assert_eq!(b.len(), 9);
        let mut buf = vec![0u8; 9];
        b.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"new:hello");
        assert_eq!(std::fs::read(&path).unwrap(), b"new:hello");
        let _ = std::fs::remove_file(&path);
    }
}
