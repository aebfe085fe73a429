//! The mutable container: staged mutations, atomic generation commits,
//! and crash-safe compaction.
//!
//! ## Commit protocol
//!
//! A v3 container holds two 48-byte generation slots right after the
//! header (see `stz_stream::format`). All mutation staging — appended
//! payloads, replacement payloads — lands strictly *past* the committed
//! tail, so no committed byte is ever overwritten. [`commit`] then:
//!
//! 1. writes the new footer at the staging tail and **syncs** — the new
//!    generation now exists in full, but nothing points at it;
//! 2. writes the *inactive* generation slot (the only in-place overwrite
//!    in the whole protocol, and it never touches the active slot) and
//!    **syncs** — the flip is the single 48-byte slot write, made valid or
//!    invalid atomically by its own CRC.
//!
//! A crash before step 2 completes leaves the previous generation's slot
//! untouched: readers open the old generation, byte-identical to what was
//! last committed. A crash *during* step 2 leaves a torn slot, which fails
//! its CRC and is ignored. There is no interrupted state that reads as a
//! mixture.
//!
//! ## Compaction
//!
//! [`compact`] rewrites only live payloads into a fresh image (payloads
//! back to back from the data start, then the footer, generation slot 0
//! pointing at it) and swaps it in via
//! [`MutBacking::replace_with`] — for files, a sibling write + `fsync` +
//! atomic `rename(2)`. Concurrent readers holding the old file descriptor
//! keep the old inode alive and finish their queries on the old,
//! still-complete generation; new opens see the compacted one.
//!
//! [`commit`]: MutableContainer::commit
//! [`compact`]: MutableContainer::compact

use crate::backing::{FileBacking, MutBacking};
use crate::metrics::metrics;
use std::io::Write;
use std::path::Path;
use stz_codec::{CodecError, Result};
use stz_field::Scalar;
use stz_stream::crc::{crc32, Crc32};
use stz_stream::format::{
    encode_footer, encode_gen_slot, parse_footer_bounded, parse_gen_slot, EntryDetail, EntryRecord,
    GenSlot, SectionLoc, StzDetail, CONTAINER_MAGIC, GEN_SLOT_LEN, GEN_SLOT_OFFSETS, HEADER_LEN,
    MUTABLE_CONTAINER_VERSION, MUTABLE_DATA_START,
};
use stz_stream::{
    index_pack_entry, run_pipelined, ByteSource, ContainerReader, MemorySource, PackEntry,
};

/// Chunk size for payload copies during compaction and upgrade.
const COPY_CHUNK: usize = 1 << 20;

/// Point-in-time accounting of a mutable container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutStats {
    /// Committed generation number.
    pub generation: u64,
    /// Entries in the current (possibly uncommitted) index.
    pub entries: usize,
    /// Committed bytes (header through footer of the committed generation).
    pub committed_len: u64,
    /// Uncommitted staging bytes past the committed tail.
    pub staged_bytes: u64,
    /// Committed payload bytes the current index still references.
    pub live_payload_bytes: u64,
    /// Committed payload-region bytes no longer referenced — superseded
    /// payloads and stale footers, reclaimable by compaction.
    pub dead_payload_bytes: u64,
}

/// Outcome of one [`MutableContainer::compact`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Generation number of the compacted image.
    pub generation: u64,
    /// Committed bytes before compaction.
    pub before_bytes: u64,
    /// Committed bytes after compaction.
    pub after_bytes: u64,
    /// Dead bytes reclaimed (`before - after`).
    pub reclaimed_bytes: u64,
}

/// A writable v3 container over any [`MutBacking`].
///
/// One `MutableContainer` is the single writer of its backing; any number
/// of [`ContainerReader`]s may read the same bytes concurrently, each
/// pinned to the generation it opened.
#[derive(Debug)]
pub struct MutableContainer<B: MutBacking> {
    backing: B,
    entries: Vec<EntryRecord>,
    generation: u64,
    /// Index into [`GEN_SLOT_OFFSETS`] of the committed generation's slot.
    active_slot: usize,
    /// Footer offset of the committed generation.
    footer_off: u64,
    committed_len: u64,
    /// End of staged bytes; the next payload or footer lands here.
    staged_len: u64,
    dirty: bool,
}

impl MutableContainer<FileBacking> {
    /// Open the container file at `path` for mutation, creating an empty
    /// one if the file does not exist and transparently upgrading a
    /// write-once (v1/v2) container to the mutable layout first (see
    /// [`upgrade_path`]).
    pub fn open_path(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        if !path.exists() {
            return Self::create(FileBacking::create(path)?);
        }
        upgrade_path(path)?;
        Self::open(FileBacking::open(path)?)
    }
}

impl<B: MutBacking> MutableContainer<B> {
    /// Initialize `backing` as an empty mutable container (generation 1,
    /// zero entries) and open it.
    pub fn create(mut backing: B) -> Result<Self> {
        backing.set_len(0)?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[0..4].copy_from_slice(&CONTAINER_MAGIC);
        header[4] = MUTABLE_CONTAINER_VERSION;
        backing.write_all_at(0, &header)?;
        // Zero both slots so stale bytes from a recycled backing can never
        // parse as a generation.
        backing.write_all_at(HEADER_LEN, &[0u8; 2 * GEN_SLOT_LEN as usize])?;
        let footer = encode_footer(&[]);
        backing.write_all_at(MUTABLE_DATA_START, &footer)?;
        backing.sync()?;
        let slot = GenSlot {
            generation: 1,
            footer_off: MUTABLE_DATA_START,
            footer_len: footer.len() as u64,
            committed_len: MUTABLE_DATA_START + footer.len() as u64,
            footer_crc: crc32(&footer),
        };
        backing.write_all_at(GEN_SLOT_OFFSETS[0], &encode_gen_slot(&slot))?;
        backing.sync()?;
        metrics().generation.set(1);
        Ok(MutableContainer {
            backing,
            entries: Vec::new(),
            generation: 1,
            active_slot: 0,
            footer_off: slot.footer_off,
            committed_len: slot.committed_len,
            staged_len: slot.committed_len,
            dirty: false,
        })
    }

    /// Open an existing mutable container: pick the valid generation slot
    /// with the highest generation, load its index, and truncate any torn
    /// staging bytes past the committed tail (left by a crashed writer;
    /// they belong to no generation).
    pub fn open(mut backing: B) -> Result<Self> {
        let file_len = backing.len();
        if file_len < MUTABLE_DATA_START {
            return Err(CodecError::corrupt(format!(
                "file of {file_len} bytes is too short for a mutable container"
            )));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        backing.read_exact_at(0, &mut header)?;
        if header[0..4] != CONTAINER_MAGIC {
            return Err(CodecError::corrupt("bad container magic"));
        }
        let version = header[4];
        if version != MUTABLE_CONTAINER_VERSION {
            return Err(CodecError::unsupported(format!(
                "container format version {version} is not mutable; upgrade it first"
            )));
        }
        let mut best: Option<(usize, GenSlot)> = None;
        for (i, off) in GEN_SLOT_OFFSETS.iter().enumerate() {
            let mut raw = [0u8; GEN_SLOT_LEN as usize];
            backing.read_exact_at(*off, &mut raw)?;
            if let Some(slot) = parse_gen_slot(&raw) {
                if slot.plausible(file_len)
                    && best.map_or(true, |(_, b)| slot.generation > b.generation)
                {
                    best = Some((i, slot));
                }
            }
        }
        let (active_slot, slot) = best.ok_or_else(|| {
            CodecError::corrupt("torn mutable container: no valid generation slot")
        })?;
        let mut footer = vec![0u8; slot.footer_len as usize];
        backing.read_exact_at(slot.footer_off, &mut footer)?;
        if crc32(&footer) != slot.footer_crc {
            return Err(CodecError::corrupt("footer checksum mismatch"));
        }
        let entries = parse_footer_bounded(
            &footer,
            MUTABLE_DATA_START,
            slot.footer_off,
            MUTABLE_CONTAINER_VERSION,
        )?;
        if file_len > slot.committed_len {
            backing.set_len(slot.committed_len)?;
        }
        metrics().generation.set(slot.generation as i64);
        Ok(MutableContainer {
            backing,
            entries,
            generation: slot.generation,
            active_slot,
            footer_off: slot.footer_off,
            committed_len: slot.committed_len,
            staged_len: slot.committed_len,
            dirty: false,
        })
    }

    /// Committed generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether uncommitted mutations are staged.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Entries in the current (possibly uncommitted) index.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Index of the entry named `name` in the current index.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// Names in the current index, in container order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// The current (possibly uncommitted) index records, in container
    /// order.
    pub fn records(&self) -> &[EntryRecord] {
        &self.entries
    }

    /// The underlying backing (e.g. to snapshot a recording journal).
    pub fn backing(&self) -> &B {
        &self.backing
    }

    /// Consume the container, returning the backing. Uncommitted staging
    /// is discarded by the next [`open`](MutableContainer::open).
    pub fn into_backing(self) -> B {
        self.backing
    }

    /// Open a read-only snapshot of the *committed* generation over a
    /// borrowed backing (staged bytes are invisible to it by
    /// construction).
    pub fn snapshot(&self) -> Result<ContainerReader<&B>> {
        ContainerReader::open(&self.backing)
    }

    /// Point-in-time accounting. Dead bytes reflect the current index:
    /// an uncommitted replace/delete already counts its superseded
    /// payload as dead.
    pub fn stats(&self) -> MutStats {
        let live: u64 = self
            .entries
            .iter()
            .filter(|e| e.payload.off < self.footer_off)
            .map(|e| e.payload.len)
            .sum();
        MutStats {
            generation: self.generation,
            entries: self.entries.len(),
            committed_len: self.committed_len,
            staged_bytes: self.staged_len - self.committed_len,
            live_payload_bytes: live,
            dead_payload_bytes: (self.footer_off - MUTABLE_DATA_START).saturating_sub(live),
        }
    }

    /// Stage one entry's payload at the tail and add it to the index.
    fn stage<T: Scalar>(&mut self, name: &str, entry: &PackEntry<T>) -> Result<EntryRecord> {
        let (record, bytes) = index_pack_entry(name, entry, self.staged_len)?;
        self.backing.write_all_at(self.staged_len, bytes)?;
        self.staged_len += bytes.len() as u64;
        self.dirty = true;
        Ok(record)
    }

    /// Append a new entry. The payload is staged past the committed tail
    /// and invisible to readers until [`commit`](MutableContainer::commit).
    /// Names are unique in a mutable container: appending an existing name
    /// is an error (use [`replace`](MutableContainer::replace)).
    pub fn append<T: Scalar>(&mut self, name: &str, entry: &PackEntry<T>) -> Result<()> {
        if self.find(name).is_some() {
            return Err(CodecError::unsupported(format!(
                "entry {name:?} already exists; replace or delete it first"
            )));
        }
        let record = self.stage(name, entry)?;
        self.entries.push(record);
        metrics().appends.inc();
        Ok(())
    }

    /// Append many entries with pipelined ingestion: `run` compresses jobs
    /// on `threads` worker threads while this thread stages each finished
    /// entry **in job order** (same engine as
    /// [`pack_pipelined`](stz_stream::pack_pipelined), so the staged bytes
    /// are identical to a serial append loop). Returns the number of
    /// entries appended. Nothing becomes visible until
    /// [`commit`](MutableContainer::commit).
    pub fn append_pipelined<T, J, F>(
        &mut self,
        jobs: Vec<J>,
        threads: usize,
        run: F,
    ) -> Result<usize>
    where
        T: Scalar,
        J: Send,
        F: Fn(J) -> Result<(String, PackEntry<T>)> + Sync,
    {
        let mut appended = 0usize;
        run_pipelined(jobs, threads, run, |name, entry| {
            self.append(&name, &entry)?;
            appended += 1;
            Ok(())
        })?;
        Ok(appended)
    }

    /// Replace the entry named `name` with a new payload. The old payload
    /// bytes stay where they are (dead after the next commit, reclaimable
    /// by compaction); readers of the committed generation are unaffected.
    pub fn replace<T: Scalar>(&mut self, name: &str, entry: &PackEntry<T>) -> Result<()> {
        let index = self
            .find(name)
            .ok_or_else(|| CodecError::corrupt(format!("no entry named {name:?}")))?;
        let record = self.stage(name, entry)?;
        self.entries[index] = record;
        Ok(())
    }

    /// Remove the entry named `name` from the index. Its payload bytes
    /// become dead at the next commit.
    pub fn delete(&mut self, name: &str) -> Result<()> {
        let index = self
            .find(name)
            .ok_or_else(|| CodecError::corrupt(format!("no entry named {name:?}")))?;
        self.entries.remove(index);
        self.dirty = true;
        Ok(())
    }

    /// Commit all staged mutations as the next generation (see the module
    /// docs for the two-sync protocol) and return its number. A no-op
    /// (returning the current generation) when nothing is staged.
    pub fn commit(&mut self) -> Result<u64> {
        if !self.dirty {
            return Ok(self.generation);
        }
        let footer = encode_footer(&self.entries);
        let footer_off = self.staged_len;
        self.backing.write_all_at(footer_off, &footer)?;
        self.backing.sync()?;
        let slot = GenSlot {
            generation: self.generation + 1,
            footer_off,
            footer_len: footer.len() as u64,
            committed_len: footer_off + footer.len() as u64,
            footer_crc: crc32(&footer),
        };
        let inactive = 1 - self.active_slot;
        self.backing.write_all_at(GEN_SLOT_OFFSETS[inactive], &encode_gen_slot(&slot))?;
        self.backing.sync()?;
        self.generation = slot.generation;
        self.active_slot = inactive;
        self.footer_off = footer_off;
        self.committed_len = slot.committed_len;
        self.staged_len = slot.committed_len;
        self.dirty = false;
        metrics().generation.set(self.generation as i64);
        Ok(self.generation)
    }

    /// Compact the container: commit any staged mutations, then rewrite
    /// only the live payloads into a fresh image and atomically swap it in
    /// (sibling file + `rename(2)` for file backings). Every payload is
    /// CRC-verified as it is copied. Concurrent readers pinned to the old
    /// generation are unaffected; the compacted image is the next
    /// generation.
    pub fn compact(&mut self) -> Result<CompactStats> {
        self.commit()?;
        let started = std::time::Instant::now();
        let before = self.committed_len;
        let generation = self.generation + 1;
        let new_entries = remap_entries(&self.entries);
        let footer = encode_footer(&new_entries);
        let slot = slot_for(generation, &new_entries, &footer);
        let old_entries = &self.entries;
        self.backing
            .replace_with(&mut |src, out| write_v3_image(src, old_entries, &footer, &slot, out))?;
        self.entries = new_entries;
        self.generation = generation;
        self.active_slot = 0;
        self.footer_off = slot.footer_off;
        self.committed_len = slot.committed_len;
        self.staged_len = slot.committed_len;
        self.dirty = false;
        let reclaimed = before.saturating_sub(self.committed_len);
        let m = metrics();
        m.generation.set(generation as i64);
        m.reclaimed.add(reclaimed);
        m.compact.record_duration(started.elapsed());
        Ok(CompactStats {
            generation,
            before_bytes: before,
            after_bytes: self.committed_len,
            reclaimed_bytes: reclaimed,
        })
    }
}

/// Shift one record so its payload begins at `new_off` (sections keep
/// their lengths and CRCs — bytes are copied verbatim).
fn remap_record(r: &EntryRecord, new_off: u64) -> EntryRecord {
    let shift = |s: &SectionLoc| SectionLoc {
        off: new_off + (s.off - r.payload.off),
        len: s.len,
        crc: s.crc,
    };
    let detail = match &r.detail {
        EntryDetail::Stz(d) => EntryDetail::Stz(StzDetail {
            header: d.header.clone(),
            l1: shift(&d.l1),
            blocks: d.blocks.iter().map(|lv| lv.iter().map(shift).collect()).collect(),
        }),
        EntryDetail::Foreign(d) => EntryDetail::Foreign(*d),
    };
    EntryRecord { name: r.name.clone(), codec: r.codec, payload: shift(&r.payload), detail }
}

/// Lay the records' payloads back to back from the v3 data start.
fn remap_entries(old: &[EntryRecord]) -> Vec<EntryRecord> {
    let mut cursor = MUTABLE_DATA_START;
    old.iter()
        .map(|r| {
            let record = remap_record(r, cursor);
            cursor += r.payload.len;
            record
        })
        .collect()
}

/// The generation slot describing a dense image of `entries` + `footer`.
fn slot_for(generation: u64, entries: &[EntryRecord], footer: &[u8]) -> GenSlot {
    let footer_off = MUTABLE_DATA_START + entries.iter().map(|e| e.payload.len).sum::<u64>();
    GenSlot {
        generation,
        footer_off,
        footer_len: footer.len() as u64,
        committed_len: footer_off + footer.len() as u64,
        footer_crc: crc32(footer),
    }
}

/// Stream a complete v3 image — header, slot 0 = `slot`, slot 1 zeroed,
/// every payload of `old` copied (CRC-verified) back to back, `footer` —
/// into `out`.
fn write_v3_image(
    src: &dyn ByteSource,
    old: &[EntryRecord],
    footer: &[u8],
    slot: &GenSlot,
    out: &mut dyn Write,
) -> Result<()> {
    let mut head = [0u8; MUTABLE_DATA_START as usize];
    head[0..4].copy_from_slice(&CONTAINER_MAGIC);
    head[4] = MUTABLE_CONTAINER_VERSION;
    head[HEADER_LEN as usize..(HEADER_LEN + GEN_SLOT_LEN) as usize]
        .copy_from_slice(&encode_gen_slot(slot));
    out.write_all(&head)?;
    let mut buf = vec![0u8; COPY_CHUNK];
    for record in old {
        let mut crc = Crc32::new();
        let mut off = record.payload.off;
        let mut remaining = record.payload.len;
        while remaining > 0 {
            let take = remaining.min(COPY_CHUNK as u64) as usize;
            src.read_exact_at(off, &mut buf[..take])?;
            crc.update(&buf[..take]);
            out.write_all(&buf[..take])?;
            off += take as u64;
            remaining -= take as u64;
        }
        if crc.finish() != record.payload.crc {
            return Err(CodecError::corrupt(format!(
                "entry {:?} payload checksum mismatch during rewrite",
                record.name
            )));
        }
    }
    out.write_all(footer)?;
    Ok(())
}

/// Rewrite a write-once (v1/v2) container image into the mutable v3
/// layout: same entries, same payload bytes (and therefore the same
/// section CRCs), laid out densely after the generation slots, committed
/// as generation 1. A v3 image is returned unchanged.
pub fn upgrade_image(image: &[u8]) -> Result<Vec<u8>> {
    let reader = ContainerReader::open(MemorySource::new(image.to_vec()))?;
    if reader.version() == MUTABLE_CONTAINER_VERSION {
        return Ok(image.to_vec());
    }
    let new_entries = remap_entries(reader.records());
    let footer = encode_footer(&new_entries);
    let slot = slot_for(1, &new_entries, &footer);
    let mut out = Vec::with_capacity(slot.committed_len as usize);
    write_v3_image(reader.source(), reader.records(), &footer, &slot, &mut out)?;
    Ok(out)
}

/// Upgrade the container file at `path` to the mutable v3 layout in
/// place, via a sibling file and atomic rename (a crash leaves either the
/// original or the complete upgrade). Returns `false` (no-op) when the
/// file is already v3.
pub fn upgrade_path(path: impl AsRef<Path>) -> Result<bool> {
    let path = path.as_ref();
    let reader = ContainerReader::open_path(path)?;
    if reader.version() == MUTABLE_CONTAINER_VERSION {
        return Ok(false);
    }
    let new_entries = remap_entries(reader.records());
    let footer = encode_footer(&new_entries);
    let slot = slot_for(1, &new_entries, &footer);

    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".upgrade.tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    let result = (|| -> Result<()> {
        let file = std::fs::File::create(&tmp)?;
        let mut out = std::io::BufWriter::new(file);
        write_v3_image(reader.source(), reader.records(), &footer, &slot, &mut out)?;
        out.flush()?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(())
    })();
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use stz_core::{StzArchive, StzCompressor, StzConfig};
    use stz_field::{Dims, Field};

    fn archive(seed: f32) -> StzArchive<f32> {
        let f = Field::from_fn(Dims::d3(12, 12, 12), |z, y, x| {
            ((z as f32) * 0.2 + seed).sin() + ((y as f32) * 0.1).cos() + x as f32 * 0.01
        });
        StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap()
    }

    fn entry(seed: f32) -> PackEntry<f32> {
        archive(seed).into()
    }

    #[test]
    fn create_append_commit_reopen() {
        let mut mc = MutableContainer::create(MemBacking::empty()).unwrap();
        assert_eq!(mc.generation(), 1);
        mc.append("a", &entry(0.0)).unwrap();
        mc.append("b", &entry(1.0)).unwrap();
        // Staged but uncommitted: a fresh reader sees generation 1, empty.
        let snap = mc.snapshot().unwrap();
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.entry_count(), 0);
        drop(snap);
        assert_eq!(mc.commit().unwrap(), 2);
        assert_eq!(mc.commit().unwrap(), 2, "clean commit is a no-op");

        let image = mc.into_backing().into_bytes();
        let mc = MutableContainer::open(MemBacking::new(image)).unwrap();
        assert_eq!(mc.generation(), 2);
        assert_eq!(mc.entry_count(), 2);
        let snap = mc.snapshot().unwrap();
        let got = snap.entry_by_name::<f32>("a").unwrap().decompress().unwrap();
        assert_eq!(got, archive(0.0).decompress().unwrap());
    }

    #[test]
    fn duplicate_append_rejected_and_replace_delete_roundtrip() {
        let mut mc = MutableContainer::create(MemBacking::empty()).unwrap();
        mc.append("x", &entry(0.0)).unwrap();
        assert!(mc.append("x", &entry(1.0)).is_err());
        mc.commit().unwrap();

        mc.replace("x", &entry(2.0)).unwrap();
        mc.append("y", &entry(3.0)).unwrap();
        mc.commit().unwrap();
        let snap = mc.snapshot().unwrap();
        let got = snap.entry_by_name::<f32>("x").unwrap().decompress().unwrap();
        assert_eq!(got, archive(2.0).decompress().unwrap());
        drop(snap);

        mc.delete("x").unwrap();
        assert!(mc.delete("x").is_err());
        mc.commit().unwrap();
        let snap = mc.snapshot().unwrap();
        assert_eq!(snap.entry_count(), 1);
        assert!(snap.find("x").is_none());
        assert!(snap.find("y").is_some());
    }

    #[test]
    fn compact_reclaims_dead_bytes_and_preserves_payloads() {
        let mut mc = MutableContainer::create(MemBacking::empty()).unwrap();
        mc.append("keep", &entry(0.0)).unwrap();
        mc.append("churn", &entry(1.0)).unwrap();
        mc.commit().unwrap();
        mc.replace("churn", &entry(2.0)).unwrap();
        mc.commit().unwrap();
        let dead = mc.stats().dead_payload_bytes;
        assert!(dead > 0, "superseded payload must count as dead");

        let report = mc.compact().unwrap();
        assert!(report.reclaimed_bytes >= dead);
        assert_eq!(report.before_bytes - report.reclaimed_bytes, report.after_bytes);
        assert_eq!(mc.stats().dead_payload_bytes, 0);

        let snap = mc.snapshot().unwrap();
        assert_eq!(snap.generation(), mc.generation());
        let keep = snap.entry_by_name::<f32>("keep").unwrap();
        assert_eq!(keep.read_archive().unwrap().as_bytes(), archive(0.0).as_bytes());
        let churn = snap.entry_by_name::<f32>("churn").unwrap();
        assert_eq!(churn.read_archive().unwrap().as_bytes(), archive(2.0).as_bytes());
    }

    #[test]
    fn torn_staging_is_truncated_on_open() {
        let mut mc = MutableContainer::create(MemBacking::empty()).unwrap();
        mc.append("a", &entry(0.0)).unwrap();
        mc.commit().unwrap();
        mc.append("lost", &entry(1.0)).unwrap(); // staged, never committed
        let committed = mc.stats().committed_len;
        let image = mc.into_backing().into_bytes();
        assert!(image.len() as u64 > committed);
        let mc = MutableContainer::open(MemBacking::new(image)).unwrap();
        assert_eq!(mc.backing().len(), committed, "torn tail discarded");
        assert_eq!(mc.entry_count(), 1);
    }

    #[test]
    fn pipelined_append_matches_serial() {
        let mut serial = MutableContainer::create(MemBacking::empty()).unwrap();
        for i in 0..5 {
            serial.append(&format!("t{i}"), &entry(i as f32)).unwrap();
        }
        serial.commit().unwrap();
        let mut piped = MutableContainer::create(MemBacking::empty()).unwrap();
        let n = piped
            .append_pipelined((0..5).collect::<Vec<usize>>(), 4, |i| {
                Ok((format!("t{i}"), entry(i as f32)))
            })
            .unwrap();
        assert_eq!(n, 5);
        piped.commit().unwrap();
        assert_eq!(
            serial.into_backing().into_bytes(),
            piped.into_backing().into_bytes(),
            "pipelined ingestion must stage byte-identical containers"
        );
    }

    #[test]
    fn upgrade_v2_image_preserves_entries() {
        let a = archive(0.0);
        let b = archive(1.0);
        let v2 = stz_stream::pack_to_vec(&[("a", &a), ("b", &b)]).unwrap();
        let v3 = upgrade_image(&v2).unwrap();
        assert_eq!(upgrade_image(&v3).unwrap(), v3, "v3 upgrade is idempotent");
        let reader = ContainerReader::open(MemorySource::new(v3.clone())).unwrap();
        assert_eq!(reader.version(), MUTABLE_CONTAINER_VERSION);
        assert_eq!(reader.generation(), 1);
        assert_eq!(reader.entry_count(), 2);
        assert_eq!(
            reader.entry_by_name::<f32>("b").unwrap().read_archive().unwrap().as_bytes(),
            b.as_bytes()
        );
        // And the upgraded image is mutable.
        let mut mc = MutableContainer::open(MemBacking::new(v3)).unwrap();
        mc.append("c", &entry(2.0)).unwrap();
        assert_eq!(mc.commit().unwrap(), 2);
    }
}
