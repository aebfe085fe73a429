//! Integration tests for stz-mutate over real files:
//!
//! * concurrent `ContainerReader`s pin their generation: a reader opened
//!   before a delete + compaction keeps decoding the old generation
//!   byte-identically (its file descriptor holds the pre-rename inode),
//!   while fresh opens see the new one;
//! * in-place v2 -> v3 upgrade preserves every entry byte-identically and
//!   is idempotent;
//! * a container grown by incremental appends decodes identically to a
//!   never-mutated control packed in one shot — mutation leaves no trace
//!   in the decoded data.

use stz::data::synth;
use stz::mutate::{upgrade_image, upgrade_path, FileBacking, MutableContainer};
use stz::prelude::*;
use stz::stream::{ContainerReader, ContainerWriter, FileSource, PackEntry};

fn dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("stz_mutate_it_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn archive(seed: u64) -> StzArchive<f32> {
    let f = synth::miranda_like(Dims::d3(12, 12, 12), seed);
    StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap()
}

fn decode_all(reader: &ContainerReader<FileSource>) -> Vec<(String, Vec<f32>)> {
    (0..reader.entry_count())
        .map(|i| {
            let name = reader.entry_meta(i).unwrap().name().to_string();
            let field = reader.entry::<f32>(i).unwrap().decompress().unwrap();
            (name, field.as_slice().to_vec())
        })
        .collect()
}

#[test]
fn concurrent_readers_pin_their_generation_through_delete_and_compaction() {
    let d = dir("pin");
    let path = d.join("live.stzc");
    let mut c = MutableContainer::open_path(&path).unwrap();
    c.append("a", &PackEntry::from(archive(1))).unwrap();
    c.append("b", &PackEntry::from(archive(2))).unwrap();
    c.commit().unwrap();

    // A reader opened now pins generation 2 — including entry "b".
    let pinned = ContainerReader::open_path(&path).unwrap();
    assert_eq!(pinned.generation(), 2);
    let before = decode_all(&pinned);
    assert_eq!(before.len(), 2);

    // Delete "b" and compact while the old reader stays open.
    c.delete("b").unwrap();
    c.commit().unwrap();
    let stats = c.compact().unwrap();
    assert!(stats.reclaimed_bytes > 0, "the deleted entry's bytes must be reclaimed");

    // The pinned reader still serves its complete old generation: the
    // compaction rename replaced the directory entry, not the open inode.
    assert_eq!(decode_all(&pinned), before, "pinned generation must stay byte-identical");

    // A fresh open sees the compacted new generation without "b".
    let fresh = ContainerReader::open_path(&path).unwrap();
    assert_eq!(fresh.generation(), 4, "delete commit is gen 3, compaction gen 4");
    assert_eq!(fresh.dead_payload_bytes(), 0, "compaction leaves no dead bytes");
    let after = decode_all(&fresh);
    assert_eq!(after.len(), 1);
    assert_eq!(after[0], before[0], "surviving entry must decode identically");
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn v2_upgrade_in_place_preserves_entries_and_is_idempotent() {
    let d = dir("upgrade");
    let path = d.join("old.stzc");
    let file = std::fs::File::create(&path).unwrap();
    let mut w = ContainerWriter::new(std::io::BufWriter::new(file)).unwrap();
    let (a0, a1) = (archive(10), archive(11));
    w.add_archive("s0", &a0).unwrap();
    w.add_archive("s1", &a1).unwrap();
    w.finish().unwrap();
    let before = decode_all(&ContainerReader::open_path(&path).unwrap());
    let v2 = std::fs::read(&path).unwrap();

    assert!(upgrade_path(&path).unwrap(), "a v2 container upgrades");
    let upgraded = std::fs::read(&path).unwrap();
    assert!(upgraded == upgrade_image(&v2).unwrap(), "in place, the image upgrade_image makes");
    let reader = ContainerReader::open_path(&path).unwrap();
    assert_eq!(reader.version(), 3);
    assert_eq!(reader.generation(), 1);
    assert_eq!(decode_all(&reader), before, "upgrade must preserve every entry");

    assert!(!upgrade_path(&path).unwrap(), "upgrading a v3 container is a no-op");
    assert_eq!(decode_all(&ContainerReader::open_path(&path).unwrap()), before);
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn incremental_appends_decode_identically_to_a_never_mutated_control() {
    let d = dir("control");
    let archives: Vec<StzArchive<f32>> = (0..4).map(|i| archive(20 + i)).collect();

    // Control: all entries packed in one shot, never mutated.
    let control_path = d.join("control.stzc");
    let file = std::fs::File::create(&control_path).unwrap();
    let mut w = ContainerWriter::new(std::io::BufWriter::new(file)).unwrap();
    for (i, a) in archives.iter().enumerate() {
        w.add_archive(&format!("e{i}"), a).unwrap();
    }
    w.finish().unwrap();

    // Candidate: grown one committed generation per entry, then compacted.
    let grown_path = d.join("grown.stzc");
    let mut c = MutableContainer::create(FileBacking::create(&grown_path).unwrap()).unwrap();
    for (i, a) in archives.iter().enumerate() {
        c.append(&format!("e{i}"), &PackEntry::from(a.clone())).unwrap();
        c.commit().unwrap();
    }
    c.compact().unwrap();
    drop(c);

    let control = decode_all(&ContainerReader::open_path(&control_path).unwrap());
    let grown = decode_all(&ContainerReader::open_path(&grown_path).unwrap());
    assert_eq!(control, grown, "mutation history must leave no trace in decoded data");
    let _ = std::fs::remove_dir_all(&d);
}
