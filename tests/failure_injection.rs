//! Failure injection: corrupted, truncated, or foreign archives must be
//! rejected with an error — never a panic, hang, or huge allocation.

use stz::data::synth;
use stz::prelude::*;

fn sample_archives() -> Vec<(&'static str, Vec<u8>)> {
    let f = synth::miranda_like(Dims::d3(14, 13, 12), 21);
    vec![
        (
            "stz",
            StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap().into_bytes(),
        ),
        ("sz3", stz::sz3::compress(&f, &stz::sz3::Sz3Config::absolute(1e-3)).unwrap()),
        ("sperr", stz::sperr::compress(&f, &stz::sperr::SperrConfig::new(1e-3))),
        ("zfp", stz::zfp::compress(&f, &stz::zfp::ZfpConfig::new(1e-3))),
        ("mgard", stz::mgard::compress(&f, &stz::mgard::MgardConfig::new(1e-3)).unwrap()),
    ]
}

fn try_decode(name: &str, bytes: &[u8]) {
    // Must return (Ok or Err) without panicking.
    match name {
        "stz" => {
            if let Ok(a) = StzArchive::<f32>::from_bytes(bytes.to_vec()) {
                let _ = a.decompress();
                let _ = a.decompress_level(1);
                let _ = a.decompress_region(&Region::d3(0..2, 0..2, 0..2));
            }
        }
        "sz3" => {
            let _ = stz::sz3::decompress::<f32>(bytes);
        }
        "sperr" => {
            let _ = stz::sperr::decompress::<f32>(bytes);
        }
        "zfp" => {
            let _ = stz::zfp::decompress::<f32>(bytes);
        }
        "mgard" => {
            let _ = stz::mgard::decompress::<f32>(bytes);
        }
        _ => unreachable!(),
    }
}

#[test]
fn truncation_sweep_never_panics() {
    for (name, bytes) in sample_archives() {
        let step = (bytes.len() / 97).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            try_decode(name, &bytes[..cut]);
        }
    }
}

#[test]
fn single_byte_corruption_never_panics() {
    for (name, bytes) in sample_archives() {
        let step = (bytes.len() / 211).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0xA5;
            try_decode(name, &corrupted);
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    // Deterministic pseudo-random buffers of various lengths.
    for len in [0usize, 1, 3, 16, 64, 333, 4096] {
        let garbage: Vec<u8> = (0..len)
            .map(|i| (stz::data::synth::noise::hash64(i as u64 ^ 0xDEAD) & 0xFF) as u8)
            .collect();
        for name in ["stz", "sz3", "sperr", "zfp", "mgard"] {
            try_decode(name, &garbage);
        }
    }
}

#[test]
fn header_bomb_dims_rejected_without_allocation() {
    // A forged header claiming absurd dims must be rejected before any
    // proportional allocation happens (the MAX_POINTS cap).
    let f = synth::miranda_like(Dims::d3(8, 8, 8), 2);
    let bytes = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap().into_bytes();
    // dims live right after magic+version+type+ndim = byte 7 onwards as
    // uvarints; overwrite with huge varints.
    let mut forged = bytes.clone();
    forged[7] = 0xFF;
    forged[8] = 0xFF;
    forged[9] = 0xFF;
    let r = StzArchive::<f32>::from_bytes(forged);
    assert!(r.is_err());
}

#[test]
fn from_bytes_truncation_exhaustive() {
    // Parsing catalogues every section without touching entropy-coded
    // payloads, so sweeping *every* prefix is cheap — and none may panic.
    // Anything shorter than the full stream must be rejected (the parser
    // demands zero trailing bytes and complete framing).
    let f = synth::miranda_like(Dims::d3(10, 11, 12), 31);
    let bytes = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap().into_bytes();
    for cut in 0..bytes.len() {
        assert!(
            StzArchive::<f32>::from_bytes(bytes[..cut].to_vec()).is_err(),
            "prefix of {cut} bytes parsed as a complete archive"
        );
    }
    assert!(StzArchive::<f32>::from_bytes(bytes).is_ok());
}

#[test]
fn forged_section_lengths_rejected() {
    // A forged length prefix on the level-1 stream shifts all downstream
    // framing; the parser must catch it (range validation), never panic or
    // over-allocate.
    let f = synth::miranda_like(Dims::d3(12, 12, 12), 17);
    let a = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
    let bytes = a.as_bytes();
    let l1 = a.l1_range();

    // The varint length prefix ends one byte before the stream: setting its
    // continuation bit splices the payload into the length itself.
    let mut forged = bytes.to_vec();
    forged[l1.start - 1] |= 0x80;
    assert!(StzArchive::<f32>::from_bytes(forged).is_err());

    // An absurdly long varint (all continuation bits) must be rejected too.
    let mut forged = bytes.to_vec();
    for k in 1..=2usize.min(l1.start) {
        forged[l1.start - k] = 0xFF;
    }
    assert!(StzArchive::<f32>::from_bytes(forged).is_err());

    // Same attack on a finer-level sub-block stream.
    let b = a.block_range(2, 0);
    let mut forged = bytes.to_vec();
    forged[b.start - 1] |= 0x80;
    assert!(StzArchive::<f32>::from_bytes(forged).is_err());
}

#[test]
fn header_field_corruption_sweep_never_panics() {
    // Flip every byte of the structural header region (everything before
    // the level-1 stream) through several masks: parse + decode attempts
    // must stay total.
    let f = synth::miranda_like(Dims::d3(12, 12, 12), 23);
    let a = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
    let bytes = a.as_bytes();
    let header_len = a.l1_range().start;
    for pos in 0..header_len {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupted = bytes.to_vec();
            corrupted[pos] ^= mask;
            try_decode("stz", &corrupted);
        }
    }
}

#[test]
fn swapped_level_blocks_detected() {
    // Swapping two sub-block streams corrupts geometry-dependent counts;
    // decompression must fail or at worst produce a field (never panic).
    let f = synth::miranda_like(Dims::d3(16, 16, 16), 3);
    let a = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
    let b2 = a.block_bytes(2, 0).to_vec();
    let b3 = a.block_bytes(3, 0).to_vec();
    if b2.len() != b3.len() {
        // Reconstruct raw bytes with the two streams exchanged: lengths are
        // varint-prefixed, so a swap with different lengths shifts framing
        // and must be caught by the parser or payload validation.
        let raw = a.as_bytes();
        let pos2 = raw.windows(b2.len()).position(|w| w == b2).unwrap();
        let pos3 = raw.windows(b3.len()).position(|w| w == b3).unwrap();
        let mut swapped = raw.to_vec();
        // Overwrite block-2's bytes with a prefix of block-3's (same len).
        let n = b2.len().min(b3.len());
        let (a_range, b_range) = (pos2..pos2 + n, pos3..pos3 + n);
        let tmp: Vec<u8> = swapped[a_range.clone()].to_vec();
        let from_b: Vec<u8> = swapped[b_range.clone()].to_vec();
        swapped[a_range].copy_from_slice(&from_b);
        swapped[b_range].copy_from_slice(&tmp);
        if let Ok(parsed) = StzArchive::<f32>::from_bytes(swapped) {
            let _ = parsed.decompress();
        }
    }
}

// ---------------------------------------------------------------------------
// Crash safety of mutable (v3) containers: kill-at-every-byte sweep.
// ---------------------------------------------------------------------------

mod crash_safety {
    use std::collections::BTreeMap;
    use stz::data::synth;
    use stz::mutate::{journal_cost, replay_prefix, MutableContainer, RecordingBacking};
    use stz::prelude::*;
    use stz::stream::{ContainerReader, MemorySource, PackEntry};

    fn small_entry(seed: u64) -> PackEntry {
        let f = synth::miranda_like(Dims::d3(8, 8, 8), seed);
        StzCompressor::new(StzConfig::three_level(1e-2)).compress(&f).unwrap().into()
    }

    /// Decoded full-field bytes of every entry, in container order.
    fn decode_all(reader: &ContainerReader<MemorySource>) -> Vec<(String, Vec<u8>)> {
        (0..reader.entry_count())
            .map(|i| {
                let meta = reader.entry_meta(i).unwrap();
                let name = meta.name().to_string();
                let field = reader.entry::<f32>(i).unwrap().decompress().unwrap();
                let mut bytes = Vec::with_capacity(field.nbytes());
                for &v in field.as_slice() {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                (name, bytes)
            })
            .collect()
    }

    /// Drive a full mutation history over a journaling backing, snapshot
    /// the expected container contents after every commit, then replay
    /// the write journal cut at EVERY byte offset. Each interrupted image
    /// must open as one of the committed generations — with every entry
    /// decoding byte-identically to that generation's snapshot — or be
    /// cleanly detected as torn. Never a panic, never a mixed state.
    #[test]
    fn kill_at_every_byte_offset_yields_a_committed_generation_or_clean_torn_error() {
        let mut c = MutableContainer::create(RecordingBacking::new(Vec::new())).unwrap();
        // generation -> expected (name, decoded bytes) per entry.
        let mut snapshots: BTreeMap<u64, Vec<(String, Vec<u8>)>> = BTreeMap::new();
        let snap = |c: &MutableContainer<RecordingBacking>| {
            let image = c.backing().image().to_vec();
            let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
            assert_eq!(reader.generation(), c.generation());
            (c.generation(), decode_all(&reader))
        };
        let (g, s) = snap(&c);
        snapshots.insert(g, s); // generation 1: empty

        c.append("a", &small_entry(1)).unwrap();
        c.append("b", &small_entry(2)).unwrap();
        c.commit().unwrap();
        let (g, s) = snap(&c);
        snapshots.insert(g, s); // generation 2: a, b

        c.replace("a", &small_entry(3)).unwrap();
        c.delete("b").unwrap();
        c.append("c", &small_entry(4)).unwrap();
        c.commit().unwrap();
        let (g, s) = snap(&c);
        snapshots.insert(g, s); // generation 3: a', c

        c.compact().unwrap();
        let (g, s) = snap(&c);
        snapshots.insert(g, s); // generation 4: a', c, dense
        let final_generation = g;

        let (base, journal) = c.into_backing().into_parts();
        let total = journal_cost(&journal);
        let mut seen_generations = std::collections::BTreeSet::new();
        let mut verified = std::collections::BTreeSet::new();
        for budget in 0..=total {
            let image = replay_prefix(&base, &journal, budget);
            match ContainerReader::open(MemorySource::new(image)) {
                Ok(reader) => {
                    let generation = reader.generation();
                    let expected = snapshots.get(&generation).unwrap_or_else(|| {
                        panic!("crash at byte {budget} exposed uncommitted generation {generation}")
                    });
                    let names: Vec<String> = (0..reader.entry_count())
                        .map(|i| reader.entry_meta(i).unwrap().name().to_string())
                        .collect();
                    let expect_names: Vec<String> =
                        expected.iter().map(|(n, _)| n.clone()).collect();
                    assert_eq!(
                        names, expect_names,
                        "crash at byte {budget}: generation {generation} entry table mixed"
                    );
                    seen_generations.insert(generation);
                    // Payload bytes of a committed generation are already
                    // durable in this model, so content only needs one
                    // verification per (generation, footer) pair.
                    if verified.insert((generation, reader.footer_off())) {
                        assert_eq!(
                            &decode_all(&reader),
                            expected,
                            "crash at byte {budget}: generation {generation} decoded differently"
                        );
                    }
                }
                // Before the very first commit completes there is no
                // committed generation to fall back to; the open must
                // still fail cleanly (corrupt/torn), which reaching this
                // arm without panicking demonstrates.
                Err(e) => {
                    let msg = e.to_string();
                    assert!(
                        !msg.is_empty() && seen_generations.is_empty(),
                        "crash at byte {budget} lost committed generations {seen_generations:?}: {msg}"
                    );
                }
            }
        }
        assert!(
            seen_generations.contains(&final_generation),
            "full replay must surface the final generation"
        );
        assert!(
            seen_generations.len() >= 3,
            "sweep should traverse several generations, saw {seen_generations:?}"
        );
    }

    /// Corrupting both generation slots must be detected as torn — the
    /// reader refuses with a clean diagnostic instead of guessing.
    #[test]
    fn both_slots_torn_is_cleanly_detected() {
        let mut c = MutableContainer::create(RecordingBacking::new(Vec::new())).unwrap();
        c.append("a", &small_entry(7)).unwrap();
        c.commit().unwrap();
        let mut image = c.backing().image().to_vec();
        for byte in &mut image[8..104] {
            *byte ^= 0x5A;
        }
        let err = ContainerReader::open(MemorySource::new(image)).unwrap_err();
        assert!(err.to_string().contains("torn"), "unexpected diagnostic: {err}");
    }

    /// Single-byte corruption anywhere in a committed v3 image must never
    /// panic: the reader opens the surviving generation or errors cleanly,
    /// and decodes either succeed or error (payload CRCs catch the rest).
    #[test]
    fn mutable_container_single_byte_corruption_never_panics() {
        let mut c = MutableContainer::create(RecordingBacking::new(Vec::new())).unwrap();
        c.append("a", &small_entry(11)).unwrap();
        c.append("b", &small_entry(12)).unwrap();
        c.commit().unwrap();
        c.delete("a").unwrap();
        c.commit().unwrap();
        let image = c.backing().image().to_vec();
        let step = (image.len() / 211).max(1);
        for pos in (0..image.len()).step_by(step) {
            let mut corrupted = image.clone();
            corrupted[pos] ^= 0xA5;
            if let Ok(reader) = ContainerReader::open(MemorySource::new(corrupted)) {
                for i in 0..reader.entry_count() {
                    if let Ok(entry) = reader.entry::<f32>(i) {
                        let _ = entry.decompress();
                    }
                }
            }
        }
    }
}
