//! Integration tests for the stz-stream out-of-core container:
//!
//! * disk-backed decompression (full / progressive / ROI) is bit-identical
//!   to the in-memory `StzArchive` path;
//! * sub-volume ROI and preview queries read strictly fewer bytes than the
//!   archive, measured through a byte-counting source;
//! * corrupt containers — bad magic, flipped payload or footer bytes,
//!   truncations — yield errors, never panics.

use stz::backend::{registry, ErrorBound};
use stz::data::synth;
use stz::prelude::*;
use stz::stream::{
    format, pack_pipelined, pack_to_vec, ContainerReader, ContainerWriter, CountingSource,
    FileSource, ForeignArchive, MemorySource, PackEntry,
};

fn f32_archive(dims: Dims, seed: u64) -> (Field<f32>, StzArchive<f32>) {
    let f = synth::miranda_like(dims, seed);
    let a = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
    (f, a)
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("stz_container_test_{}_{tag}.stzc", std::process::id()))
}

#[test]
fn disk_roundtrip_matches_memory_path() {
    let dims = Dims::d3(24, 20, 28);
    let (_, a0) = f32_archive(dims, 11);
    let (_, a1) = f32_archive(dims, 12);
    let path = temp_path("roundtrip");
    stz::stream::pack_to_file(&path, &[("t0", &a0), ("t1", &a1)]).unwrap();

    let reader = ContainerReader::open_path(&path).unwrap();
    assert_eq!(reader.entry_count(), 2);
    for (i, a) in [&a0, &a1].into_iter().enumerate() {
        let entry = reader.entry::<f32>(i).unwrap();
        // Full decompression.
        assert_eq!(entry.decompress().unwrap(), a.decompress().unwrap());
        // Every progressive level.
        for k in 1..=a.num_levels() {
            assert_eq!(
                entry.decompress_level(k).unwrap(),
                a.decompress_level(k).unwrap(),
                "entry {i} level {k}"
            );
        }
        // Incremental progressive decoder.
        let mut disk = entry.progressive().unwrap();
        let mut mem = a.progressive();
        while let Some(dp) = disk.next_level().unwrap() {
            assert_eq!(dp, mem.next_level().unwrap().unwrap());
            assert_eq!(disk.next_bytes(), mem.next_bytes());
        }
        // Regions of every flavor.
        for region in [
            Region::d3(3..9, 5..12, 7..20),
            Region::slice_z(dims, 8),
            Region::slice_z(dims, 9),
            Region::full(dims),
            Region::d3(23..24, 19..20, 27..28),
        ] {
            assert_eq!(
                entry.decompress_region(&region).unwrap(),
                a.decompress_region(&region).unwrap(),
                "entry {i} region {region:?}"
            );
        }
        // Payload round-trips bit-identically.
        assert_eq!(entry.read_archive().unwrap().as_bytes(), a.as_bytes());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn f64_entries_roundtrip() {
    let dims = Dims::d3(18, 18, 18);
    let f: Field<f64> = synth::warpx_like(dims, 5);
    let a = StzCompressor::new(StzConfig::three_level_relative(1e-5)).compress(&f).unwrap();
    let image = pack_to_vec(&[("w", &a)]).unwrap();
    let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
    let entry = reader.entry_by_name::<f64>("w").unwrap();
    assert_eq!(entry.decompress().unwrap(), a.decompress().unwrap());
    let region = Region::d3(4..10, 0..18, 2..9);
    assert_eq!(entry.decompress_region(&region).unwrap(), a.decompress_region(&region).unwrap());
}

/// The acceptance bar for the out-of-core subsystem: disk-backed
/// `decompress_region` must read strictly fewer bytes than the full archive
/// for sub-volume ROIs, with bit-identical output.
#[test]
fn roi_reads_strictly_fewer_bytes_than_archive() {
    let dims = Dims::d3(32, 32, 32);
    let (_, a) = f32_archive(dims, 21);
    let archive_len = a.compressed_len() as u64;
    let path = temp_path("counting");
    stz::stream::pack_to_file(&path, &[("field", &a)]).unwrap();

    let reader =
        ContainerReader::open(CountingSource::new(FileSource::open(&path).unwrap())).unwrap();
    let entry = reader.entry::<f32>(0).unwrap();

    for region in [
        Region::d3(0..8, 0..8, 0..8),
        Region::d3(10..22, 10..22, 10..22),
        Region::slice_z(dims, 15),
        Region::slice_z(dims, 16),
        Region::d3(0..1, 0..1, 0..32),
    ] {
        reader.source().reset();
        let roi = entry.decompress_region(&region).unwrap();
        let bytes = reader.source().bytes_read();
        assert!(
            bytes < archive_len,
            "region {region:?} read {bytes} bytes, archive is {archive_len}"
        );
        assert_eq!(roi, a.decompress_region(&region).unwrap(), "region {region:?}");
    }

    // 2-D slices additionally skip whole sub-blocks by parity: well under
    // the full archive, not just "strictly fewer".
    reader.source().reset();
    entry.decompress_region(&Region::slice_z(dims, 16)).unwrap();
    assert!(
        reader.source().bytes_read() < archive_len * 3 / 4,
        "slice read {} of {archive_len} bytes — parity skipping not engaged",
        reader.source().bytes_read()
    );

    // Progressive previews cost ~bytes_through_level, far below the archive,
    // on a reader that has decoded nothing yet.
    let cold =
        ContainerReader::open(CountingSource::new(FileSource::open(&path).unwrap())).unwrap();
    cold.source().reset();
    let p1 = cold.entry::<f32>(0).unwrap().decompress_level(1).unwrap();
    let preview_bytes = cold.source().bytes_read();
    assert_eq!(p1, a.decompress_level(1).unwrap());
    assert!(
        preview_bytes < archive_len / 8,
        "level-1 preview read {preview_bytes} of {archive_len} bytes"
    );
    assert!(preview_bytes >= a.bytes_through_level(1) as u64);

    // The reader that served the ROIs keeps the entry's level 1: its preview
    // reads nothing, and an ROI reads strictly less than on a cold reader.
    reader.source().reset();
    assert_eq!(entry.decompress_level(1).unwrap(), p1);
    assert_eq!(reader.source().bytes_read(), 0, "a warm level-1 preview read bytes");
    let region = Region::d3(10..22, 10..22, 10..22);
    let cold =
        ContainerReader::open(CountingSource::new(FileSource::open(&path).unwrap())).unwrap();
    cold.source().reset();
    let roi = cold.entry::<f32>(0).unwrap().decompress_region(&region).unwrap();
    let cold_bytes = cold.source().bytes_read();
    reader.source().reset();
    assert_eq!(entry.decompress_region(&region).unwrap(), roi);
    let warm_bytes = reader.source().bytes_read();
    assert!(warm_bytes < cold_bytes, "a warm ROI read {warm_bytes} B, a cold one {cold_bytes} B");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn bad_magic_rejected() {
    let (_, a) = f32_archive(Dims::d3(12, 12, 12), 3);
    let mut image = pack_to_vec(&[("x", &a)]).unwrap();
    image[0] ^= 0xFF;
    assert!(ContainerReader::open(MemorySource::new(image)).is_err());

    // A bare archive is not a container either.
    assert!(ContainerReader::open(MemorySource::new(a.as_bytes().to_vec())).is_err());
}

#[test]
fn unsupported_version_rejected() {
    let (_, a) = f32_archive(Dims::d3(12, 12, 12), 3);
    let mut image = pack_to_vec(&[("x", &a)]).unwrap();
    image[4] = 99;
    assert!(ContainerReader::open(MemorySource::new(image)).is_err());
}

#[test]
fn bad_trailer_magic_rejected() {
    let (_, a) = f32_archive(Dims::d3(12, 12, 12), 3);
    let mut image = pack_to_vec(&[("x", &a)]).unwrap();
    let n = image.len();
    image[n - 1] ^= 0xA5;
    assert!(ContainerReader::open(MemorySource::new(image)).is_err());
}

#[test]
fn payload_corruption_caught_by_checksums() {
    let (_, a) = f32_archive(Dims::d3(14, 13, 12), 9);
    let image = pack_to_vec(&[("x", &a)]).unwrap();
    // Payload spans HEADER_LEN..footer_off (one entry, written first).
    let trailer: [u8; 24] = image[image.len() - 24..].try_into().unwrap();
    let (footer_off, _, _) = format::parse_trailer(&trailer, image.len() as u64).unwrap();
    let payload = format::HEADER_LEN as usize..footer_off as usize;

    let expected = a.decompress().unwrap();
    let mut section_flips = 0usize;
    let step = (payload.len() / 151).max(1);
    for pos in payload.clone().step_by(step) {
        let mut corrupted = image.clone();
        corrupted[pos] ^= 0xA5;
        // The index is intact, so the container still opens…
        let reader = ContainerReader::open(MemorySource::new(corrupted)).unwrap();
        let entry = reader.entry::<f32>(0).unwrap();
        // …but the whole-payload checksum always catches the flip…
        assert!(
            entry.read_archive().is_err(),
            "flip at payload byte {pos} not caught by the payload checksum"
        );
        // …and section-based decompression either hits a section CRC (flip
        // inside an indexed section) or is untouched by construction (flip
        // in the embedded archive's header/framing bytes, which the
        // footer-driven reader never fetches).
        match entry.decompress() {
            Err(_) => section_flips += 1,
            Ok(field) => assert_eq!(
                field, expected,
                "flip at payload byte {pos} silently changed the output"
            ),
        }
    }
    assert!(section_flips > 0, "sweep never hit an indexed section");
}

#[test]
fn footer_corruption_rejected() {
    let (_, a) = f32_archive(Dims::d3(14, 13, 12), 9);
    let image = pack_to_vec(&[("x", &a)]).unwrap();
    let trailer: [u8; 24] = image[image.len() - 24..].try_into().unwrap();
    let (footer_off, footer_len, _) = format::parse_trailer(&trailer, image.len() as u64).unwrap();
    for pos in footer_off..footer_off + footer_len {
        let mut corrupted = image.clone();
        corrupted[pos as usize] ^= 0x5A;
        assert!(
            ContainerReader::open(MemorySource::new(corrupted)).is_err(),
            "footer flip at {pos} went undetected"
        );
    }
}

#[test]
fn truncation_never_panics() {
    let (_, a) = f32_archive(Dims::d3(14, 13, 12), 9);
    let image = pack_to_vec(&[("x", &a)]).unwrap();
    // Every truncation point near the tail (trailer + footer), stepped
    // sweep elsewhere: all must error (the trailer is gone), never panic.
    let tail_start = image.len().saturating_sub(128);
    let step = (image.len() / 97).max(1);
    let cuts = (0..image.len()).step_by(step).chain(tail_start..image.len());
    for cut in cuts {
        assert!(
            ContainerReader::open(MemorySource::new(image[..cut].to_vec())).is_err(),
            "truncation to {cut} bytes did not error"
        );
    }
}

#[test]
fn empty_container_roundtrips() {
    let image = pack_to_vec::<f32>(&[]).unwrap();
    let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
    assert_eq!(reader.entry_count(), 0);
    assert!(reader.entry::<f32>(0).is_err());
}

// ---------------------------------------------------------------------------
// Multi-backend containers (format v2)
// ---------------------------------------------------------------------------

/// Compress `field` with the named backend into a [`ForeignArchive`].
fn foreign(field: &Field<f32>, backend: &str, eb: f64) -> ForeignArchive {
    let codec = registry().by_name(backend).unwrap();
    let bytes = stz::backend::compress(codec, field, &ErrorBound::Absolute(eb)).unwrap();
    ForeignArchive::new::<f32>(codec.id(), field.dims(), eb, bytes)
}

#[test]
fn mixed_backend_container_roundtrips() {
    let dims = Dims::d3(20, 20, 20);
    let field = synth::miranda_like(dims, 31);
    let eb = 1e-3;
    let stz_archive = StzCompressor::new(StzConfig::three_level(eb)).compress(&field).unwrap();

    let mut w = ContainerWriter::new(Vec::new()).unwrap();
    w.add_archive("native", &stz_archive).unwrap();
    for name in ["sz3", "zfp", "sperr", "mgard"] {
        w.add_foreign(name, &foreign(&field, name, eb)).unwrap();
    }
    let image = w.finish().unwrap();

    let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
    assert_eq!(reader.entry_count(), 5);

    // The native entry keeps the full streaming surface.
    let native = reader.entry_by_name::<f32>("native").unwrap();
    assert_eq!(native.codec_id(), stz::backend::id::STZ);
    assert_eq!(native.decompress().unwrap(), stz_archive.decompress().unwrap());
    assert!(native.decompress_level(1).is_ok());

    // Every foreign entry decodes to the backend's direct decompression and
    // honours the bound; ROI extraction works via the full-decode fallback.
    let region = Region::d3(3..9, 5..12, 7..15);
    for name in ["sz3", "zfp", "sperr", "mgard"] {
        let codec = registry().by_name(name).unwrap();
        let entry = reader.entry_by_name::<f32>(name).unwrap();
        assert_eq!(entry.codec_id(), codec.id());
        let direct: Field<f32> =
            stz::backend::decompress(codec, &entry.read_payload().unwrap()).unwrap();
        let full = entry.decompress().unwrap();
        assert_eq!(full, direct, "{name}: container decode != direct decode");
        let err = stz::data::metrics::max_abs_error(&field, &full);
        assert!(err <= eb * (1.0 + 1e-9), "{name}: err {err} > {eb}");
        assert_eq!(
            entry.decompress_region(&region).unwrap(),
            full.extract_region(&region),
            "{name}: region crop"
        );
        // STZ-only surfaces error cleanly.
        assert!(entry.decompress_level(1).is_err(), "{name}: preview must error");
        assert!(entry.progressive().is_err(), "{name}: progressive must error");
        assert!(entry.read_archive().is_err(), "{name}: read_archive must error");
        // Out-of-range regions error, never panic.
        assert!(entry.decompress_region(&Region::d3(0..21, 0..1, 0..1)).is_err());
    }

    // Metadata reflects the codec, element type and bound per entry.
    for meta in reader.entries() {
        assert_eq!(meta.type_tag(), 0);
        assert_eq!(meta.dims(), dims);
        assert_eq!(meta.error_bound(), eb);
        let expected = if meta.name() == "native" { "stz" } else { meta.name() };
        assert_eq!(meta.codec_name(), Some(expected));
        assert_eq!(meta.header().is_some(), meta.name() == "native");
    }
}

#[test]
fn mixed_backend_pipelined_pack_matches_sequential() {
    let dims = Dims::d3(16, 16, 16);
    let eb = 1e-3;
    let backends = ["stz", "sz3", "zfp", "sperr", "mgard", "sz3"];
    let pack = |threads: usize| -> Vec<u8> {
        pack_pipelined(
            Vec::new(),
            backends.iter().enumerate().collect::<Vec<_>>(),
            threads,
            |(i, name)| {
                let field = synth::miranda_like(dims, 40 + i as u64);
                let entry: PackEntry<f32> = if *name == "stz" {
                    StzCompressor::new(StzConfig::three_level(eb)).compress(&field)?.into()
                } else {
                    foreign(&field, name, eb).into()
                };
                Ok((format!("e{i}-{name}"), entry))
            },
        )
        .unwrap()
    };
    let sequential = pack(1);
    for threads in [2, 4, 8] {
        assert_eq!(pack(threads), sequential, "{threads} thread(s)");
    }
    // And the result is a fully readable mixed container.
    let reader = ContainerReader::open(MemorySource::new(sequential)).unwrap();
    assert_eq!(reader.entry_count(), backends.len());
    for i in 0..backends.len() {
        let entry = reader.entry::<f32>(i).unwrap();
        let field = synth::miranda_like(dims, 40 + i as u64);
        let err = stz::data::metrics::max_abs_error(&field, &entry.decompress().unwrap());
        assert!(err <= eb * (1.0 + 1e-9), "entry {i}: err {err}");
    }
}

#[test]
fn f64_foreign_entries_roundtrip() {
    let dims = Dims::d3(12, 12, 24);
    let field: Field<f64> = synth::warpx_like(dims, 9);
    let (lo, hi) = field.value_range();
    let eb = 1e-4 * (hi - lo);
    let codec = registry().by_name("sperr").unwrap();
    let bytes = stz::backend::compress(codec, &field, &ErrorBound::Absolute(eb)).unwrap();

    let mut w = ContainerWriter::new(Vec::new()).unwrap();
    w.add_foreign("w", &ForeignArchive::new::<f64>(codec.id(), dims, eb, bytes)).unwrap();
    let image = w.finish().unwrap();

    let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
    // Type tags are enforced: the f64 entry refuses an f32 reader.
    assert!(reader.entry::<f32>(0).is_err());
    let entry = reader.entry::<f64>(0).unwrap();
    let err = stz::data::metrics::max_abs_error(&field, &entry.decompress().unwrap());
    assert!(err <= eb * (1.0 + 1e-9), "err {err} > {eb}");
}

#[test]
fn unknown_codec_id_lists_but_refuses_to_decode() {
    let dims = Dims::d3(8, 8, 8);
    let mut w = ContainerWriter::new(Vec::new()).unwrap();
    w.add_foreign(
        "mystery",
        &ForeignArchive { codec: 99, type_tag: 0, dims, eb: 1e-3, bytes: vec![7; 64] },
    )
    .unwrap();
    let image = w.finish().unwrap();

    // The index is self-describing, so the container opens and lists…
    let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
    let meta = reader.entry_meta(0).unwrap();
    assert_eq!(meta.codec_id(), 99);
    assert_eq!(meta.codec_name(), None);
    assert_eq!(meta.dims(), dims);

    // …the raw payload is still fetchable (CRC-verified)…
    let entry = reader.entry::<f32>(0).unwrap();
    assert_eq!(entry.read_payload().unwrap(), vec![7; 64]);

    // …but every decode path errors cleanly, never panics.
    let err = entry.decompress().unwrap_err();
    assert!(err.to_string().contains("99"), "error should name the codec id: {err}");
    assert!(entry.decompress_region(&Region::d3(0..4, 0..4, 0..4)).is_err());
    assert!(entry.decompress_level(1).is_err());
}

#[test]
fn stz_entries_rejected_from_the_foreign_path() {
    let mut w = ContainerWriter::new(Vec::new()).unwrap();
    let bad = ForeignArchive {
        codec: stz::backend::id::STZ,
        type_tag: 0,
        dims: Dims::d3(4, 4, 4),
        eb: 1e-3,
        bytes: vec![0; 16],
    };
    assert!(w.add_foreign("x", &bad).is_err(), "stz blobs must use the indexed path");
}

#[test]
fn v1_containers_still_parse_as_all_stz() {
    // Synthesize a version-1 container from a v2 one: v1 footers predate
    // the per-entry codec byte, so strip it and patch the version, trailer
    // and checksums. This is byte-for-byte what the v1 writer produced.
    let (_, a) = f32_archive(Dims::d3(14, 14, 14), 8);
    let v2 = pack_to_vec(&[("legacy", &a)]).unwrap();
    let trailer: [u8; 24] = v2[v2.len() - 24..].try_into().unwrap();
    let (footer_off, footer_len, _) = format::parse_trailer(&trailer, v2.len() as u64).unwrap();
    let footer = &v2[footer_off as usize..(footer_off + footer_len) as usize];

    // v2 footer: uvarint count=1, name block, codec byte, stz body.
    let mut r = stz::codec::ByteReader::new(footer);
    assert_eq!(r.get_uvarint().unwrap(), 1);
    let name = r.get_block().unwrap().to_vec();
    assert_eq!(r.get_u8().unwrap(), stz::backend::id::STZ);
    let body_start = footer.len() - r.remaining();

    let mut v1_footer = stz::codec::ByteWriter::new();
    v1_footer.put_uvarint(1);
    v1_footer.put_block(&name);
    let mut v1_footer = v1_footer.finish();
    v1_footer.extend_from_slice(&footer[body_start..]);

    let mut image = v2[..footer_off as usize].to_vec();
    image[4] = 1; // container version byte
    image.extend_from_slice(&v1_footer);
    image.extend_from_slice(&format::encode_trailer(
        footer_off,
        v1_footer.len() as u64,
        stz::stream::crc::crc32(&v1_footer),
    ));

    let reader = ContainerReader::open(MemorySource::new(image)).unwrap();
    let meta = reader.entry_meta(0).unwrap();
    assert_eq!(meta.codec_name(), Some("stz"));
    assert_eq!(meta.name(), "legacy");
    let entry = reader.entry::<f32>(0).unwrap();
    assert_eq!(entry.decompress().unwrap(), a.decompress().unwrap());
    assert_eq!(entry.decompress_level(1).unwrap(), a.decompress_level(1).unwrap());
}
