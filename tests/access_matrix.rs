//! The access-layer contract test: every [`Fetch`] variant, served by all
//! three shipped stores over the *same* packed container, must produce
//! byte-identical [`FetchedField`]s — and classify failures identically.
//!
//! This is the pin that makes the unified API trustworthy: a consumer can
//! switch `MemStore` → `FileStore` → `RemoteStore` (or be handed any
//! `Box<dyn Store>` by `open_store`) without results drifting by transport.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use stz::access::{open_store, AccessError, EntrySel, Fetch, FileStore, MemStore, Store};
use stz::prelude::*;
use stz::serve::{ServeOptions, Server};
use stz::stream::{ByteSource, ContainerWriter, ForeignArchive, MemorySource};

/// The test fixture: one f32 stz entry, one f64 stz entry, one foreign
/// (zfp) f32 entry, one foreign zfp entry from a future zfp format version,
/// and an f64 stz entry of odd extents — resident archives plus the
/// container file packing the exact same payloads.
struct Fixture {
    dir: std::path::PathBuf,
    container: std::path::PathBuf,
    mem: MemStore,
    archives: (StzArchive<f32>, StzArchive<f64>, ForeignArchive, ForeignArchive, StzArchive<f64>),
}

/// The fixture's entries, in store order.
const ENTRIES: [&str; 5] = ["t32", "t64", "zfp", "zfp99", "odd64"];

impl Fixture {
    /// A resident store over clones of the archives, which keep no decoded
    /// level-1 grid: every first fetch of an entry decodes it afresh.
    fn fresh_mem(&self) -> MemStore {
        let (a32, a64, foreign, future, odd64) = self.archives.clone();
        let mut mem = MemStore::new();
        mem.add("t32", a32);
        mem.add("t64", a64);
        mem.add("zfp", foreign);
        mem.add("zfp99", future);
        mem.add("odd64", odd64);
        mem
    }
}

fn fixture(tag: &str) -> Fixture {
    let dims = Dims::d3(24, 24, 24);
    let f32_field: Field<f32> = stz::data::synth::miranda_like(dims, 41);
    let f64_field: Field<f64> = stz::data::synth::warpx_like(dims, 42);
    let zfp_field: Field<f32> = stz::data::synth::nyx_like(dims, 43);

    let a32 = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f32_field).unwrap();
    let a64 = StzCompressor::new(StzConfig::three_level(1e-4)).compress(&f64_field).unwrap();
    // Odd along every axis: the f64 scalars of its answers start at odd
    // byte offsets of a response frame and cover partial blocks.
    let odd: Field<f64> = stz::data::synth::warpx_like(Dims::d3(17, 15, 13), 44);
    let odd64 = StzCompressor::new(StzConfig::three_level(1e-4)).compress(&odd).unwrap();
    let zfp = registry().by_name("zfp").unwrap();
    let zfp_bytes =
        stz::backend::compress(zfp, &zfp_field, &stz::backend::ErrorBound::Absolute(1e-2)).unwrap();
    let mut future_bytes = zfp_bytes.clone();
    future_bytes[4] = 99; // the zfp format version
    let foreign = ForeignArchive::new::<f32>(zfp.id(), dims, 1e-2, zfp_bytes);
    let future = ForeignArchive::new::<f32>(zfp.id(), dims, 1e-2, future_bytes);

    let dir = std::env::temp_dir().join(format!("stz_access_matrix_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let container = dir.join("steps.stzc");
    let file = std::fs::File::create(&container).unwrap();
    let mut writer = ContainerWriter::new(std::io::BufWriter::new(file)).unwrap();
    writer.add_archive("t32", &a32).unwrap();
    writer.add_archive("t64", &a64).unwrap();
    writer.add_foreign("zfp", &foreign).unwrap();
    writer.add_foreign("zfp99", &future).unwrap();
    writer.add_archive("odd64", &odd64).unwrap();
    writer.finish().unwrap();

    let archives = (a32, a64, foreign, future, odd64);
    let mut fx = Fixture { dir, container, mem: MemStore::new(), archives };
    fx.mem = fx.fresh_mem();
    fx
}

/// Every decoded/raw fetch shape the matrix exercises.
fn fetch_matrix() -> Vec<Fetch> {
    vec![
        Fetch::Full,
        Fetch::Level(1),
        Fetch::Level(2),
        Fetch::Level(3),
        Fetch::Progressive(1),
        Fetch::Progressive(3),
        Fetch::Region(Region::d3(3..9, 0..24, 10..14)),
        Fetch::Region(Region::d3(0..24, 0..24, 0..24)),
        // At odd offsets, and inside every entry.
        Fetch::Region(Region::d3(1..16, 3..14, 5..12)),
        Fetch::RawSection(0),
    ]
}

/// Run one fetch against one store's entry, normalizing to
/// `Ok((dims, type_tag, codec_id, data))` / `Err(class-name)` so results
/// can be compared across transports.
fn run_fetch(
    store: &dyn Store,
    sel: &EntrySel,
    fetch: &Fetch,
) -> Result<(Dims, u8, u8, Vec<u8>), &'static str> {
    let entry = store.open(sel).map_err(|_| "open")?;
    match entry.fetch(fetch) {
        Ok(f) => Ok((f.dims, f.type_tag, f.codec_id, f.data)),
        Err(AccessError::NotFound(_)) => Err("not_found"),
        Err(AccessError::Unsupported(_)) => Err("unsupported"),
        Err(AccessError::BadRequest(_)) => Err("bad_request"),
        Err(AccessError::Corrupt(_)) => Err("corrupt"),
        Err(_) => Err("other"),
    }
}

#[test]
fn fetch_matrix_is_byte_identical_across_all_three_stores() {
    let fx = fixture("matrix");

    let server = Server::bind(ServeOptions {
        root: fx.dir.clone(),
        addr: "127.0.0.1:0".into(),
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    // The three transports, plus the URI front door as a fourth view of
    // the file transport.
    let file_store = open_store(&fx.container.display().to_string()).unwrap();
    let remote_store = open_store(&format!("stz://{addr}/steps")).unwrap();
    let stores: Vec<(&str, &dyn Store)> =
        vec![("mem", &fx.mem), ("file", &*file_store), ("remote", &*remote_store)];

    // Listings agree on every descriptor field, whole rows at a time.
    let mem_list = fx.mem.list().unwrap();
    assert_eq!(mem_list.len(), ENTRIES.len());
    for (name, store) in &stores {
        assert_eq!(mem_list, store.list().unwrap(), "{name} listing");
    }

    // The full matrix: every entry x every fetch x every store, compared
    // against the MemStore result (success bytes AND failure class) on a
    // store that has decoded nothing yet. The fixture's own store is one of
    // the three, and keeps each entry's level-1 grid from its first fetch.
    let mut decoded_fetches = 0;
    for entry_name in ENTRIES {
        let sel = EntrySel::Name(entry_name.into());
        for fetch in fetch_matrix() {
            let expect = run_fetch(&fx.fresh_mem(), &sel, &fetch);
            // The future-version payload is intact, so its raw bytes serve;
            // every decode of it is unsupported, not corrupt.
            if entry_name == "zfp99" && !matches!(fetch, Fetch::RawSection(_)) {
                assert_eq!(expect, Err("unsupported"), "{entry_name}: {fetch:?}");
            }
            for (store_name, store) in &stores {
                let got = run_fetch(*store, &sel, &fetch);
                assert_eq!(
                    got, expect,
                    "[{store_name}] {entry_name}: {fetch:?} must match MemStore"
                );
            }
            if expect.is_ok() {
                decoded_fetches += 1;
            }
        }
    }
    // Sanity: the matrix actually exercised successes of every shape —
    // the cubic stz entries serve all 10 fetches, the foreign entry serves
    // full/region×3/raw, the future-version one only raw, and the odd one
    // all but the two regions outside it.
    assert_eq!(decoded_fetches, 10 + 10 + 5 + 1 + 8, "unexpected matrix coverage");

    // The MemStore pass again, now that every entry is warm: it still
    // answers byte for byte as the file and remote stores do.
    for entry_name in ENTRIES {
        let sel = EntrySel::Name(entry_name.into());
        for fetch in fetch_matrix() {
            let warm = run_fetch(&fx.mem, &sel, &fetch);
            for (store_name, store) in &stores[1..] {
                let got = run_fetch(*store, &sel, &fetch);
                assert_eq!(warm, got, "warm mem vs {store_name}: {entry_name} {fetch:?}");
            }
        }
    }

    // And those bytes are the typed decode's, stored little-endian.
    let odd64 = &fx.archives.4;
    let region = Region::d3(1..16, 3..14, 5..12);
    let typed = [
        (Fetch::Full, odd64.decompress().unwrap()),
        (Fetch::Level(2), odd64.decompress_level(2).unwrap()),
        (Fetch::Region(region.clone()), odd64.decompress_region(&region).unwrap()),
    ];
    for (fetch, field) in typed {
        let mut want = Vec::new();
        f64::write_slice_exact(field.as_slice(), &mut want);
        for (store_name, store) in &stores {
            let got = run_fetch(*store, &EntrySel::Name("odd64".into()), &fetch).unwrap();
            assert!(got.3 == want, "[{store_name}] odd64 {fetch:?}: not the typed decode's bytes");
        }
    }

    // Progressive and direct previews are byte-identical by construction.
    for (store_name, store) in &stores {
        let entry = store.open(&EntrySel::Name("t32".into())).unwrap();
        let level = entry.fetch(&Fetch::Level(2)).unwrap();
        let progressive = entry.fetch(&Fetch::Progressive(2)).unwrap();
        assert_eq!(level.data, progressive.data, "{store_name} progressive == level");
        assert_eq!(level.dims, progressive.dims, "{store_name} progressive dims");
    }

    // Error taxonomy is transport-independent for lookups too.
    for (store_name, store) in &stores {
        assert!(
            matches!(store.open(&EntrySel::Name("missing".into())), Err(AccessError::NotFound(_))),
            "{store_name} missing name"
        );
        assert!(
            matches!(store.open(&EntrySel::Index(99)), Err(AccessError::NotFound(_))),
            "{store_name} missing index"
        );
    }

    handle.stop();
    let _ = std::fs::remove_dir_all(&fx.dir);
}

#[test]
fn raw_fetch_matches_packed_payload_and_crc() {
    let fx = fixture("raw");
    let file_store = open_store(&fx.container.display().to_string()).unwrap();
    for name in ["t32", "t64", "zfp", "odd64"] {
        let sel = EntrySel::Name(name.into());
        let mem_raw = fx.mem.open(&sel).unwrap().fetch(&Fetch::RawSection(0)).unwrap();
        let file_raw = file_store.open(&sel).unwrap().fetch(&Fetch::RawSection(0)).unwrap();
        assert_eq!(mem_raw.data, file_raw.data, "{name}: payload bytes");
        // The descriptor's CRC and length cover exactly these bytes.
        let desc = fx.mem.open(&sel).unwrap().desc().clone();
        assert_eq!(stz::stream::crc::crc32(&mem_raw.data), desc.payload_crc, "{name}: crc");
        assert_eq!(mem_raw.data.len() as u64, desc.compressed_len, "{name}: length");
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}

/// A container image whose reads fail once `broken` is set.
struct FailingSource {
    image: MemorySource,
    broken: Arc<AtomicBool>,
}

impl ByteSource for FailingSource {
    fn len(&self) -> u64 {
        self.image.len()
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if self.broken.load(Ordering::Relaxed) {
            return Err(io::Error::new(io::ErrorKind::PermissionDenied, "device gone"));
        }
        self.image.read_exact_at(offset, buf)
    }
}

#[test]
fn a_read_failure_after_open_is_an_io_error_for_every_entry() {
    let fx = fixture("io");
    let broken = Arc::new(AtomicBool::new(false));
    let image = MemorySource::new(std::fs::read(&fx.container).unwrap());
    let store = FileStore::open_source(FailingSource { image, broken: broken.clone() }, "failing");
    let store = store.unwrap();
    broken.store(true, Ordering::Relaxed);
    let foreign = vec![Fetch::Full, Fetch::Region(Region::d3(3..9, 0..24, 10..14))];
    for (name, fetches) in [("t32", fetch_matrix()), ("t64", fetch_matrix()), ("zfp", foreign)] {
        let entry = store.open(&EntrySel::Name(name.into())).unwrap();
        for fetch in fetches {
            let err = entry.fetch(&fetch).err();
            match &err {
                Some(AccessError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::PermissionDenied, "{name} {fetch:?}");
                    assert_eq!(e.to_string(), "device gone", "{name} {fetch:?}");
                }
                _ => panic!("{name} {fetch:?}: want an I/O error, got {err:?}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
}
