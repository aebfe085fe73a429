//! The three fuzz targets: container, proto, codec.
//!
//! A target turns raw input bytes into an [`Outcome`] — an error-taxonomy
//! class plus a failure-site string — without ever panicking (the engine
//! still wraps every call in `catch_unwind`, because "never panics" is
//! exactly the property under test). All seeds are generated in-process
//! from real encoders, so the corpus starts deep inside the valid-input
//! grammar instead of at random bytes.

use crate::corpus::signature;
use std::io::{Cursor, Read, Write};
use stz_access::{AccessError, Entry, EntrySel as AccessSel, Fetch, FileStore, Store};
use stz_backend::{registry, ErrorBound};
use stz_core::{reference, StzArchive, StzCompressor, StzConfig};
use stz_field::{Dims, Field, Region, Scalar};
use stz_mutate::{upgrade_image, MemBacking, MutableContainer};
use stz_serve::proto::{
    self, write_frame, Enc, EntrySel, FetchReq, FetchedField, FrameType, RequestKind, ServerStats,
    TraceContextExt,
};
use stz_serve::{Client, ServeError};
use stz_stream::{
    ContainerDesc, ContainerWriter, EntryDesc, ForeignArchive, MemorySource, PackEntry,
};

/// Classification of one execution: the error-taxonomy class the input
/// landed in and the failure site (error text; empty for success).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Error class (`ok`, `corrupt`, `protocol`, …).
    pub class: String,
    /// Failure-site detail, normalized into the signature hash.
    pub site: String,
}

impl Outcome {
    fn ok(site: impl Into<String>) -> Outcome {
        Outcome { class: "ok".into(), site: site.into() }
    }

    /// The corpus signature of this outcome under `target`.
    pub fn signature(&self, target: &str) -> String {
        signature(target, &self.class, &self.site)
    }
}

/// One fuzzable parse surface.
pub trait FuzzTarget {
    /// Short name (`container`, `proto`, `codec`) — the first signature
    /// component and the reproducer `target` header.
    fn name(&self) -> &'static str;

    /// Valid in-process artifacts that seed the corpus.
    fn seeds(&self) -> Vec<Vec<u8>>;

    /// Execute the parse surface on `input` and classify the result.
    fn exec(&self, input: &[u8]) -> Outcome;

    /// Extra cross-validation run on corpus-new inputs only (e.g. mem/file
    /// classification stability). `Err` describes the oracle violation.
    fn deep_check(&self, _input: &[u8]) -> Result<(), String> {
        Ok(())
    }

    /// Mutated inputs are clamped to this many bytes.
    fn max_input_len(&self) -> usize {
        1 << 16
    }
}

fn small_dims() -> Dims {
    Dims::d3(8, 6, 10)
}

/// Codec seeds whose longest Huffman stream is a full production chunk, with
/// the number of symbols in it: the small seeds' streams end before the
/// decoder's hot loop has run a few dozen symbols, let alone with the packed
/// table a chunk gets. An `stz` level-3 block and a whole `sz3` archive of
/// 65,536 points each, of a field smooth enough — nearly every code the
/// dominant one, so the run-length pass folds the payload — that the archive
/// still fits `max_input_len`.
fn long_stream_seeds() -> Vec<(usize, Vec<u8>)> {
    [("stz", Dims::d3(64, 64, 128), 8), ("sz3", Dims::d3(32, 32, 64), 1)]
        .into_iter()
        .map(|(name, dims, blocks)| {
            let field: Field<f32> = Field::from_fn(dims, |z, y, x| {
                (z as f32 * 0.05).sin() + (y as f32 * 0.04).cos() + x as f32 * 0.01
            });
            let codec = registry().by_name(name).expect("registered codec");
            let archive = stz_backend::compress(codec, &field, &ErrorBound::Absolute(3e-2))
                .expect("compress long-stream seed");
            (dims.len() / blocks, archive)
        })
        .collect()
}

fn classify_access(e: &AccessError) -> (&'static str, String) {
    let class = match e {
        AccessError::NotFound { .. } => "not-found",
        AccessError::Unsupported(_) => "unsupported",
        AccessError::BadRequest(_) => "bad-request",
        AccessError::Corrupt(_) => "corrupt",
        AccessError::BadUri(_) => "bad-uri",
        AccessError::Io(_) => "io",
        AccessError::Remote { .. } => "remote",
        AccessError::Protocol(_) => "protocol",
    };
    (class, e.to_string())
}

fn classify_serve(e: &ServeError) -> (&'static str, String) {
    let class = match e {
        ServeError::Io(_) => "io",
        ServeError::Protocol(_) => "protocol",
        ServeError::Remote { .. } => "remote",
        ServeError::Stream(_) => "stream",
    };
    (class, e.to_string())
}

// ---------------------------------------------------------------------------
// Container target.
// ---------------------------------------------------------------------------

/// STZC container open/list/fetch through [`FileStore`].
#[derive(Debug, Default)]
pub struct ContainerTarget;

/// Run the full container access script over any opened store; the
/// classification is the first error (or `ok`).
fn container_script<S: stz_stream::ByteSource + 'static>(
    store: &FileStore<S>,
) -> Result<String, AccessError> {
    let descs = store.list()?;
    let mut fetched = 0usize;
    for desc in descs.iter().take(4) {
        let entry = store.open(&AccessSel::Index(desc.index))?;
        fetch_entry(entry.as_ref())?;
        fetched += 1;
    }
    // Entry/fetch-count shape, digit-free so the signature hash (which
    // strips digits) still distinguishes container populations.
    Ok(format!("open-ok/{}/{}", "e".repeat(descs.len().min(8)), "f".repeat(fetched.min(8))))
}

/// The fetches the script makes of an entry, in order.
fn entry_fetches(desc: &EntryDesc) -> Vec<Fetch> {
    let mut fetches = vec![Fetch::Full];
    if desc.levels > 0 {
        fetches.push(Fetch::Level(1));
    }
    let [nz, ny, nx] = desc.dims.as_array();
    let region = Region::d3(0..nz.clamp(1, 2), 0..ny.clamp(1, 2), 0..nx.clamp(1, 2));
    fetches.extend([Fetch::Region(region), Fetch::RawSection(0)]);
    fetches
}

fn fetch_entry(entry: &dyn Entry) -> Result<(), AccessError> {
    for fetch in entry_fetches(entry.desc()) {
        entry.fetch(&fetch)?;
    }
    Ok(())
}

/// Each fetch of the script, on every entry it reaches and past any error:
/// on a store that has decoded nothing, then twice on one store that keeps
/// each entry's level-1 grid between fetches and resumes from whichever
/// fetch made it. All three must give the same bytes, or fail with the same
/// class and text. Input that opens no store passes.
fn cold_equals_warm_fetches(input: &[u8]) -> Result<(), String> {
    let open = || FileStore::open_source(MemorySource::new(input.to_vec()), "fuzz-mem");
    let Ok(warm) = open() else { return Ok(()) };
    let descs = warm.list().unwrap_or_default();
    for desc in descs.iter().take(4) {
        for fetch in entry_fetches(desc) {
            let once = |store: &FileStore<MemorySource>| {
                let entry = store.open(&AccessSel::Index(desc.index));
                let fetched = entry.and_then(|entry| entry.fetch(&fetch));
                fetched.map(|f| f.data).map_err(|e| classify_access(&e))
            };
            let cold = once(&open().map_err(|e| format!("a second open failed: {e}"))?);
            for pass in ["first", "second"] {
                let warm = once(&warm);
                if warm != cold {
                    let brief = |r: &Result<Vec<u8>, (&str, String)>| match r {
                        Ok(bytes) => format!("{} bytes", bytes.len()),
                        Err((class, site)) => format!("{class}: {site}"),
                    };
                    let diff = match (&warm, &cold) {
                        (Ok(w), Ok(c)) if w.len() == c.len() => {
                            let at = w.iter().zip(c).position(|(w, c)| w != c).unwrap_or(0);
                            format!("byte {at} differs")
                        }
                        _ => format!("{} against {}", brief(&warm), brief(&cold)),
                    };
                    return Err(format!(
                        "entry {} {fetch:?}, {pass} fetch on a warm store vs a cold one: {diff}",
                        desc.index
                    ));
                }
            }
        }
    }
    Ok(())
}

impl FuzzTarget for ContainerTarget {
    fn name(&self) -> &'static str {
        "container"
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        let dims = small_dims();
        let f32_fields: Vec<Field<f32>> =
            (0..2).map(|i| stz_data::synth::miranda_like(dims, 40 + i)).collect();
        let compressor = StzCompressor::new(StzConfig::three_level(1e-3));

        // Seed 1: mixed container — two native entries + one zfp foreign.
        let mut w = ContainerWriter::new(Vec::new()).expect("vec write");
        w.add_archive("t0", &compressor.compress(&f32_fields[0]).expect("compress")).expect("add");
        w.add_archive("t1", &compressor.compress(&f32_fields[1]).expect("compress")).expect("add");
        let zfp = registry().by_name("zfp").expect("zfp registered");
        let zbytes = stz_backend::compress(zfp, &f32_fields[0], &ErrorBound::Absolute(1e-3))
            .expect("zfp compress");
        w.add_foreign("zfp0", &ForeignArchive::new::<f32>(zfp.id(), dims, 1e-3, zbytes))
            .expect("add foreign");
        let mixed = w.finish().expect("finish");

        // Seed 2: a single f64 entry.
        let f64_field = Field::from_fn(Dims::d3(5, 4, 6), |z, y, x| {
            (z as f64 * 0.3).sin() + (y as f64 * 0.2).cos() + x as f64 * 0.01
        });
        let archive = compressor.compress(&f64_field).expect("compress f64");
        let single = stz_stream::pack_to_vec(&[("p", &archive)]).expect("pack");

        // Seed 3: a mutable (v3) container grown through three committed
        // generations — replace + delete leave dead payload and an
        // orphaned footer in the body, and the alternating generation
        // slots sit in the header. Mutating this seed explores the slot
        // plausibility/CRC checks and the dead-region skip logic, which
        // the write-once seeds never reach.
        let a0 = compressor.compress(&f32_fields[0]).expect("compress");
        let a1 = compressor.compress(&f32_fields[1]).expect("compress");
        let mut m = MutableContainer::create(MemBacking::empty()).expect("mem container");
        m.append("m0", &PackEntry::from(a0)).expect("append");
        m.append("m1", &PackEntry::from(a1.clone())).expect("append");
        m.commit().expect("commit");
        m.replace("m0", &PackEntry::from(a1)).expect("replace");
        m.delete("m1").expect("delete");
        m.commit().expect("commit");
        let multi_generation = m.into_backing().into_bytes();

        // Seed 4: the v2 seed upgraded in place to the v3 slot protocol,
        // so mutation also covers a freshly-upgraded generation-1 image.
        let upgraded = upgrade_image(&single).expect("upgrade v2 image");

        vec![mixed, single, multi_generation, upgraded]
    }

    fn exec(&self, input: &[u8]) -> Outcome {
        let opened = FileStore::open_source(MemorySource::new(input.to_vec()), "fuzz-mem");
        match opened.and_then(|store| container_script(&store)) {
            Ok(site) => Outcome::ok(site),
            Err(e) => {
                let (class, site) = classify_access(&e);
                Outcome { class: class.into(), site }
            }
        }
    }

    /// Classification stability: the same bytes through the on-disk
    /// transport must land in the same error class as through memory; and
    /// every fetch must answer alike on a cold store and a warm one.
    fn deep_check(&self, input: &[u8]) -> Result<(), String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mem = self.exec(input);
        let path = std::env::temp_dir().join(format!(
            "stz_fuzz_{}_{}.stzc",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, input).map_err(|e| format!("temp write: {e}"))?;
        let file = match FileStore::open_path(&path) {
            Ok(store) => match container_script(&store) {
                Ok(site) => Outcome::ok(site),
                Err(e) => {
                    let (class, site) = classify_access(&e);
                    Outcome { class: class.into(), site }
                }
            },
            Err(e) => {
                let (class, site) = classify_access(&e);
                Outcome { class: class.into(), site }
            }
        };
        let _ = std::fs::remove_file(&path);
        if mem.class != file.class {
            return Err(format!(
                "classification differs across transports: mem={} file={}",
                mem.class, file.class
            ));
        }
        cold_equals_warm_fetches(input)
    }
}

// ---------------------------------------------------------------------------
// Proto target.
// ---------------------------------------------------------------------------

/// STZP frames, both directions: server-side request parsing and
/// client-side response validation against a scripted hostile peer.
#[derive(Debug, Default)]
pub struct ProtoTarget;

/// In-memory `Read + Write` peer: replies with a fixed script, swallows
/// writes.
struct ScriptedPeer {
    replies: Cursor<Vec<u8>>,
}

impl ScriptedPeer {
    /// Peer that answers the handshake honestly and then serves `body`
    /// repeatedly (most client calls read one frame; repeating lets one
    /// hostile buffer answer several request shapes).
    fn hostile(body: &[u8]) -> ScriptedPeer {
        let mut script = Vec::new();
        let mut hello = Enc::new();
        hello.u8(proto::PROTO_VERSION);
        hello.string("stz-fuzz/peer");
        write_frame(&mut script, FrameType::HelloOk, &hello.finish()).expect("vec write");
        for _ in 0..4 {
            script.extend_from_slice(body);
        }
        ScriptedPeer { replies: Cursor::new(script) }
    }
}

impl Read for ScriptedPeer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.replies.read(buf)
    }
}

impl Write for ScriptedPeer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn frame(kind: FrameType, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, kind, payload).expect("vec write");
    buf
}

/// Server direction: parse one request frame the way the dispatcher does.
fn serve_side(input: &[u8]) -> (String, String) {
    let mut cursor = Cursor::new(input);
    match proto::read_frame(&mut cursor) {
        Ok(None) => ("empty".into(), String::new()),
        Ok(Some(f)) => match f.frame_type() {
            Some(FrameType::Hello) => {
                let mut d = proto::Dec::new(&f.payload);
                match d.u8() {
                    Ok(_) => ("req-hello".into(), String::new()),
                    Err(e) => {
                        let (c, s) = classify_serve(&e);
                        (format!("req-{c}"), s)
                    }
                }
            }
            Some(
                ft @ (FrameType::FetchFull
                | FrameType::FetchRoi
                | FrameType::FetchProgressive
                | FrameType::FetchRawSection),
            ) => match FetchReq::decode(ft, &f.payload) {
                Ok(req) => ("req-fetch".into(), format!("kind-tag={}", req.kind.tag())),
                Err(e) => {
                    let (c, s) = classify_serve(&e);
                    (format!("req-{c}"), s)
                }
            },
            Some(FrameType::Inspect) => {
                let mut d = proto::Dec::new(&f.payload);
                match d.string() {
                    Ok(_) => ("req-inspect".into(), String::new()),
                    Err(e) => {
                        let (c, s) = classify_serve(&e);
                        (format!("req-{c}"), s)
                    }
                }
            }
            Some(FrameType::TraceGet) => {
                let d = proto::Dec::new(&f.payload);
                match d.expect_end() {
                    Ok(()) => ("req-trace".into(), String::new()),
                    Err(e) => {
                        let (c, s) = classify_serve(&e);
                        (format!("req-{c}"), s)
                    }
                }
            }
            Some(_) => ("req-other".into(), String::new()),
            None => ("req-unknown-kind".into(), String::new()),
        },
        Err(e) => {
            let (c, s) = classify_serve(&e);
            (format!("frame-{c}"), s)
        }
    }
}

/// Client direction: handshake + one call against a scripted peer that
/// replies with `input`-derived bytes.
fn client_side(input: &[u8]) -> (String, String) {
    // Handshake against the raw input first: hostile HELLO_OK handling.
    let hs = match Client::handshake(ScriptedPeer { replies: Cursor::new(input.to_vec()) }) {
        Ok(_) => "hs-ok".to_string(),
        Err(e) => format!("hs-{}", classify_serve(&e).0),
    };
    // Then a scripted peer that handshakes honestly and answers every
    // subsequent request with the input: full response-validation path.
    let mut detail = String::new();
    let mut classes = vec![hs];
    match Client::handshake(ScriptedPeer::hostile(input)) {
        Ok(mut client) => {
            let fetch = client.fetch_full("c", EntrySel::Name("e".into()));
            classes.push(match &fetch {
                Ok(_) => "fetch-ok".into(),
                Err(e) => {
                    let (c, s) = classify_serve(e);
                    detail = s;
                    format!("fetch-{c}")
                }
            });
            classes.push(match client.list() {
                Ok(_) => "list-ok".into(),
                Err(e) => format!("list-{}", classify_serve(&e).0),
            });
            classes.push(match client.stats() {
                Ok(_) => "stats-ok".into(),
                Err(e) => format!("stats-{}", classify_serve(&e).0),
            });
            classes.push(match client.metrics() {
                Ok(_) => "metrics-ok".into(),
                Err(e) => format!("metrics-{}", classify_serve(&e).0),
            });
            classes.push(match client.trace() {
                Ok(_) => "trace-ok".into(),
                Err(e) => format!("trace-{}", classify_serve(&e).0),
            });
        }
        Err(e) => classes.push(format!("peer-hs-{}", classify_serve(&e).0)),
    }
    (classes.join(","), detail)
}

impl FuzzTarget for ProtoTarget {
    fn name(&self) -> &'static str {
        "proto"
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        let mut hello = Enc::new();
        hello.u8(proto::PROTO_VERSION);
        let mut hello_ok = Enc::new();
        hello_ok.u8(proto::PROTO_VERSION);
        hello_ok.string("stz-serve/fuzz");

        let reqs = [
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Name("t0".into()),
                kind: RequestKind::Full,
                trace: None,
            },
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Index(1),
                kind: RequestKind::Level(1),
                trace: None,
            },
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Name("t1".into()),
                kind: RequestKind::roi(&Region::d3(0..4, 1..3, 2..6)),
                trace: None,
            },
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Index(0),
                kind: RequestKind::Raw,
                trace: None,
            },
            // A fetch carrying the trace-context extension, so mutation
            // explores the 17-byte suffix grammar too.
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Index(2),
                kind: RequestKind::Full,
                trace: Some(TraceContextExt { trace_id: 0x1234_5678_9ABC_DEF0, parent_span: 77 }),
            },
        ];

        let field = stz_data::synth::miranda_like(Dims::d3(4, 3, 5), 77);
        let fetched = FetchedField {
            kind_tag: RequestKind::Full.tag(),
            type_tag: 0,
            dims: field.dims(),
            data: field.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect(),
        };

        let list = proto::encode_list(&[
            ContainerDesc { name: "steps".into(), entries: 3, bytes: 4096 },
            ContainerDesc { name: "aux".into(), entries: 1, bytes: 512 },
        ]);
        let inspect = proto::encode_inspect(&[EntryDesc {
            index: 0,
            name: "t0".into(),
            codec_id: 0,
            type_tag: 0,
            dims: Dims::d3(8, 6, 10),
            eb: 1e-3,
            compressed_len: 1234,
            payload_crc: 0xDEAD_BEEF,
            sections: 9,
            levels: 3,
            interp: 1,
            level_bytes: vec![100, 400, 1234],
        }]);
        let stats = ServerStats {
            requests: 12,
            containers: 2,
            cache_hits: 5,
            cache_misses: 7,
            cache_evictions: 1,
            cache_entries: 4,
            cache_bytes: 1 << 20,
            cache_capacity: 32 << 20,
        }
        .encode();
        let metrics = proto::encode_metrics_ok("stzp_requests_total{kind=\"full\"} 1\n");
        let err = proto::encode_err(proto::err_code::NOT_FOUND, "no such entry");
        let trace_ok = proto::encode_trace_ok(&[stz_telemetry::trace::TraceRecord {
            trace_id: 0xABCD,
            kind: "full".into(),
            error: false,
            duration_ns: 1_500_000,
            dropped_spans: 0,
            spans: vec![
                stz_telemetry::trace::SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "request".into(),
                    start_ns: 0,
                    duration_ns: 1_500_000,
                    attrs: vec![("kind".into(), "full".into())],
                },
                stz_telemetry::trace::SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "decode".into(),
                    start_ns: 100,
                    duration_ns: 1_000_000,
                    attrs: vec![],
                },
            ],
        }]);

        let mut seeds = vec![
            frame(FrameType::Hello, &hello.finish()),
            frame(FrameType::HelloOk, &hello_ok.finish()),
            frame(FrameType::List, &[]),
            frame(FrameType::ListOk, &list),
            frame(FrameType::InspectOk, &inspect),
            frame(FrameType::FetchOk, &fetched.encode()),
            frame(FrameType::RawOk, &[0xAB; 64]),
            frame(FrameType::StatsOk, &stats),
            frame(FrameType::MetricsOk, &metrics),
            frame(FrameType::TraceGet, &[]),
            frame(FrameType::TraceOk, &trace_ok),
            frame(FrameType::Err, &err),
        ];
        for req in &reqs {
            seeds.push(frame(req.frame_type(), &req.encode()));
        }
        seeds
    }

    fn exec(&self, input: &[u8]) -> Outcome {
        let (server_class, server_site) = serve_side(input);
        let (client_class, client_site) = client_side(input);
        Outcome {
            class: format!("{server_class}|{client_class}"),
            site: format!("{server_site}|{client_site}"),
        }
    }

    fn max_input_len(&self) -> usize {
        1 << 14
    }
}

// ---------------------------------------------------------------------------
// Codec target.
// ---------------------------------------------------------------------------

/// Codec-registry decompress via magic sniffing.
#[derive(Debug, Default)]
pub struct CodecTarget;

impl FuzzTarget for CodecTarget {
    fn name(&self) -> &'static str {
        "codec"
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        let f32_field = stz_data::synth::miranda_like(small_dims(), 99);
        let f64_field = Field::from_fn(Dims::d3(4, 5, 6), |z, y, x| {
            (z as f64).sin() + (y as f64).cos() + x as f64 * 0.1
        });
        let mut seeds = Vec::new();
        for codec in registry().all() {
            seeds.push(
                stz_backend::compress(codec, &f32_field, &ErrorBound::Absolute(1e-3))
                    .expect("compress f32 seed"),
            );
            seeds.push(
                stz_backend::compress(codec, &f64_field, &ErrorBound::Absolute(1e-3))
                    .expect("compress f64 seed"),
            );
        }
        seeds.extend(long_stream_seeds().into_iter().map(|(_, archive)| archive));
        seeds
    }

    fn exec(&self, input: &[u8]) -> Outcome {
        let Some(codec) = registry().detect(input) else {
            return Outcome { class: "no-magic".into(), site: String::new() };
        };
        let classify = |r: &Result<Field<f32>, stz_codec::CodecError>| match r {
            Ok(_) => ("ok".to_string(), String::new()),
            Err(stz_codec::CodecError::UnexpectedEof { context }) => {
                ("eof".to_string(), context.to_string())
            }
            Err(stz_codec::CodecError::Corrupt(m)) => ("corrupt".to_string(), m.clone()),
            Err(stz_codec::CodecError::Unsupported(m)) => ("unsupported".to_string(), m.clone()),
            Err(stz_codec::CodecError::Io { message, .. }) => ("io".to_string(), message.clone()),
        };
        let f32_result = codec.decompress_f32(input);
        let (c32, s32) = classify(&f32_result);
        let (c64, s64) = match codec.decompress_f64(input) {
            Ok(_) => ("ok".to_string(), String::new()),
            Err(stz_codec::CodecError::UnexpectedEof { context }) => {
                ("eof".to_string(), context.to_string())
            }
            Err(stz_codec::CodecError::Corrupt(m)) => ("corrupt".to_string(), m),
            Err(stz_codec::CodecError::Unsupported(m)) => ("unsupported".to_string(), m),
            Err(stz_codec::CodecError::Io { message, .. }) => ("io".to_string(), message),
        };
        Outcome {
            class: format!("{}:f32-{c32},f64-{c64}", codec.name()),
            site: format!("{s32}|{s64}"),
        }
    }

    /// The decode oracles: an archive that decodes is described by its
    /// header as the field it decodes to; on an input that parses as an
    /// [`StzArchive`], every call a fresh handle answers must be the
    /// reference decoder's answer, and a handle that resumes from the
    /// level-1 grid it kept must answer every call as a fresh handle does.
    fn deep_check(&self, input: &[u8]) -> Result<(), String> {
        describe_agrees(input)?;
        if stz_core::archive::type_tag(input) == Some(f64::TYPE_TAG) {
            cold_equals_warm::<f64>(input)
        } else {
            cold_equals_warm::<f32>(input)
        }
    }

    fn max_input_len(&self) -> usize {
        1 << 14
    }
}

/// Where the codec `input`'s magic names decodes it, as either element
/// type, `Codec::describe` must succeed with that type and the field's dims.
fn describe_agrees(input: &[u8]) -> Result<(), String> {
    let Some(codec) = registry().detect(input) else {
        return Ok(());
    };
    let decoded = match codec.decompress_f32(input) {
        Ok(field) => Some((f32::TYPE_TAG, field.dims())),
        Err(_) => codec.decompress_f64(input).ok().map(|field| (f64::TYPE_TAG, field.dims())),
    };
    let Some(decoded) = decoded else {
        return Ok(());
    };
    match codec.describe(input) {
        Ok(info) if (info.type_tag, info.dims) == decoded => Ok(()),
        described => {
            Err(format!("{} decodes as {decoded:?}, describes as {described:?}", codec.name()))
        }
    }
}

/// A region, every level, then the full decode, each on a handle of its
/// own, which decodes level 1 from the stream — whose every answer must be
/// `stz_core::reference`'s, bit for bit — and twice over on one handle,
/// which resumes from the grid it kept after its first call: each answer's
/// exact bytes or error text must be the same all three times. Each call
/// then ends its walk in little-endian bytes instead of a field, on a fresh
/// handle and on the one that resumes, and must give the field's bytes or
/// the same error text again. Input that is no archive of `T` passes.
fn cold_equals_warm<T: Scalar>(input: &[u8]) -> Result<(), String> {
    let handle = || StzArchive::<T>::from_bytes(input.to_vec());
    let Ok(archive) = handle() else { return Ok(()) };
    let [nz, ny, nx] = archive.dims().as_array();
    let middle = |n: usize| n / 4..n / 4 + n.div_ceil(2);
    let region = Region::d3(middle(nz), middle(ny), middle(nx));
    let levels = archive.num_levels();
    let bytes = |f: Field<T>| {
        let mut out = Vec::new();
        T::write_slice_exact(f.as_slice(), &mut out);
        out
    };
    let call = |a: &StzArchive<T>, i: u8| {
        let decoded = match i {
            0 => a.decompress_region(&region),
            i if i <= levels => a.decompress_level(i),
            _ => a.decompress(),
        };
        decoded.map(bytes).map_err(|e| e.to_string())
    };
    let into_bytes = |a: &StzArchive<T>, i: u8| {
        let (walk, k) = match i {
            0 => (a.progressive_region(&region), levels),
            i if i <= levels => (Ok(a.progressive()), i),
            _ => (Ok(a.progressive()), levels),
        };
        let mut out = Vec::new();
        let done = walk.and_then(|walk| {
            stz_core::pool::with_threads(1, || {
                walk.decode_to_le(k, |dims| {
                    out = vec![0; dims.len() * T::BYTES];
                    &mut out[..]
                })
            })
        });
        done.map(|()| out).map_err(|e| e.to_string())
    };
    let calls = 0..=levels + 1;
    let what = |i: u8| match i {
        0 => format!("region {region:?}"),
        i if i <= levels => format!("level {i}"),
        _ => "full decode".to_string(),
    };
    let cold: Vec<Result<Vec<u8>, String>> =
        calls.clone().map(|i| call(&handle().expect("parsed above"), i)).collect();
    for (i, cold) in calls.clone().zip(&cold) {
        let Ok(cold) = cold else { continue };
        let want = match i {
            0 => reference::region(&archive, &region),
            i => reference::decode(&archive, i.min(levels)),
        };
        if want.map(bytes).as_ref() != Ok(cold) {
            return Err(format!("{} on a fresh handle is not the reference's", what(i)));
        }
    }
    let warm = |pass: &str, i: u8| match pass {
        "into bytes, fresh" => into_bytes(&handle().expect("parsed above"), i),
        "into bytes, resumed" => into_bytes(&archive, i),
        _ => call(&archive, i),
    };
    for pass in ["first", "second", "into bytes, fresh", "into bytes, resumed"] {
        for (i, cold) in calls.clone().zip(&cold) {
            let warm = warm(pass, i);
            if &warm != cold {
                let brief = |r: &Result<Vec<u8>, String>| match r {
                    Ok(bytes) => format!("{} values", bytes.len() / T::BYTES),
                    Err(e) => e.clone(),
                };
                let diff = match (&warm, cold) {
                    (Ok(w), Ok(c)) if w.len() == c.len() => {
                        let at = w.iter().zip(c).position(|(w, c)| w != c).unwrap_or(0);
                        format!("value {} differs", at / T::BYTES)
                    }
                    _ => format!("{} against {}", brief(&warm), brief(cold)),
                };
                return Err(format!("{}, {pass} pass vs a fresh handle's field: {diff}", what(i)));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_seeds_classify_ok() {
        let t = ContainerTarget;
        for seed in t.seeds() {
            let out = t.exec(&seed);
            assert_eq!(out.class, "ok", "seed should open cleanly: {out:?}");
        }
    }

    #[test]
    fn proto_seeds_do_not_panic_and_are_deterministic() {
        let t = ProtoTarget;
        for seed in t.seeds() {
            assert_eq!(t.exec(&seed), t.exec(&seed));
        }
    }

    #[test]
    fn long_stream_seeds_fill_the_packed_table_and_fit_the_input_cap() {
        let seeds = long_stream_seeds();
        assert_eq!(seeds.len(), 2);
        for (longest, archive) in seeds {
            assert!(longest >= stz_codec::huffman::PACKED_TABLE_FULL, "{longest} symbols");
            assert!(archive.len() < CodecTarget.max_input_len(), "{} bytes", archive.len());
        }
    }

    #[test]
    fn codec_seeds_roundtrip_on_matching_type() {
        let t = CodecTarget;
        for seed in t.seeds() {
            let out = t.exec(&seed);
            assert!(
                out.class.contains("f32-ok") || out.class.contains("f64-ok"),
                "each codec seed decodes at its own type: {out:?}"
            );
        }
    }

    #[test]
    fn codec_deep_check_finds_the_memo_stable_on_valid_and_corrupt() {
        let t = CodecTarget;
        let seeds = t.seeds();
        let stz: Vec<&Vec<u8>> = seeds.iter().filter(|s| s.starts_with(b"STZ1")).collect();
        assert!(stz.len() >= 2, "an f32 and an f64 stz seed");
        for seed in stz {
            t.deep_check(seed).unwrap();
            // A flipped byte in the level-1 stream: the same answer or error
            // on every handle, and no grid kept from a failed decode.
            let (l1, block) = StzArchive::<f32>::from_bytes(seed.clone())
                .map(|a| (a.l1_range(), a.block_range(a.num_levels(), 0)))
                .or_else(|_| {
                    StzArchive::<f64>::from_bytes(seed.clone())
                        .map(|a| (a.l1_range(), a.block_range(a.num_levels(), 0)))
                })
                .unwrap();
            let mut corrupt = seed.clone();
            corrupt[l1.start + l1.len() / 2] ^= 0xFF;
            t.deep_check(&corrupt).unwrap();
            // And in a sub-block of the finest level: the same error text
            // whether the walk ends in a field or in bytes.
            let mut corrupt = seed.clone();
            corrupt[block.start + block.len() / 2] ^= 0xFF;
            t.deep_check(&corrupt).unwrap();
        }
    }

    #[test]
    fn container_deep_check_stable_on_valid_and_corrupt() {
        let t = ContainerTarget;
        let seed = &t.seeds()[0];
        t.deep_check(seed).unwrap();
        let mut corrupt = seed.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        t.deep_check(&corrupt).unwrap();
        // A corrupt finest sub-block fails every full fetch after its first
        // has kept level 1, and the warm ones fail as the cold one does.
        let reader = stz_stream::ContainerReader::open(MemorySource::new(seed.clone())).unwrap();
        let detail = reader.records()[0].stz_detail().unwrap();
        let block = detail.blocks.last().unwrap()[0];
        let mut corrupt = seed.clone();
        corrupt[block.off as usize] ^= 0xFF;
        assert_eq!(t.exec(&corrupt).class, "corrupt");
        t.deep_check(&corrupt).unwrap();
    }
}
