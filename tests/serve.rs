//! Integration tests for the stz-serve archive server over real loopback
//! sockets:
//!
//! * 8 concurrent clients issuing mixed FULL/ROI/PROGRESSIVE fetches all
//!   receive bytes identical to local `ContainerReader` decodes, and a
//!   repeated-request workload reports a nonzero cache hit rate;
//! * off a raw socket, for one key of each fetch kind, the miss frame, the
//!   hit frame and `write_frame` of the locally encoded answer are the same
//!   bytes (the cache stores whole frames);
//! * wire-protocol robustness: truncated frames, bad magic, oversized
//!   length prefixes, mid-stream disconnects and CRC-corrupted responses
//!   error cleanly — no panics, no hangs (every socket carries a timeout);
//! * request-level failures (unknown container/entry, out-of-bounds ROI,
//!   progressive on a foreign-codec entry or past the entry's depth)
//!   answer `ERR` and leave the connection usable;
//! * the `METRICS`/`METRICS_OK` pair round-trips the server's telemetry
//!   registry (per-frame-kind request counters and latency histograms),
//!   and hostile `METRICS_OK` replies (wrong exposition version,
//!   truncated payload, trailing bytes) fail cleanly at the client;
//! * the trace-context extension round-trips byte-exact ids: a fetch
//!   carrying `TraceContextExt` yields a retained server trace under the
//!   *client's* trace id, rooted at the client's parent span, with the
//!   full `parse`/`cache`/`decode`/`write` span chain — and a
//!   `RemoteStore` fetch links transparently without any explicit ids;
//! * a served miss decodes on the pool: with the cache off, a cold ROI or
//!   a preview alone decodes at the server's width, every level as pieces
//!   on the server's workers, and the bytes are a `FileStore` fetch's;
//! * hostile `TRACE_OK` replies (wrong wire version, truncated span
//!   table, trailing bytes) fail cleanly at the client.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use stz::backend::ErrorBound;
use stz::data::synth;
use stz::prelude::*;
use stz::serve::{
    proto, Client, ContainerDesc, EntrySel, FetchReq, RequestKind, ServeError, ServeOptions, Server,
};
use stz::stream::{ContainerReader, ContainerWriter, ForeignArchive};

/// A hosted directory with one mixed container: two stz entries and one
/// zfp (foreign) entry, all 20x16x24 f32.
struct Rig {
    dir: std::path::PathBuf,
}

fn dims() -> Dims {
    Dims::d3(20, 16, 24)
}

impl Rig {
    fn new(tag: &str) -> Rig {
        let dir = std::env::temp_dir().join(format!("stz_serve_test_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fields: Vec<Field<f32>> =
            (0..3).map(|i| synth::miranda_like(dims(), 40 + i as u64)).collect();
        let file = std::fs::File::create(dir.join("steps.stzc")).unwrap();
        let mut w = ContainerWriter::new(std::io::BufWriter::new(file)).unwrap();
        let compressor = StzCompressor::new(StzConfig::three_level(1e-3));
        w.add_archive("t0", &compressor.compress(&fields[0]).unwrap()).unwrap();
        w.add_archive("t1", &compressor.compress(&fields[1]).unwrap()).unwrap();
        let zfp = registry().by_name("zfp").unwrap();
        let bytes = stz::backend::compress(zfp, &fields[2], &ErrorBound::Absolute(1e-3)).unwrap();
        w.add_foreign("zfp0", &ForeignArchive::new::<f32>(zfp.id(), dims(), 1e-3, bytes)).unwrap();
        w.finish().unwrap();
        Rig { dir }
    }

    fn serve(&self) -> (stz::serve::ServerHandle, std::net::SocketAddr) {
        let server = Server::bind(ServeOptions {
            root: self.dir.clone(),
            addr: "127.0.0.1:0".into(),
            cache_bytes: 32 << 20,
            read_timeout: Some(Duration::from_secs(5)),
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        (server.spawn().unwrap(), addr)
    }

    fn reader(&self) -> ContainerReader<stz::stream::FileSource> {
        ContainerReader::open_path(self.dir.join("steps.stzc")).unwrap()
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Raw little-endian bytes of a field — what `FETCH_OK` carries.
fn le_bytes(f: &Field<f32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(f.nbytes());
    for &v in f.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

// ---------------------------------------------------------------------------
// The acceptance workload.
// ---------------------------------------------------------------------------

#[test]
fn eight_concurrent_clients_mixed_fetches_are_byte_identical_and_cache_hits() {
    let rig = Rig::new("concurrent");
    let (handle, addr) = rig.serve();
    let reader = rig.reader();
    let roi = Region::d3(4..12, 2..14, 6..18);

    // Local ground truth for every request in the mix (stz full/roi/
    // progressive on both entries, full + roi on the foreign entry).
    let mut mix: Vec<(FetchReq, Vec<u8>)> = Vec::new();
    for i in 0..2usize {
        let entry = reader.entry::<f32>(i).unwrap();
        mix.push((
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Index(i as u32),
                kind: RequestKind::Full,
                trace: None,
            },
            le_bytes(&entry.decompress().unwrap()),
        ));
        mix.push((
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Index(i as u32),
                kind: RequestKind::roi(&roi),
                trace: None,
            },
            le_bytes(&entry.decompress_region(&roi).unwrap()),
        ));
        mix.push((
            FetchReq {
                container: "steps".into(),
                entry: EntrySel::Index(i as u32),
                kind: RequestKind::Level(1),
                trace: None,
            },
            le_bytes(&entry.decompress_level(1).unwrap()),
        ));
    }
    let foreign = reader.entry::<f32>(2).unwrap();
    mix.push((
        FetchReq {
            container: "steps".into(),
            entry: EntrySel::Name("zfp0".into()),
            kind: RequestKind::Full,
            trace: None,
        },
        le_bytes(&foreign.decompress().unwrap()),
    ));
    mix.push((
        FetchReq {
            container: "steps".into(),
            entry: EntrySel::Index(2),
            kind: RequestKind::roi(&roi),
            trace: None,
        },
        le_bytes(&foreign.decompress_region(&roi).unwrap()),
    ));
    let mix = Arc::new(mix);

    std::thread::scope(|scope| {
        for c in 0..8usize {
            let mix = Arc::clone(&mix);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // 3 passes over the whole mix, staggered per client: every
                // block is requested repeatedly across connections.
                for r in 0..3 * mix.len() {
                    let (req, expect) = &mix[(r + c) % mix.len()];
                    let fetched = client.fetch(req).unwrap();
                    assert_eq!(
                        &fetched.data, expect,
                        "client {c} round {r}: remote bytes differ from local decode"
                    );
                    let field: Field<f32> = fetched.into_field().unwrap();
                    assert!(!field.is_empty());
                }
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.cache_hits > 0, "repeated workload must hit the cache: {stats:?}");
    assert!(stats.hit_rate() > 0.5, "24 passes over 8 blocks should mostly hit: {stats:?}");
    assert_eq!(stats.containers, 1);
    assert!(stats.requests >= (8 * 3 * mix.len()) as u64);
    handle.stop();
}

#[test]
fn list_inspect_and_raw_match_local_metadata() {
    let rig = Rig::new("meta");
    let (handle, addr) = rig.serve();
    let mut client = Client::connect(addr).unwrap();

    let list = client.list().unwrap();
    let bytes = std::fs::metadata(rig.dir.join("steps.stzc")).unwrap().len();
    assert_eq!(list, [ContainerDesc { name: "steps".into(), entries: 3, bytes }]);

    let entries = client.inspect("steps").unwrap();
    let reader = rig.reader();
    let local: Vec<EntryDesc> =
        reader.entries().enumerate().map(|(i, m)| EntryDesc::from_meta(i as u32, &m)).collect();
    assert_eq!(entries, local, "remote entry table must equal the local one");
    assert_eq!(entries[2].codec_name(), Some("zfp"));
    assert_eq!(entries[2].levels, 0);

    // Raw section fetch: exactly the compressed payload the index records.
    let raw = client.fetch_raw("steps", EntrySel::Name("t0".into())).unwrap();
    let local_payload = reader.entry::<f32>(0).unwrap().read_payload().unwrap();
    assert_eq!(raw, local_payload);
    handle.stop();
}

/// The bytes of one whole response frame, exactly as they left the server.
fn read_raw_frame(s: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; proto::FRAME_HEADER_LEN];
    s.read_exact(&mut frame).unwrap();
    let len = u32::from_le_bytes(frame[8..12].try_into().unwrap()) as usize;
    frame.resize(proto::FRAME_HEADER_LEN + len, 0);
    s.read_exact(&mut frame[proto::FRAME_HEADER_LEN..]).unwrap();
    frame
}

#[test]
fn cached_frames_equal_fresh_frames_on_the_wire() {
    // The cache stores whole response frames. Off a raw socket, for one key
    // of each fetch kind: the miss, the hit, and `write_frame` of the
    // locally encoded answer are the same bytes.
    let rig = Rig::new("wire");
    let (handle, addr) = rig.serve();
    let reader = rig.reader();
    let entry = reader.entry::<f32>(1).unwrap();
    let roi = Region::d3(4..12, 2..14, 6..18);
    let fetch_ok = |kind: RequestKind, field: Field<f32>| {
        let fetched = proto::FetchedField {
            kind_tag: kind.tag(),
            type_tag: 0,
            dims: field.dims(),
            data: le_bytes(&field),
        };
        (kind, proto::FrameType::FetchOk, fetched.encode())
    };
    let answers = [
        fetch_ok(RequestKind::Full, entry.decompress().unwrap()),
        fetch_ok(RequestKind::Level(1), entry.decompress_level(1).unwrap()),
        fetch_ok(RequestKind::roi(&roi), entry.decompress_region(&roi).unwrap()),
        (RequestKind::Raw, proto::FrameType::RawOk, entry.read_payload().unwrap()),
    ];

    let mut s = raw_conn(addr);
    proto::write_frame(&mut s, proto::FrameType::Hello, &[proto::PROTO_VERSION]).unwrap();
    let hello_ok = read_raw_frame(&mut s);
    assert_eq!(hello_ok[5], proto::FrameType::HelloOk as u8);
    for (kind, reply, payload) in answers {
        let req = FetchReq {
            container: "steps".into(),
            entry: EntrySel::Name("t1".into()),
            kind,
            trace: None,
        };
        let mut fresh = Vec::new();
        proto::write_frame(&mut fresh, reply, &payload).unwrap();
        for pass in ["miss", "hit"] {
            proto::write_frame(&mut s, req.frame_type(), &req.encode()).unwrap();
            assert!(
                read_raw_frame(&mut s) == fresh,
                "{kind:?} {pass} frame differs from a fresh one"
            );
        }
    }
    let stats = Client::connect(addr).unwrap().stats().unwrap();
    assert_eq!((stats.cache_misses, stats.cache_hits), (4, 4), "{stats:?}");
    handle.stop();
}

#[test]
fn metrics_round_trip_reports_request_counters() {
    let rig = Rig::new("metrics");
    let (handle, addr) = rig.serve();
    let mut client = Client::connect(addr).unwrap();

    // Traffic of several frame kinds, then one METRICS round-trip.
    let roi = Region::d3(4..12, 2..14, 6..18);
    client.list().unwrap();
    client.inspect("steps").unwrap();
    client.fetch_full("steps", EntrySel::Index(0)).unwrap();
    client
        .fetch(&FetchReq {
            container: "steps".into(),
            entry: EntrySel::Index(0),
            kind: RequestKind::roi(&roi),
            trace: None,
        })
        .unwrap();
    client.fetch_level("steps", EntrySel::Index(0), 1).unwrap();
    let text = client.metrics().unwrap();

    assert!(
        text.starts_with("# stz-telemetry exposition v1"),
        "exposition must carry its version header: {text:?}"
    );
    let samples = stz::telemetry::expo::parse(&text).expect("server exposition parses");
    // The registry is process-global and shared with sibling tests, so
    // counts are lower-bounded by this test's own traffic, not equal.
    // The METRICS request itself is counted before the registry renders,
    // so "metrics" appears in its own exposition.
    for kind in ["list", "inspect", "full", "roi", "progressive", "metrics"] {
        let labels = [("kind", kind)];
        let requests = stz::telemetry::expo::sample_value(&samples, "stzp_requests_total", &labels)
            .unwrap_or(0.0);
        assert!(requests >= 1.0, "kind {kind} must be counted, got {requests}:\n{text}");
        // Latency is recorded at the reply-write site, after the request
        // counter, so it can only lag the counter (never exceed it).
        let timed =
            stz::telemetry::expo::sample_value(&samples, "stzp_request_latency_ns_count", &labels)
                .unwrap_or(0.0);
        assert!(timed <= requests, "kind {kind}: {timed} timed > {requests} counted:\n{text}");
        if kind != "metrics" {
            // Every pre-METRICS request of this test was fully replied to.
            assert!(timed >= 1.0, "kind {kind} must have latency samples:\n{text}");
            let p99 = stz::telemetry::expo::histogram_quantile(
                &samples,
                "stzp_request_latency_ns",
                &labels,
                0.99,
            );
            assert!(p99.is_some(), "kind {kind} must expose latency buckets:\n{text}");
        }
    }
    // Connection lifecycle and cache counters ride the same registry.
    let conns = stz::telemetry::expo::sample_value(&samples, "stzp_connections_total", &[]);
    assert!(conns.unwrap_or(0.0) >= 1.0, "connections_total missing:\n{text}");
    let active = stz::telemetry::expo::sample_value(&samples, "stzp_connections_active", &[]);
    assert!(active.unwrap_or(0.0) >= 1.0, "this very connection is active:\n{text}");
    assert!(
        stz::telemetry::expo::sample_value(&samples, "stz_serve_cache_misses_total", &[]).is_some(),
        "cache counters must be registered:\n{text}"
    );
    handle.stop();
}

// ---------------------------------------------------------------------------
// Request-level errors keep the connection alive.
// ---------------------------------------------------------------------------

#[test]
fn request_errors_answer_err_and_connection_survives() {
    let rig = Rig::new("errors");
    let (handle, addr) = rig.serve();
    let mut client = Client::connect(addr).unwrap();

    let remote_code = |e: ServeError| match e {
        ServeError::Remote { code, .. } => code,
        other => panic!("expected Remote error, got {other:?}"),
    };

    // Unknown container / entry.
    let e = client.fetch_full("nope", EntrySel::Index(0)).unwrap_err();
    assert_eq!(remote_code(e), proto::err_code::NOT_FOUND);
    let e = client.fetch_full("steps", EntrySel::Index(99)).unwrap_err();
    assert_eq!(remote_code(e), proto::err_code::NOT_FOUND);
    let e = client.fetch_full("steps", EntrySel::Name("ghost".into())).unwrap_err();
    assert_eq!(remote_code(e), proto::err_code::NOT_FOUND);

    // ROI outside the entry (and inverted bounds).
    let e = client
        .fetch(&FetchReq {
            container: "steps".into(),
            entry: EntrySel::Index(0),
            kind: RequestKind::Roi([0, 64, 0, 64, 0, 64]),
            trace: None,
        })
        .unwrap_err();
    assert_eq!(remote_code(e), proto::err_code::BAD_REQUEST);
    let e = client
        .fetch(&FetchReq {
            container: "steps".into(),
            entry: EntrySel::Index(0),
            kind: RequestKind::Roi([4, 2, 0, 1, 0, 1]),
            trace: None,
        })
        .unwrap_err();
    assert_eq!(remote_code(e), proto::err_code::BAD_REQUEST);

    // Progressive preview of a foreign entry is unsupported, not fatal.
    let e = client.fetch_level("steps", EntrySel::Name("zfp0".into()), 1).unwrap_err();
    assert_eq!(remote_code(e), proto::err_code::UNSUPPORTED);

    // After all of that, the same connection still serves real requests.
    let ok = client.fetch_full("steps", EntrySel::Index(0)).unwrap();
    assert_eq!(ok.dims, dims());
    handle.stop();
}

#[test]
fn preview_past_the_entry_depth_is_a_bad_request_that_misses_no_cache() {
    // A raw client skips the access layer's checks: the server itself must
    // refuse a level the entry lacks as the same BAD_REQUEST, before the
    // cache lookup, so the refusal counts no miss.
    let rig = Rig::new("depth");
    let (handle, addr) = rig.serve();
    let mut client = Client::connect(addr).unwrap();
    let levels = client.inspect("steps").unwrap()[0].levels;
    assert_eq!(levels, 3);

    let misses = client.stats().unwrap().cache_misses;
    match client.fetch_level("steps", EntrySel::Name("t0".into()), levels + 1) {
        Err(ServeError::Remote { code, message }) => {
            assert_eq!(code, proto::err_code::BAD_REQUEST, "{message}");
            assert!(message.contains("exceeds the entry's 3 levels"), "{message}");
        }
        other => panic!("expected a BAD_REQUEST reply, got {other:?}"),
    }
    assert_eq!(client.stats().unwrap().cache_misses, misses, "a refused level took a slot");

    // The connection still serves the deepest real level.
    let ok = client.fetch_level("steps", EntrySel::Name("t0".into()), levels).unwrap();
    assert_eq!(ok.dims, dims());
    handle.stop();
}

#[test]
fn preview_of_a_foreign_entry_is_unsupported_and_misses_no_cache() {
    // A foreign codec has no levels: the server refuses any preview of it,
    // level 0 included, as UNSUPPORTED with the access layer's words, before
    // the cache lookup.
    let rig = Rig::new("foreign_preview");
    let (handle, addr) = rig.serve();
    let mut client = Client::connect(addr).unwrap();
    let misses = client.stats().unwrap().cache_misses;
    for k in [0, 1, 3] {
        match client.fetch_level("steps", EntrySel::Name("zfp0".into()), k) {
            Err(ServeError::Remote { code, message }) => {
                assert_eq!(code, proto::err_code::UNSUPPORTED, "level {k}: {message}");
                let want = "level previews require a native stz entry; \
                            entry \"zfp0\" uses codec zfp";
                assert_eq!(message, want, "level {k}");
            }
            other => panic!("level {k}: expected an UNSUPPORTED reply, got {other:?}"),
        }
    }
    assert_eq!(client.stats().unwrap().cache_misses, misses, "a refused preview took a slot");

    // The foreign entry still serves what it can.
    let ok = client.fetch_full("steps", EntrySel::Name("zfp0".into())).unwrap();
    assert_eq!(ok.dims, dims());
    handle.stop();
}

// ---------------------------------------------------------------------------
// Hostile bytes at the server.
// ---------------------------------------------------------------------------

/// A raw socket speaking whatever bytes the test wants.
fn raw_conn(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Read everything the server sends until it closes (bounded by the
/// socket timeout, so a misbehaving server fails the test, not hangs it).
fn drain(s: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

#[test]
fn server_survives_garbage_truncation_and_disconnects() {
    let rig = Rig::new("hostile");
    let (handle, addr) = rig.serve();

    // Bad magic: the server must answer (an ERR frame) or close — and
    // must not panic. Afterwards a well-behaved client still works.
    {
        let mut s = raw_conn(addr);
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let reply = drain(&mut s);
        if !reply.is_empty() {
            let frame = proto::read_frame(&mut &reply[..]).unwrap().unwrap();
            assert_eq!(frame.frame_type(), Some(proto::FrameType::Err));
        }
    }

    // Oversized length prefix: rejected without a 4 GiB allocation.
    {
        let mut s = raw_conn(addr);
        let mut header = [0u8; proto::FRAME_HEADER_LEN];
        header[0..4].copy_from_slice(&proto::PROTO_MAGIC);
        header[4] = proto::PROTO_VERSION;
        header[5] = 0x01; // HELLO
        header[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        s.write_all(&header).unwrap();
        let reply = drain(&mut s);
        if !reply.is_empty() {
            let frame = proto::read_frame(&mut &reply[..]).unwrap().unwrap();
            assert_eq!(frame.frame_type(), Some(proto::FrameType::Err));
        }
    }

    // Truncated frame + mid-stream disconnect: header promises 100
    // payload bytes, the peer sends 10 and vanishes.
    {
        let mut s = raw_conn(addr);
        let mut header = [0u8; proto::FRAME_HEADER_LEN];
        header[0..4].copy_from_slice(&proto::PROTO_MAGIC);
        header[4] = proto::PROTO_VERSION;
        header[5] = 0x01;
        header[8..12].copy_from_slice(&100u32.to_le_bytes());
        s.write_all(&header).unwrap();
        s.write_all(&[0u8; 10]).unwrap();
        drop(s); // disconnect mid-frame
    }

    // Disconnect between the handshake and a request.
    {
        let mut s = raw_conn(addr);
        let mut hello = Vec::new();
        proto::write_frame(&mut hello, proto::FrameType::Hello, &[proto::PROTO_VERSION]).unwrap();
        s.write_all(&hello).unwrap();
        drop(s);
    }

    // CRC-corrupted request frame.
    {
        let mut s = raw_conn(addr);
        let mut hello = Vec::new();
        proto::write_frame(&mut hello, proto::FrameType::Hello, &[proto::PROTO_VERSION]).unwrap();
        let last = hello.len() - 1;
        hello[last] ^= 0xFF;
        s.write_all(&hello).unwrap();
        let reply = drain(&mut s);
        if !reply.is_empty() {
            let frame = proto::read_frame(&mut &reply[..]).unwrap().unwrap();
            assert_eq!(frame.frame_type(), Some(proto::FrameType::Err));
        }
    }

    // The server is still healthy after all of the above.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.list().unwrap().len(), 1);
    let fetched = client.fetch_full("steps", EntrySel::Index(0)).unwrap();
    assert_eq!(fetched.dims, dims());
    handle.stop();
}

// ---------------------------------------------------------------------------
// Hostile bytes at the client: a lying server.
// ---------------------------------------------------------------------------

/// A one-connection fake server: completes the handshake honestly, then
/// answers the next request with `response` verbatim (or closes early).
fn fake_server(response: Option<Vec<u8>>) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Handshake.
        let frame = proto::read_frame(&mut s).unwrap().unwrap();
        assert_eq!(frame.frame_type(), Some(proto::FrameType::Hello));
        let mut hello_ok = proto::Enc::new();
        hello_ok.u8(proto::PROTO_VERSION);
        hello_ok.string("fake-server/0");
        proto::write_frame(&mut s, proto::FrameType::HelloOk, &hello_ok.finish()).unwrap();
        // One request, one scripted reply.
        let _ = proto::read_frame(&mut s);
        if let Some(bytes) = response {
            let _ = s.write_all(&bytes);
        }
        // Closing the socket is the "mid-stream disconnect" case.
    });
    addr
}

#[test]
fn client_rejects_corrupted_and_truncated_responses() {
    // A well-formed FETCH_OK frame to corrupt in different ways.
    let honest = {
        let field = Field::from_fn(Dims::d3(2, 2, 2), |z, y, x| (z + y + x) as f32);
        let ff = stz::serve::FetchedField {
            kind_tag: RequestKind::Full.tag(),
            type_tag: 0,
            dims: field.dims(),
            data: le_bytes(&field),
        };
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, proto::FrameType::FetchOk, &ff.encode()).unwrap();
        wire
    };

    let fetch =
        |addr| Client::connect(addr).and_then(|mut c| c.fetch_full("steps", EntrySel::Index(0)));

    // CRC-corrupted payload byte.
    let mut corrupt = honest.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    match fetch(fake_server(Some(corrupt))) {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("CRC"), "{msg}"),
        other => panic!("corrupted response must fail with a CRC error, got {other:?}"),
    }

    // Bad magic from the server.
    let mut bad_magic = honest.clone();
    bad_magic[0] = b'X';
    assert!(matches!(fetch(fake_server(Some(bad_magic))), Err(ServeError::Protocol(_))));

    // Oversized length prefix from the server.
    let mut oversized = honest.clone();
    oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(fetch(fake_server(Some(oversized))), Err(ServeError::Protocol(_))));

    // Truncated frame then disconnect.
    let truncated = honest[..honest.len() / 2].to_vec();
    assert!(matches!(fetch(fake_server(Some(truncated))), Err(ServeError::Protocol(_))));

    // No response at all (disconnect after the request).
    assert!(matches!(fetch(fake_server(None)), Err(ServeError::Protocol(_))));

    // Well-formed but *lying* dims: data length disagrees.
    let lying = {
        let mut payload = {
            let field = Field::from_fn(Dims::d3(2, 2, 2), |_, _, _| 0.0f32);
            stz::serve::FetchedField {
                kind_tag: RequestKind::Full.tag(),
                type_tag: 0,
                dims: field.dims(),
                data: le_bytes(&field),
            }
            .encode()
        };
        payload.truncate(payload.len() - 4); // drop one scalar
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, proto::FrameType::FetchOk, &payload).unwrap();
        wire
    };
    assert!(matches!(fetch(fake_server(Some(lying))), Err(ServeError::Protocol(_))));
}

#[test]
fn client_rejects_hostile_metrics_replies() {
    let metrics = |addr| Client::connect(addr).and_then(|mut c| c.metrics());

    // An unknown exposition version is rejected before any parsing.
    let mut enc = proto::Enc::new();
    enc.u8(99);
    enc.string("stzp_requests_total 1\n");
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, proto::FrameType::MetricsOk, &enc.finish()).unwrap();
    match metrics(fake_server(Some(wire))) {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("version"), "{msg}"),
        other => panic!("wrong exposition version must fail, got {other:?}"),
    }

    // Truncated payload: version byte only, the text is missing.
    let mut wire = Vec::new();
    proto::write_frame(
        &mut wire,
        proto::FrameType::MetricsOk,
        &[stz::telemetry::EXPOSITION_VERSION],
    )
    .unwrap();
    assert!(matches!(metrics(fake_server(Some(wire))), Err(ServeError::Protocol(_))));

    // Trailing junk after a well-formed payload.
    let mut enc = proto::Enc::new();
    enc.u8(stz::telemetry::EXPOSITION_VERSION);
    enc.string("a_total 1\n");
    let mut payload = enc.finish();
    payload.push(0xAA);
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, proto::FrameType::MetricsOk, &payload).unwrap();
    assert!(matches!(metrics(fake_server(Some(wire))), Err(ServeError::Protocol(_))));

    // A structurally valid reply whose *text* is hostile still decodes at
    // the transport layer — rejecting garbage lines is the parser's job.
    let mut enc = proto::Enc::new();
    enc.u8(stz::telemetry::EXPOSITION_VERSION);
    enc.string("not an exposition line");
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, proto::FrameType::MetricsOk, &enc.finish()).unwrap();
    let text = metrics(fake_server(Some(wire))).expect("transport does not parse the text");
    assert!(stz::telemetry::expo::parse(&text).is_err(), "the parser must reject it");
}

// ---------------------------------------------------------------------------
// Distributed tracing: trace-context propagation and TRACE_GET export.
// ---------------------------------------------------------------------------

/// Every non-root span must parent onto another span of the same trace.
fn assert_causally_linked(t: &stz::telemetry::trace::TraceRecord) {
    let ids: std::collections::HashSet<u64> = t.spans.iter().map(|s| s.id).collect();
    let root = t.root().expect("trace has a root span");
    for s in &t.spans {
        if s.id != root.id {
            assert!(
                ids.contains(&s.parent),
                "span {:?} dangles: parent {} unknown",
                s.name,
                s.parent
            );
        }
    }
}

#[test]
fn trace_context_round_trips_byte_exact_ids() {
    let rig = Rig::new("trace_ids");
    let (handle, addr) = rig.serve();
    let mut client = Client::connect(addr).unwrap();

    // A fetch carrying explicit, recognizable trace ids. The collector is
    // process-global and sibling tests flood the same per-kind retention
    // rings, so retry until the fetch→TRACE_GET window wins the race.
    let trace_id = 0xDEAD_BEEF_1234_5678u64;
    let parent_span = 0x42u64;
    let mut traced = |kind: RequestKind, expect: Dims, trace_id: u64| {
        for _ in 0..20 {
            let fetched = client
                .fetch(&FetchReq {
                    container: "steps".into(),
                    entry: EntrySel::Index(0),
                    kind,
                    trace: Some(proto::TraceContextExt { trace_id, parent_span }),
                })
                .unwrap();
            assert_eq!(fetched.dims, expect);
            // TRACE_GET returns the tail-sampled snapshot; the server must
            // have adopted the client's trace id verbatim and rooted its
            // span tree under the client's parent span.
            let traces = client.trace().unwrap();
            if let Some(t) = traces.iter().find(|t| t.trace_id == trace_id) {
                return Some(t.clone());
            }
        }
        None
    };
    let found = traced(RequestKind::Full, dims(), trace_id);
    // A region request explains itself down to the codec's stages, like a
    // full decode does.
    let roi = traced(RequestKind::Roi([2, 9, 0, 16, 3, 20]), Dims::d3(7, 16, 17), trace_id + 1);
    let roi = roi.expect("server retained the region trace");
    assert_eq!(roi.kind, "roi");
    assert_causally_linked(&roi);
    for stage in ["decode", "level1", "level_decode", "entropy", "reconstruct"] {
        assert!(roi.spans.iter().any(|s| s.name == stage), "span {stage:?} missing from roi");
    }
    let t = &found.expect("server retained the trace under the client's id");
    assert_eq!(t.kind, "full");
    assert!(!t.error);
    let root = t.root().expect("root span");
    assert_eq!(root.name, "request");
    assert_eq!(root.parent, parent_span, "root must parent under the client's span id");
    assert_causally_linked(t);

    // The instrumented request path shows up as named stages.
    let names: std::collections::HashSet<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
    for stage in ["request", "connection", "parse", "cache", "decode", "write"] {
        assert!(names.contains(stage), "span {stage:?} missing from {names:?}");
    }
    assert!(t.spans.len() >= 5, "expected a real span tree, got {}", t.spans.len());
    // Stage spans nest inside the trace window.
    assert_eq!(root.duration_ns, t.duration_ns, "root span spans the whole trace");
    for s in &t.spans {
        assert!(
            s.start_ns + s.duration_ns <= t.duration_ns,
            "span {:?} escapes the trace window",
            s.name
        );
    }
    handle.stop();
}

#[test]
fn a_served_miss_decodes_each_level_on_the_pool() {
    // Cache off: every fetch is a miss, and one miss alone decodes at the
    // server's width. A cold ROI and a level-2 preview each split every
    // level they decode into pieces, one of them on a spawned worker.
    let rig = Rig::new("pooled_miss");
    let server = Server::bind(ServeOptions {
        root: rig.dir.clone(),
        addr: "127.0.0.1:0".into(),
        cache_bytes: 0,
        threads: 2,
        read_timeout: Some(Duration::from_secs(5)),
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();
    use stz::access::Store as _;
    let store = stz::access::FileStore::open_path(rig.dir.join("steps.stzc")).unwrap();
    let local = store.open(&stz::access::EntrySel::Index(1)).unwrap();
    let roi = Region::d3(3..17, 1..16, 5..22);
    let fetches = [
        (RequestKind::roi(&roi), stz::access::Fetch::Region(roi.clone())),
        (RequestKind::Level(2), stz::access::Fetch::Level(2)),
    ];
    let mut client = Client::connect(addr).unwrap();
    for (n, (kind, fetch)) in fetches.into_iter().enumerate() {
        // Sibling tests flood the same retention rings: retry until the
        // trace survives sampling.
        let trace_id = 0x9001_0000 + n as u64;
        let mut found = None;
        for _ in 0..20 {
            let fetched = client
                .fetch(&FetchReq {
                    container: "steps".into(),
                    entry: EntrySel::Index(1),
                    kind,
                    trace: Some(proto::TraceContextExt { trace_id, parent_span: 7 }),
                })
                .unwrap();
            assert!(fetched.data == local.fetch(&fetch).unwrap().data, "{kind:?}: other bytes");
            found = client.trace().unwrap().into_iter().find(|t| t.trace_id == trace_id);
            if found.is_some() {
                break;
            }
        }
        let t = found.expect("server retained the trace");
        let decode = t.spans.iter().find(|s| s.name == "decode").expect("a decode span");
        let width = decode.attrs.iter().find(|(k, _)| k == "width").map(|(_, v)| v.as_str());
        assert_eq!(width, Some("2"), "{kind:?}: a miss alone decodes at the server's width");
        let children = |level: u64, name: &str| {
            t.spans.iter().filter(|s| s.parent == level && s.name == name).count()
        };
        let levels: Vec<u64> =
            t.spans.iter().filter(|s| s.name == "level_decode").map(|s| s.id).collect();
        assert!(!levels.is_empty(), "{kind:?} decoded no level past the first");
        for level in levels {
            assert!(children(level, "reconstruct") >= 2, "{kind:?}: a level ran as one piece");
            assert_eq!(children(level, "queue_wait"), 1, "{kind:?}: one spawned worker a level");
        }
    }
    handle.stop();
}

#[test]
fn remote_store_fetch_links_client_and_server_traces() {
    let rig = Rig::new("trace_remote");
    let (handle, addr) = rig.serve();

    // A RemoteStore fetch opens a client-side trace root and injects its
    // ids into the wire frame — no explicit trace plumbing in user code.
    use stz::access::Store as _;
    let store = stz::access::RemoteStore::connect(addr, "steps").unwrap();
    let entry = store.open(&stz::access::EntrySel::Index(0)).unwrap();
    let mut client = Client::connect(addr).unwrap();

    // Both sides share this process's collector: the snapshot carries the
    // client-kind trace and the server-kind trace under one id. Sibling
    // tests contend on the "full" retention rings, so retry the
    // fetch→TRACE_GET window until the pair survives sampling.
    let mut pair = None;
    for _ in 0..20 {
        let fetched = entry.fetch(&stz::access::Fetch::Full).unwrap();
        assert_eq!(fetched.dims, dims());
        let traces = client.trace().unwrap();
        pair = traces.iter().find_map(|server| {
            if server.kind != "full" {
                return None;
            }
            traces
                .iter()
                .find(|c| c.kind == "client" && c.trace_id == server.trace_id)
                .map(|c| (c.clone(), server.clone()))
        });
        if pair.is_some() {
            break;
        }
    }
    let (client_t, server_t) = pair.expect("linked client/server trace pair retained");
    let (client_t, server_t) = (&client_t, &server_t);
    assert_causally_linked(server_t);
    // The server root parents under the client's "roundtrip" span.
    let roundtrip = client_t
        .spans
        .iter()
        .find(|s| s.name == "roundtrip")
        .expect("client trace records the roundtrip span");
    assert_eq!(server_t.root().unwrap().parent, roundtrip.id);
    let names: std::collections::HashSet<&str> =
        server_t.spans.iter().map(|s| s.name.as_str()).collect();
    for stage in ["parse", "cache", "decode", "write"] {
        assert!(names.contains(stage), "span {stage:?} missing from {names:?}");
    }
    handle.stop();
}

#[test]
fn client_rejects_hostile_trace_replies() {
    use stz::telemetry::trace::{SpanRecord, TraceRecord};
    let trace = |addr| Client::connect(addr).and_then(|mut c| c.trace());

    // A well-formed TRACE_OK payload to corrupt in different ways.
    let honest = proto::encode_trace_ok(&[TraceRecord {
        trace_id: 7,
        kind: "full".into(),
        error: false,
        duration_ns: 1_000,
        dropped_spans: 0,
        spans: vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "request".into(),
                start_ns: 0,
                duration_ns: 1_000,
                attrs: vec![("kind".into(), "full".into())],
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "decode".into(),
                start_ns: 100,
                duration_ns: 500,
                attrs: Vec::new(),
            },
        ],
    }]);
    let framed = |payload: &[u8]| {
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, proto::FrameType::TraceOk, payload).unwrap();
        wire
    };

    // The honest payload decodes — the baseline for the corruptions.
    let got = trace(fake_server(Some(framed(&honest)))).expect("honest TRACE_OK decodes");
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].trace_id, 7);
    assert_eq!(got[0].spans.len(), 2);

    // Unknown wire version.
    let mut bad_version = honest.clone();
    bad_version[0] = 99;
    match trace(fake_server(Some(framed(&bad_version)))) {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("version"), "{msg}"),
        other => panic!("wrong trace wire version must fail, got {other:?}"),
    }

    // Truncated span table.
    let truncated = &honest[..honest.len() - 6];
    assert!(matches!(trace(fake_server(Some(framed(truncated)))), Err(ServeError::Protocol(_))));

    // Trailing junk after a well-formed payload.
    let mut trailing = honest.clone();
    trailing.push(0xAA);
    assert!(matches!(trace(fake_server(Some(framed(&trailing)))), Err(ServeError::Protocol(_))));

    // A count prefix promising traces the payload does not carry.
    let mut lying = honest.clone();
    lying[1..5].copy_from_slice(&1_000u32.to_le_bytes());
    assert!(matches!(trace(fake_server(Some(framed(&lying)))), Err(ServeError::Protocol(_))));
}

#[test]
fn version_mismatch_is_rejected_at_handshake() {
    let rig = Rig::new("version");
    let (handle, addr) = rig.serve();
    // Speak HELLO with a client version the server does not know.
    let mut s = raw_conn(addr);
    let mut hello = Vec::new();
    proto::write_frame(&mut hello, proto::FrameType::Hello, &[42]).unwrap();
    s.write_all(&hello).unwrap();
    let frame = proto::read_frame(&mut s).unwrap().unwrap();
    assert_eq!(frame.frame_type(), Some(proto::FrameType::Err));
    match proto::decode_err(&frame.payload) {
        ServeError::Remote { code, .. } => assert_eq!(code, proto::err_code::UNSUPPORTED),
        other => panic!("expected Remote, got {other:?}"),
    }
    handle.stop();
}

#[test]
fn connection_cap_answers_busy_and_recovers() {
    let rig = Rig::new("busy");
    let server = Server::bind(ServeOptions {
        root: rig.dir.clone(),
        addr: "127.0.0.1:0".into(),
        max_conns: 1,
        read_timeout: Some(Duration::from_secs(5)),
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();

    // First connection occupies the single slot.
    let mut first = Client::connect(addr).unwrap();
    assert_eq!(first.list().unwrap().len(), 1);

    // While it is held open, further connections are told BUSY (the
    // accept loop may need a moment to hand the overflow socket to its
    // short-lived responder, so allow a few attempts).
    let mut saw_busy = false;
    for _ in 0..20 {
        match Client::connect(addr) {
            Err(ServeError::Remote { code, .. }) if code == proto::err_code::BUSY => {
                saw_busy = true;
                break;
            }
            // Shed (closed without a frame) also counts as enforcement,
            // but keep probing for the explicit BUSY answer.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(saw_busy, "overflow connection never saw ERR BUSY");

    // Releasing the slot lets new connections in again.
    drop(first);
    for attempt in 0..50 {
        match Client::connect(addr) {
            Ok(mut c) => {
                assert_eq!(c.list().unwrap().len(), 1);
                break;
            }
            Err(_) if attempt < 49 => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("server never recovered after the slot freed: {e}"),
        }
    }
    handle.stop();
}

// ---------------------------------------------------------------------------
// Read-consistent snapshots over mutable (v3) containers.
// ---------------------------------------------------------------------------

/// A running server reopens a container when a mutation commits a new
/// generation: appended entries become fetchable, deleted entries answer
/// NOT_FOUND, survivors stay byte-identical through a compaction rename —
/// all over one long-lived client connection, with no server restart.
#[test]
fn server_follows_generation_flips_of_a_mutable_container() {
    use stz::access::{open_store_mut, EntryPayload};

    let rig = Rig::new("mutate");
    let path = rig.dir.join("steps.stzc");
    let compressor = StzCompressor::new(StzConfig::three_level(1e-3));
    let (handle, addr) = rig.serve();
    let mut client = Client::connect(addr).unwrap();

    // Generation 1 (the packed v2 container) serves normally and primes
    // the decoded-block cache for entry t0.
    let t0 = client.fetch_full("steps", EntrySel::Name("t0".into())).unwrap();
    assert_eq!(t0.data, le_bytes(&rig.reader().entry::<f32>(0).unwrap().decompress().unwrap()));

    // Mutate the live file through the write API: upgrade to v3, append a
    // new entry, drop t0, commit one new generation.
    let f3 = synth::miranda_like(dims(), 99);
    let a3 = compressor.compress(&f3).unwrap();
    {
        let mut store = open_store_mut(path.to_str().unwrap()).unwrap();
        store.append("t3", EntryPayload::F32(a3.clone())).unwrap();
        store.delete("t0").unwrap();
        let generation = store.commit().unwrap();
        assert_eq!(generation, 2, "upgrade pins gen 1, the batch commits gen 2");
    }

    // The same connection sees the new generation on its next requests.
    let t3 = client.fetch_full("steps", EntrySel::Name("t3".into())).unwrap();
    assert_eq!(t3.data, le_bytes(&a3.decompress().unwrap()), "appended entry fetches");
    match client.fetch_full("steps", EntrySel::Name("t0".into())) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, proto::err_code::NOT_FOUND),
        other => panic!("deleted entry must answer NOT_FOUND, got {other:?}"),
    }
    let t1 = client.fetch_full("steps", EntrySel::Name("t1".into())).unwrap();

    // Compaction rewrites the file and renames it into place; the server
    // follows the flip and survivors stay byte-identical.
    {
        let mut store = open_store_mut(path.to_str().unwrap()).unwrap();
        let report = store.compact().unwrap();
        assert!(report.reclaimed_bytes > 0, "dead t0 bytes must be reclaimed");
    }
    let t1_after = client.fetch_full("steps", EntrySel::Name("t1".into())).unwrap();
    assert_eq!(t1.data, t1_after.data, "compaction must not change surviving bytes");
    let entries = client.inspect("steps").unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["t1", "zfp0", "t3"], "post-compaction entry table");

    handle.stop();
}
