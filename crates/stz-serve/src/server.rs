//! The concurrent archive server.
//!
//! [`Server::bind`] opens every `.stzc` under a root directory **once**;
//! from then on all connections share the same open
//! [`ContainerReader`]s, which is sound because every read is a
//! positioned (`pread`-style) [`ByteSource`] access with no seek
//! state. Each accepted connection runs on its own thread; decode work
//! inside a connection runs on `stz_core::pool` threads, the configured
//! width shared among the misses decoding at once, and every fetch response
//! passes through the [`DecodedCache`] so repeated requests skip
//! decompression entirely.
//!
//! A fetch response is produced exactly once, in one buffer sized from the
//! entry's plan: when the decode reaches its last level
//! ([`ProgressiveDecoder::decode_to_le`]), the miss path allocates the frame
//! and writes the `FETCH_OK` head after room for the frame header, the
//! decode stores the last level's rows as little-endian scalars straight
//! into the rest, the CRC makes its single pass when the header is patched
//! in, and the finished frame is what the cache stores. No field is decoded
//! and then copied. A hit therefore computes
//! nothing and copies nothing — the cached frame goes to the socket in one
//! write.
//!
//! [`ProgressiveDecoder::decode_to_le`]: stz_core::ProgressiveDecoder::decode_to_le

use crate::cache::{CacheKey, DecodedCache};
use crate::error::{Result, ServeError};
use crate::proto::{
    encode_err, encode_inspect, encode_list, encode_metrics_ok, encode_trace_ok, err_code,
    read_frame, write_frame, Enc, FetchReq, FetchedField, Frame, FrameType, RequestKind,
    ServerStats, FETCH_HEAD_LEN, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD, PROTO_VERSION,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant, SystemTime};
use stz_codec::CodecError;
use stz_core::level::LevelPlan;
use stz_core::pool;
use stz_stream::{
    resolve_sel, validate_fetch, ByteSource, ContainerDesc, ContainerReader, EntryDesc, Fetch,
    FileSource, Refusal,
};
use stz_telemetry::{log_debug, log_warn, trace, Counter, Gauge, Histogram, LogLimiter, Registry};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Directory of `.stzc` containers to host (or a single `.stzc`
    /// file). Containers are addressed by file stem.
    pub root: PathBuf,
    /// Bind address; port `0` picks an ephemeral port (query it with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Byte budget of the decoded-block cache (`0` disables caching).
    pub cache_bytes: u64,
    /// Worker threads for decode work (`0` = auto: `STZ_THREADS` or all
    /// cores).
    pub threads: usize,
    /// Connections served concurrently before new ones are turned away
    /// with `ERR BUSY`.
    pub max_conns: usize,
    /// Per-socket read timeout: an idle or half-open peer cannot pin a
    /// connection thread forever. `None` waits indefinitely.
    pub read_timeout: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            root: PathBuf::from("."),
            addr: "127.0.0.1:0".into(),
            cache_bytes: 256 << 20,
            threads: 0,
            max_conns: 64,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// One hosted container: a path plus the currently pinned [`Snapshot`].
///
/// Requests **pin** a snapshot ([`Hosted::pin`]) for their whole
/// lifetime, so a concurrent `stz append`/`compact` on the same file
/// never changes what an in-flight request reads: the old generation's
/// `FileSource` keeps its file descriptor (and, across a compaction
/// rename, the old inode) alive until the last pin drops. New requests
/// probe the file's length+mtime and reopen on change, picking up the
/// freshly committed generation without a server restart.
#[derive(Debug)]
struct Hosted {
    path: PathBuf,
    current: RwLock<Arc<Snapshot>>,
}

/// One pinned view of a container: a complete committed generation.
#[derive(Debug)]
struct Snapshot {
    reader: ContainerReader<FileSource>,
    file_len: u64,
    mtime: Option<SystemTime>,
    /// Committed generation (always 1 for immutable v1/v2 containers) —
    /// part of every [`CacheKey`], so a flip re-keys the decoded cache.
    generation: u64,
}

impl Snapshot {
    fn open(path: &Path) -> stz_codec::Result<Snapshot> {
        // Stat *before* opening: if the file changes between the stat and
        // the open, the recorded stamp is stale and the next probe simply
        // reopens again — converging, never serving a torn view (the
        // reader itself only trusts committed generations).
        let meta = std::fs::metadata(path)?;
        let mtime = meta.modified().ok();
        let reader = ContainerReader::open_path(path)?;
        let file_len = reader.source().len();
        let generation = reader.generation();
        Ok(Snapshot { reader, file_len, mtime, generation })
    }
}

impl Hosted {
    fn open(path: PathBuf) -> stz_codec::Result<Hosted> {
        let snapshot = Snapshot::open(&path)?;
        Ok(Hosted { path, current: RwLock::new(Arc::new(snapshot)) })
    }

    /// Pin the current generation, reopening first if the file changed on
    /// disk (length or mtime — covering both in-place commits and the
    /// compaction rename). If a reopen fails mid-mutation, the previous
    /// snapshot keeps serving: readers never lose a committed generation.
    fn pin(&self) -> Arc<Snapshot> {
        let current = self.current.read().expect("snapshot lock poisoned").clone();
        let Ok(meta) = std::fs::metadata(&self.path) else { return current };
        let (len, mtime) = (meta.len(), meta.modified().ok());
        if len == current.file_len && mtime == current.mtime {
            return current;
        }
        let mut slot = self.current.write().expect("snapshot lock poisoned");
        // Another request may have reopened while this one waited.
        if len == slot.file_len && mtime == slot.mtime {
            return slot.clone();
        }
        match Snapshot::open(&self.path) {
            Ok(next) => {
                log_debug!("stz-serve", "reopened changed container";
                    "path" => self.path.display(), "generation" => next.generation);
                *slot = Arc::new(next);
            }
            Err(e) => {
                static REOPEN_LOGS: LogLimiter = LogLimiter::new(1_000);
                if let Some(suppressed) = REOPEN_LOGS.permit() {
                    log_warn!("stz-serve", "cannot reopen changed container, serving pinned generation: {e}";
                        "path" => self.path.display(), "suppressed" => suppressed);
                }
            }
        }
        slot.clone()
    }
}

/// Request-kind labels used on the per-kind metrics; the last entry is
/// the bucket for frame types this server does not recognize.
const KIND_LABELS: [&str; 10] = [
    "list",
    "inspect",
    "stats",
    "metrics",
    "trace",
    "full",
    "roi",
    "progressive",
    "raw",
    "unknown",
];

/// Telemetry handles for one request kind.
#[derive(Debug)]
struct KindMetrics {
    requests: Arc<Counter>,
    latency: Arc<Histogram>,
    bytes: Arc<Histogram>,
}

/// All server-side telemetry handles, resolved once at bind time so the
/// request path never touches the registry lock.
#[derive(Debug)]
struct ServeMetrics {
    /// Parallel to [`KIND_LABELS`].
    kinds: Vec<KindMetrics>,
    connections_total: Arc<Counter>,
    connections_active: Arc<Gauge>,
    connections_rejected: Arc<Counter>,
    decode_ns: Arc<Histogram>,
}

impl ServeMetrics {
    fn resolve(reg: &Registry) -> ServeMetrics {
        ServeMetrics {
            kinds: KIND_LABELS
                .iter()
                .map(|kind| KindMetrics {
                    requests: reg.counter("stzp_requests_total", &[("kind", kind)]),
                    latency: reg.latency("stzp_request_latency_ns", &[("kind", kind)]),
                    bytes: reg.histogram("stzp_response_bytes", &[("kind", kind)], 64),
                })
                .collect(),
            connections_total: reg.counter("stzp_connections_total", &[]),
            connections_active: reg.gauge("stzp_connections_active", &[]),
            connections_rejected: reg.counter("stzp_connections_rejected_total", &[]),
            decode_ns: reg.latency("stz_serve_decode_ns", &[]),
        }
    }

    fn kind(&self, label: &str) -> &KindMetrics {
        let i = KIND_LABELS.iter().position(|k| *k == label).unwrap_or(KIND_LABELS.len() - 1);
        &self.kinds[i]
    }
}

/// State shared by the accept loop and every connection thread.
#[derive(Debug)]
struct ServerState {
    containers: BTreeMap<String, Hosted>,
    cache: DecodedCache,
    /// Width of the pool a fetch decodes on (`0`: the default width).
    threads: usize,
    /// Misses decoding now, which share the pool's width.
    decoding: AtomicUsize,
    requests: AtomicU64,
    active: AtomicUsize,
    max_conns: usize,
    read_timeout: Option<Duration>,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
}

/// A bound (but not yet accepting) archive server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Open every container under `opts.root` and bind the listen socket.
    ///
    /// Unreadable or corrupt `.stzc` files are skipped with a warning on
    /// stderr — one bad file must not take the whole archive service
    /// down. Hosting an empty directory is allowed (the server answers
    /// `LIST` with nothing).
    pub fn bind(opts: ServeOptions) -> Result<Server> {
        // Resolve SIMD dispatch up front so the stz_simd_dispatch gauge is
        // in every `stz stats` exposition, not only after the first decode.
        let lane = stz_simd::announce();
        log_debug!("stz-serve", "simd dispatch resolved"; "lane" => lane.name());
        let containers = scan_containers(&opts.root)?;
        let listener = TcpListener::bind(&opts.addr)?;
        let cache = DecodedCache::new(opts.cache_bytes);
        cache.register_metrics(stz_telemetry::global());
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                containers,
                cache,
                threads: opts.threads,
                decoding: AtomicUsize::new(0),
                requests: AtomicU64::new(0),
                active: AtomicUsize::new(0),
                max_conns: opts.max_conns.max(1),
                read_timeout: opts.read_timeout,
                shutdown: AtomicBool::new(false),
                metrics: ServeMetrics::resolve(stz_telemetry::global()),
            }),
        })
    }

    /// The bound address (the real port when `addr` requested port 0).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Names of the hosted containers.
    pub fn container_names(&self) -> Vec<&str> {
        self.state.containers.keys().map(String::as_str).collect()
    }

    /// Serve until [`ServerHandle::stop`] is called (blocking). Accept
    /// and thread-spawn errors on individual connections are logged and
    /// survived — nothing a single peer does stops the accept loop.
    pub fn run(self) -> Result<()> {
        // Connections beyond `max_conns` get a short-lived thread whose
        // only job is to say `ERR BUSY`; beyond this extra headroom a
        // flood is shed by closing the socket without spawning anything,
        // so thread count stays bounded at max_conns + HEADROOM.
        const BUSY_HEADROOM: usize = 8;
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(e) => {
                    log_warn!("stz-serve", "accept failed: {e}");
                    continue;
                }
            };
            self.state.metrics.connections_total.inc();
            let peer = peer_label(&stream);
            // Claim the connection slot *before* spawning, so the cap is
            // enforced here, not in a thread that already exists.
            let active = self.state.active.fetch_add(1, Ordering::SeqCst) + 1;
            self.state.metrics.connections_active.inc();
            if active > self.state.max_conns + BUSY_HEADROOM {
                self.state.active.fetch_sub(1, Ordering::SeqCst);
                self.state.metrics.connections_active.dec();
                self.state.metrics.connections_rejected.inc();
                log_debug!("stz-serve", "shedding connection over busy headroom"; "peer" => peer);
                drop(stream);
                continue;
            }
            let busy = active > self.state.max_conns;
            let state = Arc::clone(&self.state);
            let spawned =
                std::thread::Builder::new().name("stz-serve-conn".into()).spawn(move || {
                    let _guard = ActiveGuard(&state);
                    handle_connection(&state, stream, busy);
                });
            if let Err(e) = spawned {
                self.state.active.fetch_sub(1, Ordering::SeqCst);
                self.state.metrics.connections_active.dec();
                log_warn!("stz-serve", "cannot spawn connection thread: {e}"; "peer" => peer);
            }
        }
        Ok(())
    }

    /// Run the accept loop on a background thread, returning a handle
    /// that stops it on [`ServerHandle::stop`] (or drop). This is how
    /// tests and the bench harness host a loopback server in-process.
    pub fn spawn(self) -> Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let join = std::thread::Builder::new()
            .name("stz-serve-accept".into())
            .spawn(move || {
                let _ = self.run();
            })
            .map_err(ServeError::Io)?;
        Ok(ServerHandle { addr, state, join: Some(join) })
    }
}

/// Handle to a running [`Server`]; stops it when dropped.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown and join the accept loop. In-flight connections
    /// finish their current request; no new connections are accepted.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(join) = self.join.take() else { return };
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = join.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Open the containers under `root` (or the single file `root`).
fn scan_containers(root: &Path) -> Result<BTreeMap<String, Hosted>> {
    let mut out = BTreeMap::new();
    let mut paths: Vec<PathBuf> = Vec::new();
    if root.is_file() {
        paths.push(root.to_path_buf());
    } else {
        for entry in std::fs::read_dir(root)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "stzc") {
                paths.push(path);
            }
        }
    }
    for path in paths {
        let Some(name) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
            continue;
        };
        match Hosted::open(path.clone()) {
            Ok(hosted) => {
                out.insert(name, hosted);
            }
            Err(e) => {
                log_warn!("stz-serve", "skipping unreadable container: {e}"; "path" => path.display())
            }
        }
    }
    Ok(out)
}

/// Decrement the active-connection count (and its gauge) when a
/// connection thread exits, however it exits.
struct ActiveGuard<'a>(&'a ServerState);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
        self.0.metrics.connections_active.dec();
    }
}

/// Count a miss among those decoding until it drops.
struct DecodingGuard<'a>(&'a ServerState);

impl<'a> DecodingGuard<'a> {
    /// Count the miss in, and return the width it decodes at: the pool's
    /// threads shared among the misses decoding now, this one among them,
    /// and never less than one. One miss alone runs on every thread; two
    /// clients' misses at once run on half each, where the pool's whole
    /// width for both would put twice the threads on the cores.
    fn enter(state: &'a ServerState) -> (Self, usize) {
        let decoding = state.decoding.fetch_add(1, Ordering::SeqCst) + 1;
        let threads = pool::with_threads(state.threads, pool::threads);
        (DecodingGuard(state), (threads / decoding).max(1))
    }
}

impl Drop for DecodingGuard<'_> {
    fn drop(&mut self) {
        self.0.decoding.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The peer address as a log label (`"?"` when the socket cannot say).
fn peer_label(stream: &TcpStream) -> String {
    stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into())
}

fn handle_connection(state: &ServerState, mut stream: TcpStream, busy: bool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(state.read_timeout);
    let _ = stream.set_write_timeout(state.read_timeout);
    if busy {
        state.metrics.connections_rejected.inc();
        log_debug!("stz-serve", "connection over limit answered BUSY";
            "peer" => peer_label(&stream));
        let payload = encode_err(err_code::BUSY, "server is at its connection limit");
        let _ = write_frame(&mut stream, FrameType::Err, &payload);
        return;
    }
    // Serve until the peer closes, a frame is malformed, or I/O fails.
    // Protocol violations get a best-effort ERR before the close so
    // well-meaning-but-buggy clients see *why*.
    if let Err(e) = serve_loop(state, &mut stream) {
        let (code, msg) = match &e {
            ServeError::Protocol(msg) => (err_code::BAD_REQUEST, msg.clone()),
            _ => {
                // I/O errors: the socket is gone, nothing to say to the
                // peer — note it for anyone watching at debug.
                log_debug!("stz-serve", "connection dropped: {e}"; "peer" => peer_label(&stream));
                return;
            }
        };
        // A misbehaving peer (or a port scanner) can produce these at
        // line rate; collapse the flood into one line per interval.
        static REJECT_LOGS: LogLimiter = LogLimiter::new(1_000);
        if let Some(suppressed) = REJECT_LOGS.permit() {
            log_warn!("stz-serve", "rejecting connection: {msg}";
                "peer" => peer_label(&stream), "suppressed" => suppressed);
        }
        let _ = write_frame(&mut stream, FrameType::Err, &encode_err(code, &msg));
    }
}

fn serve_loop(state: &ServerState, stream: &mut TcpStream) -> Result<()> {
    // Handshake first: HELLO in, HELLO_OK out.
    let Some(hello) = read_frame(stream)? else { return Ok(()) };
    if hello.frame_type() != Some(FrameType::Hello) {
        return Err(ServeError::protocol("expected HELLO as the first frame"));
    }
    let client_version = *hello.payload.first().unwrap_or(&0);
    if client_version != PROTO_VERSION {
        let payload = encode_err(
            err_code::UNSUPPORTED,
            &format!("client speaks STZP v{client_version}, server speaks v{PROTO_VERSION}"),
        );
        write_frame(stream, FrameType::Err, &payload)?;
        return Ok(());
    }
    let mut hello_ok = Enc::new();
    hello_ok.u8(PROTO_VERSION);
    hello_ok.string(concat!("stz-serve/", env!("CARGO_PKG_VERSION")));
    write_frame(stream, FrameType::HelloOk, &hello_ok.finish())?;

    let peer = peer_label(stream);
    while let Some(frame) = read_frame(stream)? {
        state.requests.fetch_add(1, Ordering::Relaxed);
        dispatch(state, stream, frame, &peer)?;
    }
    Ok(())
}

/// A response body: a freshly encoded payload still to be framed, or a
/// whole frame (header included) shared with the cache.
enum Body {
    Owned(Vec<u8>),
    Cached(Arc<Vec<u8>>),
}

impl Body {
    fn payload_len(&self) -> usize {
        match self {
            Body::Owned(payload) => payload.len(),
            Body::Cached(frame) => frame.len() - FRAME_HEADER_LEN,
        }
    }
}

/// The metric `kind` label of one request frame (see [`KIND_LABELS`]).
fn frame_kind(frame: &Frame) -> &'static str {
    match frame.frame_type() {
        Some(FrameType::List) => "list",
        Some(FrameType::Inspect) => "inspect",
        Some(FrameType::Stats) => "stats",
        Some(FrameType::Metrics) => "metrics",
        Some(FrameType::TraceGet) => "trace",
        Some(FrameType::FetchFull) => "full",
        Some(FrameType::FetchRoi) => "roi",
        Some(FrameType::FetchProgressive) => "progressive",
        Some(FrameType::FetchRawSection) => "raw",
        _ => "unknown",
    }
}

/// Answer one request frame. Request-level failures are answered with
/// `ERR` and the connection stays up; only framing/socket failures
/// propagate and tear it down. Every reply — `ERR` included — flows
/// through this single write site, which records the request count,
/// wall-clock latency, and response size under the frame's `kind` label.
///
/// This is also where the request's trace root opens. Fetch payloads are
/// decoded *before* the root so the client's trace-context extension (if
/// any) can parent the server-side span tree under the client's ids; the
/// parse interval itself is then recorded as a leaf span (clamped to the
/// trace origin). `TRACE_GET` is served untraced — a trace of the trace
/// fetch would never be complete when it is snapshotted.
fn dispatch(state: &ServerState, stream: &mut TcpStream, frame: Frame, peer: &str) -> Result<()> {
    let kind_label = frame_kind(&frame);
    let m = state.metrics.kind(kind_label);
    m.requests.inc();
    let started = Instant::now();

    let fetch_req = match frame.frame_type() {
        Some(
            ft @ (FrameType::FetchFull
            | FrameType::FetchRoi
            | FrameType::FetchProgressive
            | FrameType::FetchRawSection),
        ) => Some(FetchReq::decode(ft, &frame.payload)?),
        _ => None,
    };
    let parsed = Instant::now();

    let link = fetch_req.as_ref().and_then(|r| r.trace).map(|t| (t.trace_id, t.parent_span));
    let mut guard = (frame.frame_type() != Some(FrameType::TraceGet))
        .then(|| trace::collector().start(kind_label, "request", link));
    if let Some(g) = guard.as_mut().filter(|g| g.is_active()) {
        g.attr("kind", kind_label);
        if let Some(req) = &fetch_req {
            g.attr("container", &req.container);
        }
        trace::record_span("connection", started, started, &[("peer", peer.to_string())]);
        trace::record_span(
            "parse",
            started,
            parsed,
            &[("payload_bytes", frame.payload.len().to_string())],
        );
    }

    let (reply, body) = respond(state, &frame, fetch_req.as_ref())?;

    let write_started = Instant::now();
    let result = match &body {
        Body::Owned(payload) => write_frame(stream, reply, payload),
        Body::Cached(frame) => stream.write_all(frame).map_err(ServeError::Io),
    };
    if let Some(g) = guard.as_mut().filter(|g| g.is_active()) {
        trace::record_span(
            "write",
            write_started,
            Instant::now(),
            &[("bytes", body.payload_len().to_string())],
        );
        if reply == FrameType::Err || result.is_err() {
            g.set_error();
        }
    }
    m.latency.record_duration(started.elapsed());
    m.bytes.record(body.payload_len() as u64);
    result
}

/// Build the reply to one request frame. Fetch requests arrive
/// pre-decoded from [`dispatch`] (their payload carries the trace link).
fn respond(
    state: &ServerState,
    frame: &Frame,
    fetch_req: Option<&FetchReq>,
) -> Result<(FrameType, Body)> {
    let err = |code: u16, msg: &str| Ok((FrameType::Err, Body::Owned(encode_err(code, msg))));
    match frame.frame_type() {
        Some(FrameType::List) => {
            let list: Vec<ContainerDesc> = state
                .containers
                .iter()
                .map(|(name, hosted)| {
                    let snapshot = hosted.pin();
                    ContainerDesc {
                        name: name.clone(),
                        entries: snapshot.reader.entry_count() as u32,
                        bytes: snapshot.file_len,
                    }
                })
                .collect();
            Ok((FrameType::ListOk, Body::Owned(encode_list(&list))))
        }
        Some(FrameType::Inspect) => {
            let mut d = crate::proto::Dec::new(&frame.payload);
            let name = d.string()?;
            d.expect_end()?;
            match state.containers.get(&name) {
                Some(hosted) => {
                    let entries = encode_inspect(hosted.pin().reader.descs());
                    Ok((FrameType::InspectOk, Body::Owned(entries)))
                }
                None => err(err_code::NOT_FOUND, &format!("no hosted container named {name:?}")),
            }
        }
        Some(FrameType::Stats) => {
            let c = state.cache.counters();
            let stats = ServerStats {
                requests: state.requests.load(Ordering::Relaxed),
                containers: state.containers.len() as u32,
                cache_hits: c.hits,
                cache_misses: c.misses,
                cache_evictions: c.evictions,
                cache_entries: c.entries,
                cache_bytes: c.bytes,
                cache_capacity: c.capacity,
            };
            Ok((FrameType::StatsOk, Body::Owned(stats.encode())))
        }
        Some(FrameType::Metrics) => {
            let text = stz_telemetry::global().render();
            Ok((FrameType::MetricsOk, Body::Owned(encode_metrics_ok(&text))))
        }
        Some(FrameType::TraceGet) => {
            let d = crate::proto::Dec::new(&frame.payload);
            d.expect_end()?;
            let retained = trace::collector().snapshot();
            Ok((FrameType::TraceOk, Body::Owned(encode_trace_ok(&retained))))
        }
        Some(
            FrameType::FetchFull
            | FrameType::FetchRoi
            | FrameType::FetchProgressive
            | FrameType::FetchRawSection,
        ) => {
            let req = fetch_req.expect("dispatch decodes every fetch frame");
            match handle_fetch(state, req) {
                Ok(frame) => Ok((fetch_reply(&req.kind), Body::Cached(frame))),
                Err((code, msg)) => err(code, &msg),
            }
        }
        // HELLO twice, response types, or a frame type from the future:
        // answer ERR, keep the connection.
        _ => err(
            err_code::BAD_REQUEST,
            &format!("frame type 0x{:02x} is not a request this server knows", frame.kind),
        ),
    }
}

/// The frame type that answers a fetch of `kind`.
fn fetch_reply(kind: &RequestKind) -> FrameType {
    match kind {
        RequestKind::Raw => FrameType::RawOk,
        _ => FrameType::FetchOk,
    }
}

/// Serve one fetch: resolve and check it, consult the cache, decode on a
/// miss. The answer is the whole response frame, header included.
fn handle_fetch(
    state: &ServerState,
    req: &FetchReq,
) -> std::result::Result<Arc<Vec<u8>>, (u16, String)> {
    let hosted = state.containers.get(&req.container).ok_or_else(|| {
        (err_code::NOT_FOUND, format!("no hosted container named {:?}", req.container))
    })?;
    // Pin one generation for the whole request: resolve, cache lookup, and
    // decode all read the same committed view even if a writer commits or
    // compacts concurrently.
    let snapshot = hosted.pin();
    let reader = &snapshot.reader;
    let desc = resolve_sel(reader.descs(), &req.entry).map_err(refused)?;
    let Some(fetch) = req.kind.fetch() else {
        return Err((err_code::BAD_REQUEST, "empty or inverted ROI bounds".into()));
    };
    // Check the request *before* touching the cache so malformed requests
    // are cheap and never occupy a slot.
    validate_fetch(&fetch, desc).map_err(refused)?;
    // Every kind's size is known from the index: refuse a response the
    // frame cap cannot carry before decoding anything.
    fits_frame(&fetch, desc)?;

    let key = CacheKey {
        container: req.container.clone(),
        generation: snapshot.generation,
        entry: desc.index,
        kind: req.kind,
    };
    let cached = {
        let mut cache_span = trace::span("cache");
        let cached = state.cache.get(&key);
        cache_span.attr("hit", cached.is_some());
        cached
    };
    if let Some(cached) = cached {
        return Ok(cached);
    }

    // The frame is made when the fetch knows its answer's size, and the
    // answer is decoded (or a raw payload read) into it.
    let mut response = None;
    {
        let _decode = state.metrics.decode_ns.span();
        let mut decode_span = trace::span("decode");
        let (_decoding, width) = DecodingGuard::enter(state);
        decode_span.attr("width", width);
        pool::with_threads(width, || {
            reader.fetch_le(desc.index as usize, &fetch, |dims, len| {
                let mut encode_span = trace::span("encode");
                let reply = fetch_reply(&req.kind);
                if req.kind == RequestKind::Raw {
                    encode_span.attr("bytes", len);
                    return response.insert(Enc::framed_zeroed(reply, len)).payload_mut();
                }
                encode_span.attr("bytes", FETCH_HEAD_LEN);
                let response = response.insert(Enc::framed_zeroed(reply, FETCH_HEAD_LEN + len));
                let (head, scalars) = response.payload_mut().split_at_mut(FETCH_HEAD_LEN);
                head.copy_from_slice(&FetchedField::head(req.kind.tag(), desc.type_tag, dims));
                scalars
            })
        })
    }
    .map_err(|e| stream_err(&e))?;
    let response = response.expect("a fetch asked for its frame");
    let frame = response.finish_frame().map_err(|e| (err_code::INTERNAL, e.to_string()))?;
    let frame = Arc::new(frame);
    state.cache.insert(key, Arc::clone(&frame));
    Ok(frame)
}

/// Map a refused fetch to the `ERR` code of its class.
fn refused(r: Refusal) -> (u16, String) {
    match r {
        Refusal::NotFound(msg) => (err_code::NOT_FOUND, msg),
        Refusal::BadRequest(msg) => (err_code::BAD_REQUEST, msg),
        Refusal::Unsupported(msg) => (err_code::UNSUPPORTED, msg),
    }
}

/// Refuse a fetch of `desc` whose response payload the frame cap cannot
/// carry, from the entry's index alone. A preview's dims are its level's in
/// the plan; a level the entry does not have has no size here, and
/// [`validate_fetch`] refuses it first.
fn fits_frame(fetch: &Fetch, desc: &EntryDesc) -> std::result::Result<(), (u16, String)> {
    let bytes_per = if desc.type_tag == 0 { 4 } else { 8 };
    let scalars = |points: usize| FETCH_HEAD_LEN as u64 + points as u64 * bytes_per;
    let payload = match fetch {
        Fetch::RawSection(_) => desc.compressed_len,
        Fetch::Full => scalars(desc.dims.len()),
        Fetch::Region(region) => scalars(region.len()),
        Fetch::Level(k) | Fetch::Progressive(k) if (1..=desc.levels).contains(k) => {
            scalars(LevelPlan::new(desc.dims, desc.levels).preview_dims(*k).len())
        }
        Fetch::Level(_) | Fetch::Progressive(_) => return Ok(()),
    };
    if payload > MAX_FRAME_PAYLOAD as u64 {
        return Err((
            err_code::UNSUPPORTED,
            format!(
                "response of {payload} bytes exceeds the {MAX_FRAME_PAYLOAD} byte frame cap; \
                 fetch an ROI or a preview level instead"
            ),
        ));
    }
    Ok(())
}

/// Map a hosted container's failure to an `ERR` code, by its class, and a
/// message.
fn stream_err(e: &CodecError) -> (u16, String) {
    let code = match e {
        CodecError::Unsupported(_) => err_code::UNSUPPORTED,
        CodecError::Corrupt(_) | CodecError::UnexpectedEof { .. } => err_code::CORRUPT,
        CodecError::Io { .. } => err_code::INTERNAL,
    };
    (code, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stz_field::{Dims, Region};

    #[test]
    fn every_kind_meets_the_frame_cap_before_it_decodes() {
        let cap = MAX_FRAME_PAYLOAD as u64;
        let head = FETCH_HEAD_LEN as u64;
        // An f32 entry of `dims` in `levels` levels (0: a foreign codec's),
        // whose payload is `compressed_len` bytes.
        let desc = |dims, type_tag, levels, compressed_len| EntryDesc {
            index: 0,
            name: "e".into(),
            codec_id: if levels > 0 { stz_backend::id::STZ } else { stz_backend::id::ZFP },
            type_tag,
            dims,
            eb: 1e-3,
            compressed_len,
            payload_crc: 0,
            sections: 1,
            levels,
            interp: 0,
            level_bytes: Vec::new(),
        };
        // The f32 answer whose FETCH_OK payload is the cap exactly; a point
        // fewer and a point more sit a scalar either side of it.
        let at_cap = ((cap - head) / 4) as usize;
        assert_eq!(head + 4 * at_cap as u64, cap);
        let refused = |payload: u64| {
            let message = format!(
                "response of {payload} bytes exceeds the {cap} byte frame cap; \
                 fetch an ROI or a preview level instead"
            );
            Err((err_code::UNSUPPORTED, message))
        };
        for (n, payload) in [(at_cap - 1, cap - 4), (at_cap, cap), (at_cap + 1, cap + 4)] {
            let want = if payload <= cap { Ok(()) } else { refused(payload) };
            let full = fits_frame(&Fetch::Full, &desc(Dims::d1(n), 0, 3, 0));
            assert_eq!(full, want, "full of {n} points");
            let roi = Fetch::Region(Region::d1(7..7 + n));
            assert_eq!(fits_frame(&roi, &desc(Dims::d1(n + 9), 0, 3, 0)), want, "roi of {n}");
            // Level 2 of 3 keeps every other point of a line.
            let level = fits_frame(&Fetch::Level(2), &desc(Dims::d1(2 * n - 1), 0, 3, 0));
            assert_eq!(level, want, "level 2 of {n} points");
            // f64 scalars never land on the cap: a point either side of it.
            let n64 = n / 2;
            let want =
                if head + 8 * n64 as u64 <= cap { Ok(()) } else { refused(head + 8 * n64 as u64) };
            assert_eq!(fits_frame(&Fetch::Full, &desc(Dims::d1(n64), 1, 3, 0)), want);
        }
        for (len, want) in [(cap - 1, Ok(())), (cap, Ok(())), (cap + 1, refused(cap + 1))] {
            let raw = fits_frame(&Fetch::RawSection(0), &desc(Dims::d1(4), 0, 3, len));
            assert_eq!(raw, want, "raw payload of {len} bytes");
        }
        // Without a size in the index — a level the entry lacks (a bad
        // request), a preview of a foreign entry (unsupported), both refused
        // before this check — the cap refuses nothing.
        let huge = Dims::d1(4 * at_cap);
        for (k, levels) in [(4, 3), (1, 0)] {
            assert_eq!(fits_frame(&Fetch::Level(k), &desc(huge, 0, levels, 0)), Ok(()));
        }
    }

    #[test]
    fn stream_err_codes_follow_the_codec_error_class() {
        let io = CodecError::Io { kind: std::io::ErrorKind::Other, message: "disk".into() };
        let table = [
            (CodecError::unsupported("zfp format version 99"), err_code::UNSUPPORTED),
            (CodecError::corrupt("footer checksum mismatch"), err_code::CORRUPT),
            (CodecError::UnexpectedEof { context: "header" }, err_code::CORRUPT),
            (io, err_code::INTERNAL),
        ];
        for (e, want) in table {
            assert_eq!(stream_err(&e), (want, e.to_string()), "{e:?}");
        }
    }

    #[test]
    fn misses_decoding_at_once_share_the_width() {
        let root = std::env::temp_dir().join(format!("stz-serve-width-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let server =
            Server::bind(ServeOptions { root: root.clone(), threads: 4, ..Default::default() });
        std::fs::remove_dir_all(&root).unwrap();
        let state = &server.unwrap().state;
        let (first, width) = DecodingGuard::enter(state);
        assert_eq!(width, 4, "a miss alone decodes on every thread");
        let (second, width) = DecodingGuard::enter(state);
        assert_eq!(width, 2);
        let more: Vec<usize> = (0..4).map(|_| DecodingGuard::enter(state)).map(|g| g.1).collect();
        assert_eq!(more, [1, 1, 1, 1], "each dropped as it is made: three decode at a time");
        drop((first, second));
        assert_eq!(DecodingGuard::enter(state).1, 4, "a miss that ends leaves the count");
    }
}
