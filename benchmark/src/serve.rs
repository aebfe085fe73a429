//! `serve_cold` and `serve_hot`: an in-process `Server` on a loopback port
//! under two blocking `RemoteStore` clients (closed loop, one connection
//! each). Cold runs with the cache off, so every request decodes; hot keeps
//! its 88 keys resident, so no request does.

use crate::local_codec::{error_bound, honours_bound, FIELD_SEED};
use crate::report::{EndToEnd, Outcome, Tally};
use crate::trace::{Phase, Tracer};
use crate::util::{digest, geomean, median, quantile_of, timed, Rng};
use crate::{windows, Ctx, WindowStats};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;
use stz::access::{Entry, EntrySel, Fetch, FileStore, MemStore, RemoteStore, Store};
use stz::core::{StzCompressor, StzConfig};
use stz::data::{metrics::max_abs_error, synth};
use stz::field::{Dims, Field, Region};
use stz::serve::{Client, ServeOptions, Server, ServerHandle};
use stz::stream::{pack_pipelined, ContainerReader, PackEntry};

/// Name of the hosted container (the file stem).
const CONTAINER: &str = "bench";

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Kind {
    Roi,
    Preview,
    Level1,
    Full,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Roi => "roi",
            Kind::Preview => "preview",
            Kind::Level1 => "level1",
            Kind::Full => "full",
        }
    }
}

pub struct Spec {
    /// Clients, each a thread with one connection.
    clients: usize,
    /// Edge of every (cubic, f32) entry.
    edge: usize,
    /// Entries, alternating `nyx_like` and `magrec_like`.
    entries: usize,
    /// `None` keeps the server's default cache; `Some(0)` turns it off.
    cache_bytes: Option<u64>,
    /// Edge of the cube ROIs and how many distinct ones each entry has.
    roi_edge: usize,
    rois_per_entry: usize,
    /// Whether ROI offsets are multiples of `roi_edge`.
    aligned: bool,
    /// Requests of each kind in one shuffled round of one client.
    round: [(Kind, usize); 4],
    /// Whole rounds every client sends between two yardstick samples; the
    /// window is made of such slices, so the mix of a run is exact.
    rounds_per_slice: usize,
    /// Whether set-up touches every key from every client (fills the cache).
    touch_every_key: bool,
    /// Percentile of the ROI latencies reported as `roi_tail_ms`.
    tail_q: f64,
    /// Whether the window's timings are brought to the yardstick's reference
    /// speed. Not where every request is a hit: the yardstick's streaming
    /// and mapping parts slow down with resources a hit never touches, and
    /// the clock alone repeats better there (README.md).
    window_at_reference_speed: bool,
    set_up_reps: usize,
    /// Packs timed besides the ones the set-ups do, for `write_mbps`.
    extra_packs: usize,
}

/// Two 192^3 entries (28 MB each, 14x the 2 MiB L2), cache off, one client:
/// with two, what a request takes depends on what the other client's request
/// is doing to the same two cores (a preview beside a full fetch on the pool
/// takes twice what it takes beside an ROI), and the median preview of a run
/// moved by 30 % between runs. Not 256^3: a round would take 3 s and a window
/// hold six. 192^3 is still past the cliff that matters on this path - the
/// decoder's per-level f64 grids (57 MB) exceed glibc's 32 MiB mmap ceiling,
/// so every request maps, faults and unmaps them, which 128^3 entries never
/// do. A round is 12 ROIs (48^3, 1/64 of the volume), 8 half-resolution
/// previews, 5 level-1 previews and 1 full fetch; a run sees ~70 ROIs per
/// entry, so p90 keeps 7 samples beyond it.
pub const COLD: Spec = Spec {
    clients: 1,
    edge: 192,
    entries: 2,
    cache_bytes: Some(0),
    roi_edge: 48,
    rois_per_entry: 8,
    aligned: false,
    round: [(Kind::Roi, 12), (Kind::Preview, 8), (Kind::Level1, 5), (Kind::Full, 1)],
    rounds_per_slice: 1,
    touch_every_key: false,
    tail_q: 0.90,
    window_at_reference_speed: true,
    set_up_reps: 3,
    extra_packs: 8,
};

/// Eight 128^3 entries under the default 256 MiB cache; 11 keys per entry
/// (level 1, level 2, full, 8 tile-aligned 32^3 ROIs) hold ~85 MB decoded,
/// every value below the 32 MiB shard budget. Mix 70/20/8/2 %; ~900 ROI
/// samples per entry. The tail is p95, not p99: with four busy threads on
/// two cores the last percent is the scheduler's, and p99 moved by up to
/// 20 % between runs while p95 keeps ~45 samples beyond it.
pub const HOT: Spec = Spec {
    clients: 2,
    edge: 128,
    entries: 8,
    cache_bytes: None,
    roi_edge: 32,
    rois_per_entry: 8,
    aligned: true,
    round: [(Kind::Roi, 70), (Kind::Preview, 20), (Kind::Level1, 8), (Kind::Full, 2)],
    rounds_per_slice: 8,
    touch_every_key: true,
    tail_q: 0.95,
    window_at_reference_speed: false,
    set_up_reps: 3,
    extra_packs: 8,
};

/// One cacheable request: an entry and what to fetch from it.
#[derive(Clone)]
pub struct Key {
    pub entry: usize,
    pub kind: Kind,
    pub fetch: Fetch,
}

/// The inputs of a run: fields with their bounds, and the key universe.
pub struct Inputs {
    pub fields: Vec<(String, Field<f32>, f64)>,
    pub keys: Vec<Key>,
}

impl Inputs {
    pub fn raw_bytes(&self) -> usize {
        self.fields.iter().map(|(_, f, _)| f.nbytes()).sum()
    }

    fn keys_of(&self, kind: Kind) -> Vec<usize> {
        (0..self.keys.len()).filter(|&k| self.keys[k].kind == kind).collect()
    }
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    generate_cubes(spec.edge, spec.entries, spec.roi_edge, spec.rois_per_entry, spec.aligned, seed)
}

/// `entries` cubic fields (even ones `nyx_like`, odd ones `magrec_like`,
/// generated on two fresh threads from [`FIELD_SEED`]) and, per entry, the keys
/// full, level 2, level 1 and `rois` cube ROIs at offsets drawn from `seed`.
pub fn generate_cubes(
    edge: usize,
    entries: usize,
    roi_edge: usize,
    rois: usize,
    aligned: bool,
    seed: u64,
) -> Inputs {
    let dims = Dims::d3(edge, edge, edge);
    let mut field_rng = Rng::new(FIELD_SEED);
    let seeds: Vec<u64> = (0..entries).map(|_| field_rng.next_u64()).collect();
    let mut rng = Rng::new(seed);
    let make = |i: usize| {
        let field = match i % 2 {
            0 => synth::nyx_like(dims, seeds[i]),
            _ => synth::magrec_like(dims, seeds[i]),
        };
        let eb = error_bound(&field);
        (format!("t{i}"), field, eb)
    };
    let fields = std::thread::scope(|scope| {
        let odd = scope.spawn(|| (1..entries).step_by(2).map(make).collect::<Vec<_>>());
        let even = scope.spawn(|| (0..entries).step_by(2).map(make).collect::<Vec<_>>());
        let mut odd = odd.join().expect("generator thread").into_iter();
        let mut all = Vec::with_capacity(entries);
        for e in even.join().expect("generator thread") {
            all.push(e);
            all.extend(odd.next());
        }
        all
    });
    let mut keys = Vec::new();
    for entry in 0..entries {
        keys.push(Key { entry, kind: Kind::Full, fetch: Fetch::Full });
        keys.push(Key { entry, kind: Kind::Preview, fetch: Fetch::Level(2) });
        keys.push(Key { entry, kind: Kind::Level1, fetch: Fetch::Level(1) });
        for _ in 0..rois {
            let mut axis = || {
                let lo = if aligned {
                    rng.below(edge / roi_edge) * roi_edge
                } else {
                    rng.below(edge - roi_edge + 1)
                };
                lo..lo + roi_edge
            };
            let region = Region::d3(axis(), axis(), axis());
            keys.push(Key { entry, kind: Kind::Roi, fetch: Fetch::Region(region) });
        }
    }
    Inputs { fields, keys }
}

/// Compress every field into a container at `path`, one after the other on
/// this thread. Returns the seconds. Not on two threads: small entries then
/// vary 2x from one pack to the next and large ones get slower (README.md),
/// and `rayon-shim.pack_speedup` reports the two-thread ratio.
pub fn pack(tr: &mut Tracer, inputs: &Inputs, path: &Path) -> f64 {
    let fields = &inputs.fields;
    timed(|| {
        tr.call("stz-stream", "pack_pipelined", |_| {
            let file = std::fs::File::create(path).expect("create container");
            let out = std::io::BufWriter::new(file);
            let jobs: Vec<usize> = (0..fields.len()).collect();
            let mut out = pack_pipelined(out, jobs, 1, |i| {
                let (name, field, eb) = &fields[i];
                let archive = StzCompressor::new(StzConfig::three_level(*eb)).compress(field)?;
                Ok((name.clone(), PackEntry::from(archive)))
            })
            .expect("pack container");
            out.flush().expect("flush container");
        })
    })
    .1
}

/// A bound server with its clients connected and entries opened.
pub struct Hosted {
    pub handle: ServerHandle,
    pub addr: SocketAddr,
    pub path: PathBuf,
    /// Per client: its store and one opened handle per entry.
    pub clients: Vec<(RemoteStore, Vec<Box<dyn Entry>>)>,
}

impl Hosted {
    pub fn shut_down(self) {
        drop(self.clients);
        self.handle.stop();
        let _ = std::fs::remove_file(&self.path);
    }
}

pub fn bind(tr: &mut Tracer, root: &Path, cache_bytes: Option<u64>) -> (ServerHandle, SocketAddr) {
    tr.call("stz-serve", "Server::bind", |_| {
        let defaults = ServeOptions::default();
        let server = Server::bind(ServeOptions {
            root: root.to_path_buf(),
            cache_bytes: cache_bytes.unwrap_or(defaults.cache_bytes),
            ..defaults
        })
        .expect("bind loopback server");
        let addr = server.local_addr().expect("bound address");
        (server.spawn().expect("spawn accept loop"), addr)
    })
}

pub fn connect(tr: &mut Tracer, addr: SocketAddr, container: &str) -> RemoteStore {
    tr.call("stz-access", "RemoteStore::connect", |_| {
        RemoteStore::connect(addr.to_string().as_str(), container).expect("client connect")
    })
}

/// One whole set-up: pack, bind, connect, open, warm up.
fn set_up(spec: &Spec, inputs: &Inputs, dir: &Path, tr: &mut Tracer) -> (Hosted, f64) {
    let path = dir.join(format!("{CONTAINER}.stzc"));
    let pack_s = pack(tr, inputs, &path);
    let (handle, addr) = bind(tr, dir, spec.cache_bytes);
    let clients: Vec<(RemoteStore, Vec<Box<dyn Entry>>)> = (0..spec.clients)
        .map(|_| {
            let store = connect(tr, addr, CONTAINER);
            let entries = (0..inputs.fields.len() as u32)
                .map(|i| store.open(&EntrySel::Index(i)).expect("open remote entry"))
                .collect();
            (store, entries)
        })
        .collect();
    // Warm-up: the first request of each kind pays lazy initialisation; on
    // the hot workload every client also touches every key, filling the cache.
    for (c, (_, entries)) in clients.iter().enumerate() {
        let warm: Vec<&Key> = if spec.touch_every_key {
            inputs.keys.iter().collect()
        } else {
            [Kind::Roi, Kind::Preview, Kind::Level1, Kind::Full]
                .iter()
                .filter(|&&kind| kind != Kind::Full || c == 0)
                .filter_map(|&kind| inputs.keys.iter().find(|k| k.kind == kind))
                .collect()
        };
        for key in warm {
            tr.call("stz-access", "fetch", |_| {
                entries[key.entry].fetch(&key.fetch).expect("warm-up fetch")
            });
        }
    }
    (Hosted { handle, addr, path, clients }, pack_s)
}

/// Fetch latencies in ms by kind and group. Samples are grouped (by entry,
/// or by the generator of the entry's field) so that a quantile is taken
/// within a group and groups are combined by geometric mean.
#[derive(Default)]
pub struct Latencies(BTreeMap<(Kind, usize), Vec<f64>>);

impl Latencies {
    pub fn push(&mut self, kind: Kind, group: usize, ms: f64) {
        self.0.entry((kind, group)).or_default().push(ms);
    }

    fn merge(&mut self, other: Latencies) {
        for (key, samples) in other.0 {
            self.0.entry(key).or_default().extend(samples);
        }
    }

    fn of(&self, kinds: &[Kind]) -> impl Iterator<Item = &Vec<f64>> + '_ {
        let kinds = kinds.to_vec();
        self.0.iter().filter(move |((k, _), _)| kinds.contains(k)).map(|(_, v)| v)
    }

    pub fn count(&self, kind: Kind) -> usize {
        self.of(&[kind]).map(Vec::len).sum()
    }

    /// Geometric mean over the groups of `kind` of each group's `q`-quantile.
    pub fn quantile(&self, kind: Kind, q: f64) -> f64 {
        geomean(self.of(&[kind]).map(|samples| quantile_of(samples, q)))
    }

    /// Mean over every sample of `kinds`; 0 when there is none.
    fn mean(&self, kinds: &[Kind]) -> f64 {
        let n: usize = self.of(kinds).map(Vec::len).sum();
        self.of(kinds).flatten().sum::<f64>() / n.max(1) as f64
    }
}

/// What one client saw in one window.
#[derive(Default)]
struct ClientLog {
    latency: Latencies,
    /// Digest of the payload each key returned.
    digests: BTreeMap<usize, u64>,
    bytes: u64,
    requests: u64,
    tally: Tally,
}

/// Server-side counters read over the wire around a window.
#[derive(Clone, Default)]
pub struct ServerView {
    pub hits: u64,
    pub misses: u64,
    pub rejects: f64,
    /// `stzp_request_latency_ns` sum and count by the server's kind label.
    pub latency: BTreeMap<&'static str, (f64, f64)>,
}

pub fn server_view(addr: SocketAddr) -> ServerView {
    let mut client = Client::connect(addr).expect("stats connection");
    let stats = client.stats().expect("STATS");
    let text = client.metrics().expect("METRICS");
    let samples = stz::telemetry::expo::parse(&text).expect("server exposition parses");
    let value = |name: &str, labels: &[(&str, &str)]| {
        stz::telemetry::expo::sample_value(&samples, name, labels).unwrap_or(0.0)
    };
    let mut latency = BTreeMap::new();
    for kind in ["roi", "progressive", "full"] {
        let labels = [("kind", kind)];
        latency.insert(
            kind,
            (
                value("stzp_request_latency_ns_sum", &labels),
                value("stzp_request_latency_ns_count", &labels),
            ),
        );
    }
    ServerView {
        hits: stats.cache_hits,
        misses: stats.cache_misses,
        rejects: value("stzp_connections_rejected_total", &[]),
        latency,
    }
}

impl ServerView {
    /// Hit ratio of the lookups between `before` and `self`.
    pub fn hit_ratio_since(&self, before: &ServerView) -> f64 {
        let (hits, misses) = (self.hits - before.hits, self.misses - before.misses);
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Server-side mean latency in ms of `kind` between `before` and `self`.
    pub fn mean_ms_since(&self, before: &ServerView, kind: &str) -> f64 {
        let (sum, count) = self.latency.get(kind).copied().unwrap_or_default();
        let (sum0, count0) = before.latency.get(kind).copied().unwrap_or_default();
        if count > count0 {
            (sum - sum0) / (count - count0) / 1e6
        } else {
            0.0
        }
    }
}

/// Set the `stz-serve.*` per-layer metrics a workload with a server reports
/// from the server's counters around the window and the clients' latencies.
/// The server counts levels 1 and 2 together, so `preview` does here too.
pub fn set_server_layers(
    layers: &mut crate::report::Layers,
    before: &ServerView,
    after: &ServerView,
    clients: &Latencies,
) {
    layers.set("stz-serve.cache_hit_ratio", after.hit_ratio_since(before));
    layers.set("stz-serve.busy_rejects", after.rejects - before.rejects);
    let kinds: [(&str, &str, &[Kind]); 3] = [
        ("roi", "roi", &[Kind::Roi]),
        ("preview", "progressive", &[Kind::Preview, Kind::Level1]),
        ("full", "full", &[Kind::Full]),
    ];
    for (label, server_kind, client_kinds) in kinds {
        let server = after.mean_ms_since(before, server_kind);
        layers.set(&format!("stz-serve.server_mean_ms.{label}"), server);
        let gap = clients.mean(client_kinds) - server;
        layers.set(&format!("stz-serve.client_minus_server_ms.{label}"), gap);
    }
}

/// One client's closed loop for one slice: whole shuffled rounds of the
/// spec's mix, each response timed (and the time divided by `slowdown`),
/// digested and compared with what the same key returned before.
fn client_slice(
    spec: &Spec,
    inputs: &Inputs,
    entries: &[Box<dyn Entry>],
    slowdown: f64,
    rng: &mut Rng,
    tr: &mut Tracer,
    log: &mut ClientLog,
) {
    let by_kind: Vec<(Vec<usize>, usize)> =
        spec.round.iter().map(|&(kind, n)| (inputs.keys_of(kind), n)).collect();
    for _ in 0..spec.rounds_per_slice {
        let mut round: Vec<usize> = Vec::new();
        for (keys, n) in &by_kind {
            round.extend((0..*n).map(|_| keys[rng.below(keys.len())]));
        }
        rng.shuffle(&mut round);
        for k in round {
            let key = &inputs.keys[k];
            tr.call("bench", key.kind.name(), |tr| {
                let (fetched, secs) = timed(|| {
                    tr.call("stz-access", "fetch", |_| entries[key.entry].fetch(&key.fetch))
                });
                log.requests += 1;
                match fetched {
                    Ok(fetched) => {
                        log.latency.push(key.kind, key.entry, secs * 1e3 / slowdown);
                        log.bytes += fetched.data.len() as u64;
                        let d = digest(&fetched.data);
                        let same = *log.digests.entry(k).or_insert(d) == d;
                        log.tally
                            .check(same, || format!("key {k} changed its bytes between fetches"));
                    }
                    Err(e) => {
                        log.tally.fail(format!("{} of entry {}: {e}", key.kind.name(), key.entry))
                    }
                }
            });
        }
    }
}

/// What a cube ROI takes when two clients ask at once over what it takes one
/// client alone, on the clock: the one-client workload's traced runs keep
/// this in sight, because the end-to-end metrics no longer can (two clients
/// time each other; see [`COLD`]). 1 would be two cores serving two requests
/// side by side; 2 one core's worth.
fn two_clients_over_one(inputs: &Inputs, addr: SocketAddr) -> f64 {
    const FETCHES: usize = 12;
    let rois = inputs.keys_of(Kind::Roi);
    let median_ms = |clients: usize| {
        let mut ms: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let rois = &rois;
                    scope.spawn(move || {
                        let store = connect(&mut Tracer::new(false), addr, CONTAINER);
                        let mut rng = Rng::new(0x2C11 + c as u64);
                        let mut ms = Vec::with_capacity(FETCHES);
                        for _ in 0..FETCHES {
                            let key = &inputs.keys[rois[rng.below(rois.len())]];
                            let entry = store.open(&EntrySel::Index(key.entry as u32));
                            let fetched = timed(|| entry.and_then(|e| e.fetch(&key.fetch)));
                            fetched.0.expect("ROI fetch");
                            ms.push(fetched.1 * 1e3);
                        }
                        ms
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
        });
        median(&mut ms)
    };
    let alone = median_ms(1);
    median_ms(2) / alone
}

/// Reference answers: every key that was fetched is decoded from resident
/// archives (`MemStore`) and from the container file (`FileStore`), on one
/// thread each; both must digest to what the clients received, and the full
/// decode must honour the error bound.
fn verify(inputs: &Inputs, path: &Path, seen: &BTreeMap<usize, u64>, tally: &mut Tally) {
    let reader = ContainerReader::open_path(path).expect("reopen container");
    let mut mem = MemStore::new();
    for (i, (name, _, _)) in inputs.fields.iter().enumerate() {
        let archive = reader.entry::<f32>(i).and_then(|e| e.read_archive()).expect("read archive");
        mem.add(name, archive);
    }
    let file = FileStore::open_path(path).expect("open container as a FileStore");
    let answers = |store: &dyn Store, check_bound: bool| {
        let mut tally = Tally::default();
        for (&k, &want) in seen {
            let key = &inputs.keys[k];
            let fetched = store
                .open(&EntrySel::Index(key.entry as u32))
                .and_then(|entry| entry.fetch(&key.fetch));
            match fetched {
                Ok(fetched) => {
                    tally.check(digest(&fetched.data) == want, || {
                        format!("{} answers key {k} with other bytes", store.locate())
                    });
                    if check_bound && key.kind == Kind::Full {
                        let (_, original, eb) = &inputs.fields[key.entry];
                        let decoded = fetched.into_field::<f32>().expect("f32 entry");
                        let err = max_abs_error(original, &decoded);
                        tally.check(honours_bound(err, *eb), || {
                            format!("entry {} decodes with error {err:e} above {eb:e}", key.entry)
                        });
                    }
                }
                Err(e) => tally.fail(format!("{} key {k}: {e}", store.locate())),
            }
        }
        tally
    };
    let (from_mem, from_file) = std::thread::scope(|scope| {
        let file_side = scope.spawn(|| answers(&file, false));
        (answers(&mem, true), file_side.join().expect("verifier thread"))
    });
    tally.merge(from_mem);
    tally.merge(from_file);
}

pub fn run(spec: &Spec, ctx: &mut Ctx) -> Outcome {
    let mut tally = Tally::default();
    let (inputs, generate_s) = timed(|| generate(spec, ctx.seed));
    let dir = ctx.scratch.path().to_path_buf();

    let mut set_up_s = Vec::new();
    let mut pack_s = Vec::new();
    let mut hosted = None;
    for _ in 0..spec.set_up_reps {
        if let Some(previous) = hosted.take() {
            Hosted::shut_down(previous);
        }
        ctx.yardstick.sample();
        let ((h, packed), secs) = timed(|| set_up(spec, &inputs, &dir, &mut ctx.tracer));
        set_up_s.push(ctx.yardstick.at_reference(secs));
        pack_s.push(ctx.yardstick.at_reference(packed));
        hosted = Some(h);
    }
    let hosted = hosted.expect("at least one set-up");
    // A pack takes a fraction of a set-up, so a few more make its median firm.
    for _ in 0..spec.extra_packs {
        ctx.yardstick.sample();
        let spare = dir.join("spare.tmp");
        let packed = pack(&mut ctx.tracer, &inputs, &spare);
        pack_s.push(ctx.yardstick.at_reference(packed));
        let _ = std::fs::remove_file(&spare);
    }
    let stored_bytes = std::fs::metadata(&hosted.path).expect("container metadata").len();

    let mut logs: Vec<ClientLog> = Vec::new();
    let mut views = (ServerView::default(), ServerView::default());
    let seed = ctx.seed;
    let mut window_no = 0u64;
    let (stats, overhead) = windows(ctx, |secs, tr, yard| {
        tr.set_phase(Phase::Window);
        window_no += 1;
        let before = server_view(hosted.addr);
        // Per client and window: its own request order, log and span recorder.
        let mut states: Vec<(Rng, ClientLog, Tracer)> = (0..spec.clients)
            .map(|c| {
                let rng = Rng::new(seed ^ ((c as u64 + 1) << 32) ^ (window_no << 48));
                (rng, ClientLog::default(), tr.fork(c as u32 + 1))
            })
            .collect();
        let mut wall_s = 0.0;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            let sampled = yard.sample();
            let slowdown = if spec.window_at_reference_speed { sampled } else { 1.0 };
            let slice = Instant::now();
            std::thread::scope(|scope| {
                for ((_, entries), (rng, log, tr)) in hosted.clients.iter().zip(&mut states) {
                    let inputs = &inputs;
                    scope
                        .spawn(move || client_slice(spec, inputs, entries, slowdown, rng, tr, log));
                }
            });
            wall_s += slice.elapsed().as_secs_f64() / slowdown;
        }
        views = (before, server_view(hosted.addr));
        logs.clear();
        for (_, log, child) in states {
            tr.absorb(child);
            logs.push(log);
        }
        WindowStats { ops: logs.iter().map(|l| l.requests).sum(), wall_s }
    });

    // Taken here so the reference decodes below do not count.
    let peak_heap_mb = crate::heap::peak_mb();

    // Pool the clients' samples per (kind, entry).
    let mut latency = Latencies::default();
    let mut seen: BTreeMap<usize, u64> = BTreeMap::new();
    let mut bytes = 0u64;
    for log in logs {
        latency.merge(log.latency);
        for (k, d) in log.digests {
            let same = *seen.entry(k).or_insert(d) == d;
            tally.check(same, || format!("the two clients got different bytes for key {k}"));
        }
        bytes += log.bytes;
        tally.merge(log.tally);
    }
    let hit_ratio = views.1.hit_ratio_since(&views.0);
    if spec.cache_bytes == Some(0) {
        tally.check(views.1.hits == views.0.hits, || {
            format!("cache is off but the server reports hit ratio {hit_ratio}")
        });
    } else {
        tally.check(hit_ratio >= 0.99, || format!("hit ratio {hit_ratio} is below 0.99"));
    }
    verify(&inputs, &hosted.path, &seen, &mut tally);

    let end_to_end = EndToEnd {
        setup_s: median(&mut set_up_s),
        write_mbps: inputs.raw_bytes() as f64 / 1e6 / median(&mut pack_s),
        full_p50_ms: latency.quantile(Kind::Full, 0.5),
        preview_p50_ms: latency.quantile(Kind::Preview, 0.5),
        roi_p50_ms: latency.quantile(Kind::Roi, 0.5),
        roi_tail_ms: latency.quantile(Kind::Roi, spec.tail_q),
        read_mbps: bytes as f64 / 1e6 / stats.wall_s,
        ops_per_s: stats.ops as f64 / stats.wall_s,
        stored_ratio: stored_bytes as f64 / inputs.raw_bytes() as f64,
        peak_heap_mb,
    };
    for kind in [Kind::Roi, Kind::Preview, Kind::Level1, Kind::Full] {
        println!(
            "# {:<8} {} samples over {} entries, p10/p50/p90 {:.2}/{:.2}/{:.2} ms",
            kind.name(),
            latency.count(kind),
            inputs.fields.len(),
            latency.quantile(kind, 0.1),
            latency.quantile(kind, 0.5),
            latency.quantile(kind, 0.9),
        );
    }
    println!("# server-reported hit ratio in the window: {hit_ratio:.4}");
    let packs: Vec<String> = pack_s.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    println!("# pack ms, sorted: {}", packs.join(" "));

    let mut outcome = Outcome { tally, end_to_end, layers: Default::default() };
    if ctx.traced {
        set_server_layers(&mut outcome.layers, &views.0, &views.1, &latency);
        if spec.clients == 1 {
            let ratio = two_clients_over_one(&inputs, hosted.addr);
            outcome.layers.set("stz-serve.two_clients_roi_ratio", ratio);
        }
    }
    hosted.shut_down();
    drop(inputs);
    crate::finish_trace(ctx, &mut outcome, generate_s, stats, overhead);
    outcome
}
