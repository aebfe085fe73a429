//! `ingest_live`: one writer and one remote reader on the same growing file.
//! A single driver thread cycles `append_pipelined` (2 time steps of 128^3,
//! compressed inside the jobs on 2 threads) -> `commit` -> `refresh` -> a
//! half-resolution preview, a cube ROI and a full fetch of the newest entry
//! (first touch at the new generation) -> level 1 of entry 0 (unchanged, but
//! re-keyed by the generation). Afterwards every second batch is deleted and
//! the file is compacted and reopened.

use crate::local_codec::honours_bound;
use crate::report::{EndToEnd, Outcome, Tally};
use crate::serve::{self, Inputs, Kind, Latencies, ServerView};
use crate::trace::{Phase, Tracer};
use crate::util::{digest, median, quantile, timed, Rng};
use crate::{windows, Ctx, WindowStats};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use stz::access::{EntrySel, MemStore, RemoteStore, Store};
use stz::core::{StzArchive, StzCompressor, StzConfig};
use stz::data::metrics::max_abs_error;
use stz::mutate::{FileBacking, MutableContainer};
use stz::stream::{ContainerReader, PackEntry, StreamError};

/// Distinct fields, cycled under unique entry names.
const FIELDS: usize = 8;
const EDGE: usize = 128;
/// Cube ROI of 1/64 of the volume; each field has this many seed-drawn ones.
const ROI_EDGE: usize = 32;
const ROIS_PER_FIELD: usize = 4;
/// Time steps appended per cycle, and the threads compressing them.
const BATCH: usize = 2;
const CONTAINER: &str = "live";
const SET_UP_REPS: usize = 3;
/// Cycles between two yardstick samples (a cycle takes ~0.2 s).
const CYCLES_PER_SAMPLE: usize = 2;
/// ~50 ROI samples per generator in a run, so p90 keeps 5 beyond it.
const TAIL_Q: f64 = 0.90;

fn compress(inputs: &Inputs, field: usize) -> Result<StzArchive<f32>, StreamError> {
    let (_, data, eb) = &inputs.fields[field];
    Ok(StzCompressor::new(StzConfig::three_level(*eb)).compress(data)?)
}

/// The writer, the server over its directory and the one remote reader.
struct Live {
    container: MutableContainer<FileBacking>,
    handle: stz::serve::ServerHandle,
    addr: std::net::SocketAddr,
    store: RemoteStore,
    /// Time steps appended so far; step `n` holds field `n % FIELDS`.
    steps: usize,
    rng: Rng,
    /// The newest yardstick sample: every time measured is divided by it.
    slowdown: f64,
    /// What the current window has measured so far.
    log: Log,
    tally: Tally,
}

#[derive(Default)]
struct Log {
    ingest_s: Vec<f64>,
    commit_ms: Vec<f64>,
    /// Fetch latencies, grouped by the generator of the entry's field.
    latency: Latencies,
    /// Digest each (field, key) returned.
    digests: BTreeMap<(usize, usize), u64>,
    fetch_s: f64,
    fetch_bytes: u64,
    ops: u64,
}

impl Live {
    fn create(inputs: &Inputs, dir: &Path, tr: &mut Tracer, rng: Rng, slowdown: f64) -> Live {
        let path = dir.join(format!("{CONTAINER}.stzc"));
        let container = tr.call("stz-mutate", "MutableContainer::create", |_| {
            MutableContainer::create(FileBacking::create(&path).expect("create backing"))
                .expect("create container")
        });
        let mut live = {
            let mut container = container;
            let mut steps = 0;
            append_batch(&mut container, &mut steps, inputs, tr).expect("first batch");
            tr.call("stz-mutate", "commit", |_| container.commit()).expect("first commit");
            let (handle, addr) = serve::bind(tr, dir, None);
            let store = serve::connect(tr, addr, CONTAINER);
            let (log, tally) = Default::default();
            Live { container, handle, addr, store, steps, rng, slowdown, log, tally }
        };
        // One untimed cycle pays the lazy costs of every call in the loop.
        live.cycle(inputs, tr);
        live
    }

    /// Tear down; returns the checks made so far.
    fn shut_down(self, dir: &Path) -> Tally {
        drop(self.store);
        self.handle.stop();
        drop(self.container);
        let _ = std::fs::remove_file(dir.join(format!("{CONTAINER}.stzc")));
        self.tally
    }

    fn fetch(&mut self, index: usize, field: usize, key: usize, inputs: &Inputs, tr: &mut Tracer) {
        let (store, log, tally) = (&self.store, &mut self.log, &mut self.tally);
        let k = &inputs.keys[key];
        tr.call("bench", "fetch", |tr| {
            let (fetched, secs) = timed(|| {
                tr.call("stz-access", "fetch", |_| {
                    store.open(&EntrySel::Index(index as u32))?.fetch(&k.fetch)
                })
            });
            let secs = secs / self.slowdown;
            log.ops += 1;
            log.fetch_s += secs;
            match fetched {
                Ok(fetched) => {
                    log.latency.push(k.kind, field % 2, secs * 1e3);
                    log.fetch_bytes += fetched.data.len() as u64;
                    let d = digest(&fetched.data);
                    let same = *log.digests.entry((field, key)).or_insert(d) == d;
                    tally.check(same, || format!("field {field} key {key} changed its bytes"));
                }
                Err(e) => tally.fail(format!("fetch of entry {index}: {e}")),
            }
        });
    }

    fn cycle(&mut self, inputs: &Inputs, tr: &mut Tracer) {
        let generation = self.container.generation();
        let (appended, append_s) =
            timed(|| append_batch(&mut self.container, &mut self.steps, inputs, tr));
        let (committed, commit_s) =
            timed(|| tr.call("stz-mutate", "commit", |_| self.container.commit()));
        let (append_s, commit_s) = (append_s / self.slowdown, commit_s / self.slowdown);
        self.log.ops += 2;
        match (appended, committed) {
            (Ok(()), Ok(now)) => {
                self.log.ingest_s.push(append_s + commit_s);
                self.log.commit_ms.push(commit_s * 1e3);
                self.tally.ok();
                self.tally.check(now == generation + 1, || {
                    format!("commit moved the generation from {generation} to {now}")
                });
            }
            (Err(e), _) | (_, Err(e)) => {
                self.tally.fail(format!("append + commit: {e}"));
                self.tally.fail("commit skipped");
            }
        }

        let refreshed = tr.call("stz-access", "refresh", |_| self.store.refresh());
        self.log.ops += 1;
        match refreshed.and_then(|()| self.store.list()) {
            Ok(entries) => self.tally.check(entries.len() == self.steps, || {
                format!("reader lists {} entries after {} appends", entries.len(), self.steps)
            }),
            Err(e) => self.tally.fail(format!("refresh: {e}")),
        }

        // Keys of a field are laid out full, level 2, level 1, ROIs...
        let newest = self.steps - 1;
        let field = newest % FIELDS;
        let base = field * (3 + ROIS_PER_FIELD);
        let roi = base + 3 + self.rng.below(ROIS_PER_FIELD);
        for key in [base + 1, roi, base] {
            self.fetch(newest, field, key, inputs, tr);
        }
        self.fetch(0, 0, 2, inputs, tr);
    }
}

/// Append [`BATCH`] time steps, compressing inside the pipelined jobs.
fn append_batch(
    container: &mut MutableContainer<FileBacking>,
    steps: &mut usize,
    inputs: &Inputs,
    tr: &mut Tracer,
) -> Result<(), StreamError> {
    let jobs: Vec<usize> = (*steps..*steps + BATCH).collect();
    tr.call("stz-mutate", "append_pipelined", |_| {
        container.append_pipelined(jobs, BATCH, |n| {
            Ok((format!("s{n}"), PackEntry::from(compress(inputs, n % FIELDS)?)))
        })
    })?;
    *steps += BATCH;
    Ok(())
}

/// Delete every second batch (a batch holds one field of each generator, so
/// both kinds survive), compact, reopen, and compare what survives with
/// controls that never went through a mutable container.
fn compact_and_verify(mut live: Live, inputs: &Inputs, dir: &Path) -> (f64, Tally) {
    let controls: Vec<StzArchive<f32>> =
        (0..FIELDS).map(|f| compress(inputs, f).expect("control compress")).collect();

    let deleted = |step: usize| step / BATCH % 2 == 1;
    for step in (0..live.steps).filter(|&s| deleted(s)) {
        live.container.delete(&format!("s{step}")).expect("delete");
    }
    live.container.commit().expect("commit deletions");
    let before = live.container.generation();
    let stats = live.container.compact().expect("compact");
    let Live { container, handle, mut store, steps, log, mut tally, .. } = live;
    drop(container);
    tally.check(stats.generation == before + 1 && stats.reclaimed_bytes > 0, || {
        format!(
            "compaction went from generation {before} to {} and reclaimed {} bytes",
            stats.generation, stats.reclaimed_bytes
        )
    });

    let path = dir.join(format!("{CONTAINER}.stzc"));
    let reader = ContainerReader::open_path(&path).expect("reopen compacted container");
    let surviving: Vec<usize> = (0..steps).filter(|&s| !deleted(s)).collect();
    let survivors = surviving.len();
    tally.check(
        reader.generation() == stats.generation
            && reader.entry_count() == survivors
            && reader.dead_payload_bytes() == 0,
        || {
            format!(
                "reopened at generation {} with {} entries and {} dead bytes; expected \
                 generation {} with {survivors} entries and none",
                reader.generation(),
                reader.entry_count(),
                reader.dead_payload_bytes(),
                stats.generation
            )
        },
    );
    let mut live_raw = 0usize;
    for (i, &step) in surviving.iter().enumerate().take(reader.entry_count()) {
        let name = reader.entry_meta(i).map(|m| m.name().to_string()).unwrap_or_default();
        let payload = reader.entry::<f32>(i).and_then(|e| e.read_payload());
        let control = controls[step % FIELDS].as_bytes();
        tally.check(name == format!("s{step}") && payload.is_ok_and(|p| p == control), || {
            format!("entry {i} ({name}) differs from the never-mutated control of step {step}")
        });
        live_raw += inputs.fields[step % FIELDS].1.nbytes();
    }
    let stored_ratio =
        std::fs::metadata(&path).expect("container metadata").len() as f64 / live_raw as f64;

    // The server reopens the renamed file; the reader must see the survivors.
    let listed = store.refresh().and_then(|()| store.list());
    tally.check(listed.is_ok_and(|l| l.len() == survivors), || {
        "the remote reader does not list the compacted entries".to_string()
    });

    // Every answer the reader got during the run, against resident controls.
    let mut mem = MemStore::new();
    for (f, control) in controls.into_iter().enumerate() {
        mem.add(&format!("c{f}"), control);
    }
    for (&(field, key), &want) in &log.digests {
        let k = &inputs.keys[key];
        let answer = mem.open(&EntrySel::Index(field as u32)).and_then(|e| e.fetch(&k.fetch));
        match answer {
            Ok(answer) => {
                tally.check(digest(&answer.data) == want, || {
                    format!("field {field} key {key}: the served bytes differ from the control's")
                });
                if k.kind == Kind::Full {
                    let (_, original, eb) = &inputs.fields[field];
                    let err = max_abs_error(original, &answer.into_field::<f32>().expect("f32"));
                    tally.check(honours_bound(err, *eb), || {
                        format!("field {field} decodes with error {err:e} above {eb:e}")
                    });
                }
            }
            Err(e) => tally.fail(format!("control fetch of field {field} key {key}: {e}")),
        }
    }
    drop(store);
    handle.stop();
    (stored_ratio, tally)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let (inputs, generate_s) =
        timed(|| serve::generate_cubes(EDGE, FIELDS, ROI_EDGE, ROIS_PER_FIELD, false, ctx.seed));
    let dir = ctx.scratch.path().to_path_buf();

    let mut set_up_s = Vec::new();
    let mut discarded = Tally::default();
    let mut live = None;
    for rep in 0..SET_UP_REPS {
        if let Some(previous) = live.take() {
            discarded.merge(Live::shut_down(previous, &dir));
        }
        let rng = Rng::new(ctx.seed ^ (0x1_4E57 + rep as u64));
        let slowdown = ctx.yardstick.sample();
        let (created, secs) = timed(|| Live::create(&inputs, &dir, &mut ctx.tracer, rng, slowdown));
        set_up_s.push(secs / slowdown);
        live = Some(created);
    }
    let mut live = live.expect("SET_UP_REPS > 0");
    live.tally.merge(discarded);

    let mut views = (ServerView::default(), ServerView::default());
    let (stats, overhead) = windows(ctx, |secs, tr, yard| {
        tr.set_phase(Phase::Window);
        live.log = Log::default();
        let before = serve::server_view(live.addr);
        let mut wall_s = 0.0;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            live.slowdown = yard.sample();
            let cycles = Instant::now();
            for _ in 0..CYCLES_PER_SAMPLE {
                live.cycle(&inputs, tr);
            }
            wall_s += cycles.elapsed().as_secs_f64() / live.slowdown;
        }
        views = (before, serve::server_view(live.addr));
        WindowStats { ops: live.log.ops, wall_s }
    });

    let log = &mut live.log;
    let raw_mb = inputs.fields[0].1.nbytes() as f64 / 1e6;
    let mut commit_ms = log.commit_ms.clone();
    let mut ingest_s = log.ingest_s.clone();
    let mut end_to_end = EndToEnd {
        setup_s: median(&mut set_up_s),
        write_mbps: BATCH as f64 * raw_mb / median(&mut ingest_s),
        full_p50_ms: log.latency.quantile(Kind::Full, 0.5),
        preview_p50_ms: log.latency.quantile(Kind::Preview, 0.5),
        roi_p50_ms: log.latency.quantile(Kind::Roi, 0.5),
        roi_tail_ms: log.latency.quantile(Kind::Roi, TAIL_Q),
        read_mbps: log.fetch_bytes as f64 / 1e6 / log.fetch_s,
        ops_per_s: stats.ops as f64 / stats.wall_s,
        stored_ratio: f64::NAN,
        // Taken here so compaction and the control decodes do not count.
        peak_heap_mb: crate::heap::peak_mb(),
    };
    let commit_p50_ms = median(&mut commit_ms);
    println!(
        "# {} cycles, {} time steps in the file, commit p50 {commit_p50_ms:.3} ms; append + \
         commit ms p10 {:.1} p50 {:.1} p90 {:.1}",
        ingest_s.len(),
        live.steps,
        quantile(&ingest_s, 0.10) * 1e3,
        quantile(&ingest_s, 0.50) * 1e3,
        quantile(&ingest_s, 0.90) * 1e3,
    );

    let mut layers = crate::report::Layers::default();
    if ctx.traced {
        serve::set_server_layers(&mut layers, &views.0, &views.1, &log.latency);
        layers.set("stz-mutate.commit_p50_ms", commit_p50_ms);
    }

    let (stored_ratio, tally) = compact_and_verify(live, &inputs, &dir);
    end_to_end.stored_ratio = stored_ratio;
    drop(inputs);
    let mut outcome = Outcome { tally, end_to_end, layers };
    crate::finish_trace(ctx, &mut outcome, generate_s, stats, overhead);
    outcome
}
