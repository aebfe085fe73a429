//! Layer micro-measurements, run by every `--trace 1` run after its workload:
//! each calls one layer's public functions directly on inputs derived from
//! the seed, so a change to that layer shows here first and in the end-to-end
//! metric README.md names second. Medians of a few repetitions (the faster of
//! two for the 256^3-class codec calls); none is gated.

use crate::local_codec::{error_bound, generate_fields};
use crate::report::Layers;
use crate::serve;
use crate::trace::Tracer;
use crate::util::{fastest, geomean, median, median_secs, proc_stat, timed, Rng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use stz::access::{open_store, EntrySel, Fetch, FileStore, MemStore, Store};
use stz::backend::{registry, BackendScalar, ErrorBound};
use stz::core::{kernels::StencilOffsets, InterpKind, StzArchive, StzCompressor, StzConfig};
use stz::data::metrics::{max_abs_error, psnr};
use stz::field::{partition_stride2, reassemble_stride2, Dims, Field, Region};
use stz::mutate::{FileBacking, MutableContainer};
use stz::serve::proto::{read_frame, write_frame, FetchedField, FrameType};
use stz::serve::{CacheKey, Client, DecodedCache, RequestKind};
use stz::stream::{
    pack_pipelined, pack_to_file, ContainerReader, ContainerWriter, CountingSource, FileSource,
    PackEntry,
};

/// Repetitions of the cheaper calls; their median is reported.
const REPS: usize = 3;

/// Repetitions of the 256^3-class codec calls, which dominate a traced run's
/// length; the faster of the two is reported.
const CODEC_REPS: usize = 2;

pub fn run(seed: u64, dir: &Path, layers: &mut Layers) {
    let mut section = |name: &str, f: &mut dyn FnMut(&mut Layers)| {
        let ((), secs) = timed(|| f(layers));
        println!("# micro-measurements: {name} took {secs:.1} s");
    };
    section("stz-field", &mut |l| field(l));
    section("stz-simd", &mut |l| simd(l));
    section("stz-codec", &mut |l| huffman(seed, l));
    section("stz-core beside stz-sz3", &mut |l| codecs(seed, l));
    section("containers, stores and the served path", &mut |l| containers(seed, dir, l));
    section("stz-serve wire", &mut |l| wire(l));
    section("stz-telemetry", &mut |l| telemetry(l));
}

/// `stz-field`: the stride-2 partition the compressor is built on, on a
/// 256^3 f32 grid (content does not matter to a copy).
fn field(layers: &mut Layers) {
    let dims = Dims::d3(256, 256, 256);
    let grid: Field<f32> = Field::from_fn(dims, |z, y, x| (z * 7 + y * 3 + x) as f32);
    let mb = grid.nbytes() as f64 / 1e6;
    let mut parts = partition_stride2(&grid);
    let split_s = median_secs(REPS, || parts = black_box(partition_stride2(&grid)));
    let join_s = median_secs(REPS, || {
        black_box(reassemble_stride2(dims, &parts));
    });
    let cubes: Vec<Region> = (0..64)
        .map(|i| {
            let (z, y, x) = (i / 16 * 64, i / 4 % 4 * 64, i % 4 * 64);
            Region::d3(z..z + 64, y..y + 64, x..x + 64)
        })
        .collect();
    let extract_s = median_secs(REPS, || {
        for cube in &cubes {
            black_box(grid.extract_region(cube));
        }
    });
    layers.set("stz-field.partition_mbps", mb / split_s);
    layers.set("stz-field.reassemble_mbps", mb / join_s);
    layers.set("stz-field.extract_region_mbps", mb / extract_s);
}

/// `stz-simd`: the batch kernels on cache-resident rows of the geometry the
/// compressor feeds them (a 64^3 f64 working grid, interior rows, stride 2).
fn simd(layers: &mut Layers) {
    let lane = stz::simd::active_lane();
    let width = match lane.name() {
        "avx2" => 4.0,
        "sse2" | "neon" => 2.0,
        _ => 1.0,
    };
    layers.set("stz-simd.lane_f64_width", width);

    let dims = Dims::d3(64, 64, 64);
    let grid: Vec<f64> = (0..dims.len()).map(|i| (i as f64 * 1e-3).sin()).collect();
    let stencil = StencilOffsets::new(dims, &[0, 1, 2], InterpKind::Cubic).as_simd();
    let row = 29; // x = 3, 5, .., 59: every tap of every point stays inside
    let codes = vec![1.0f64; row];
    let mut out = vec![0.0f64; row];
    let passes = 40;
    let predict_s = median_secs(REPS, || {
        for _ in 0..passes {
            for z in (3..61).step_by(2) {
                for y in (3..61).step_by(2) {
                    let base = dims.index(z, y, 3);
                    stz::simd::predict_recon_run_f32(
                        lane, &grid, base, &stencil, &codes, 2e-3, &mut out,
                    );
                }
            }
            black_box(&out);
        }
    });
    let predicted = (passes * 29 * 29 * row) as f64;
    layers.set("stz-simd.predict_recon_f32_mpts", predicted / predict_s / 1e6);

    let n = 4096;
    let actual: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let predicted: Vec<f64> = actual.iter().map(|v| v + 3.3e-3).collect();
    let (mut q, mut recon, mut escape) = (vec![0.0; n], vec![0.0; n], vec![0u8; n]);
    let passes = 2000;
    let quantize_s = median_secs(REPS, || {
        for _ in 0..passes {
            stz::simd::quantize_run_f32(
                lane,
                &actual,
                &predicted,
                1e-3,
                2e-3,
                32768.0,
                &mut q,
                &mut recon,
                &mut escape,
            );
            black_box(&q);
        }
    });
    layers.set("stz-simd.quantize_f32_mpts", (passes * n) as f64 / quantize_s / 1e6);

    let wide: Vec<f32> = (0..2 * n).map(|i| i as f32).collect();
    let mut narrow = vec![0.0f32; n];
    let gather_s = median_secs(REPS, || {
        for _ in 0..passes {
            stz::simd::gather2_f32(lane, &wide, 0, &mut narrow);
            black_box(&narrow);
        }
    });
    layers.set("stz-simd.gather2_f32_mpts", (passes * n) as f64 / gather_s / 1e6);
    let mut spread = vec![0.0f32; 2 * n];
    let scatter_s = median_secs(REPS, || {
        for _ in 0..passes {
            stz::simd::scatter2_f32(lane, &narrow, &mut spread, 0);
            black_box(&spread);
        }
    });
    layers.set("stz-simd.scatter2_f32_mpts", (passes * n) as f64 / scatter_s / 1e6);
    let mut widened = vec![0.0f64; n];
    let cast_s = median_secs(REPS, || {
        for _ in 0..passes {
            stz::simd::widen_run(lane, &narrow, &mut widened);
            stz::simd::narrow_run(lane, &widened, &mut narrow);
            black_box(&narrow);
        }
    });
    layers.set("stz-simd.widen_narrow_mpts", (passes * n) as f64 / cast_s / 1e6);
}

/// `stz-codec`: block Huffman coding of 2^20 symbols at ~1 bit/symbol (one
/// dominant code, like `nyx256`) and at 4 bits/symbol (like `magrec256`).
fn huffman(seed: u64, layers: &mut Layers) {
    let mut rng = Rng::new(seed ^ 0xC0DE);
    let n = 1 << 20;
    let low: Vec<u32> = (0..n)
        .map(|_| {
            let r = rng.next_u64();
            if r % 100 < 85 {
                1
            } else {
                2 + (r >> 32) as u32 % 8
            }
        })
        .collect();
    let high: Vec<u32> = (0..n).map(|_| 1 + rng.next_u64() as u32 % 16).collect();
    for (label, symbols) in [("lowent", &low), ("highent", &high)] {
        let mut block = stz::codec::huffman::encode_block(symbols);
        let encode_s =
            median_secs(REPS, || block = black_box(stz::codec::huffman::encode_block(symbols)));
        let decode_s = median_secs(REPS, || {
            black_box(stz::codec::huffman::decode_block(&block).expect("decode own block"));
        });
        layers.set(&format!("stz-codec.huffman_encode_msym.{label}"), n as f64 / encode_s / 1e6);
        layers.set(&format!("stz-codec.huffman_decode_msym.{label}"), n as f64 / decode_s / 1e6);
    }
}

/// What one field contributes to the STZ-beside-SZ3 comparison: best
/// seconds per call and the two ratios.
struct CodecRow {
    mb: f64,
    stz_compress_s: f64,
    stz_decompress_s: f64,
    stz_ratio: f64,
    sz3_compress_s: f64,
    sz3_decompress_s: f64,
    sz3_ratio: f64,
    /// Kernel-side share of the wall time of the STZ calls.
    compress_sys_share: f64,
    decompress_sys_share: f64,
    /// Minor page faults per MB of decoded output.
    decompress_faults_per_mb: f64,
}

/// Compress and decode `field` with STZ and with the registry's `sz3`, the
/// repetitions interleaved so both codecs see the same machine state.
fn codec_row<T: BackendScalar>(
    name: &str,
    field: &Field<T>,
    layers: &mut Layers,
) -> (StzArchive<T>, CodecRow) {
    let eb = error_bound(field);
    let stz = StzCompressor::new(StzConfig::three_level(eb));
    let sz3 = registry().by_name("sz3").expect("sz3 is a built-in codec");
    let mb = field.nbytes() as f64 / 1e6;
    let (mut stz_c, mut stz_d, mut sz3_c, mut sz3_d) = (vec![], vec![], vec![], vec![]);
    let (mut c_sys, mut d_sys, mut d_faults) = (0.0, 0.0, 0.0);
    let mut archive = None;
    let mut sz3_len = 0;
    for rep in 0..CODEC_REPS {
        let before = proc_stat();
        let (a, secs) = timed(|| stz.compress(field).expect("stz compress"));
        c_sys += proc_stat().stime_s - before.stime_s;
        stz_c.push(secs);
        let (bytes, secs) = timed(|| {
            stz::backend::compress(sz3, field, &ErrorBound::Absolute(eb)).expect("sz3 compress")
        });
        sz3_c.push(secs);
        let before = proc_stat();
        let (restored, secs) = timed(|| a.decompress().expect("stz decompress"));
        let after = proc_stat();
        d_sys += after.stime_s - before.stime_s;
        d_faults += after.minor_faults - before.minor_faults;
        stz_d.push(secs);
        let (other, secs) =
            timed(|| stz::backend::decompress::<T>(sz3, &bytes).expect("sz3 decompress"));
        sz3_d.push(secs);
        if rep == 0 {
            let worst = max_abs_error(field, &restored).max(max_abs_error(field, &other)) / eb;
            let so_far = layers.get("stz-core.max_err_over_eb");
            layers.set("stz-core.max_err_over_eb", so_far.max(worst));
            layers.set(&format!("stz-core.psnr_db.{name}"), psnr(field, &restored));
        }
        sz3_len = bytes.len();
        archive = Some(a);
    }
    let archive = archive.expect("CODEC_REPS > 0");
    let row = CodecRow {
        mb,
        compress_sys_share: c_sys / stz_c.iter().sum::<f64>(),
        decompress_sys_share: d_sys / stz_d.iter().sum::<f64>(),
        decompress_faults_per_mb: d_faults / (CODEC_REPS as f64 * mb),
        stz_compress_s: fastest(stz_c.iter().copied()),
        stz_decompress_s: fastest(stz_d.iter().copied()),
        stz_ratio: archive.compression_ratio(),
        sz3_compress_s: fastest(sz3_c.iter().copied()),
        sz3_decompress_s: fastest(sz3_d.iter().copied()),
        sz3_ratio: field.nbytes() as f64 / sz3_len as f64,
    };
    layers.set(&format!("stz-core.compress_s.{name}"), row.stz_compress_s);
    layers.set(&format!("stz-core.decompress_s.{name}"), row.stz_decompress_s);
    layers.set(&format!("stz-core.ratio.{name}"), row.stz_ratio);
    (archive, row)
}

/// `stz-core` beside `stz-sz3` on the three `local_codec` fields, then the
/// decode-path details on `nyx256` and the pool's effect on it.
fn codecs(seed: u64, layers: &mut Layers) {
    let fields = generate_fields();
    let (nyx_archive, nyx) = codec_row("nyx256", &fields.nyx, layers);
    let rows = [
        nyx,
        codec_row("magrec256", &fields.magrec, layers).1,
        codec_row("warpx512", &fields.warpx, layers).1,
    ];
    let [nyx, ..] = &rows;
    let over = |f: &dyn Fn(&CodecRow) -> f64| geomean(rows.iter().map(f));
    let sz3_compress = over(&|r| r.mb / r.sz3_compress_s);
    let sz3_decompress = over(&|r| r.mb / r.sz3_decompress_s);
    let sz3_ratio = over(&|r| r.sz3_ratio);
    layers.set("stz-sz3.compress_mbps", sz3_compress);
    layers.set("stz-sz3.decompress_mbps", sz3_decompress);
    layers.set("stz-sz3.ratio", sz3_ratio);
    layers.set("stz-core.vs_sz3_compress", over(&|r| r.mb / r.stz_compress_s) / sz3_compress);
    layers.set("stz-core.vs_sz3_decompress", over(&|r| r.mb / r.stz_decompress_s) / sz3_decompress);
    layers.set("stz-core.vs_sz3_ratio", over(&|r| r.stz_ratio) / sz3_ratio);

    layers.set("stz-core.compress_sys_share", nyx.compress_sys_share);
    layers.set("stz-core.decompress_sys_share", nyx.decompress_sys_share);
    layers.set("stz-core.decompress_minflt_per_mb", nyx.decompress_faults_per_mb);
    crate::util::reset_peak_rss();
    let resident = crate::util::rss_mb();
    black_box(nyx_archive.decompress().expect("decompress"));
    layers.set(
        "stz-core.decompress_rss_over_output",
        (crate::util::peak_rss_mb() - resident) / nyx.mb,
    );

    // Progressive increments: levels 1-2 are the preview, level 3 the rest.
    let mut level_ms = [vec![], vec![], vec![]];
    for _ in 0..CODEC_REPS {
        let mut decoder = nyx_archive.progressive();
        for ms in &mut level_ms {
            let (level, secs) = timed(|| decoder.next_level().expect("next level"));
            black_box(level);
            ms.push(secs * 1e3);
        }
    }
    for (i, ms) in level_ms.iter_mut().enumerate() {
        layers.set(&format!("stz-core.level{}_ms", i + 1), fastest(ms.iter().copied()));
    }

    let mut rng = Rng::new(seed ^ 0x201);
    let (mut cube_ms, mut slice_ms) = (vec![], vec![]);
    let (mut decoded, mut skipped) = (0usize, 0usize);
    for _ in 0..5 {
        let mut axis = || {
            let lo = rng.below(256 - 64 + 1);
            lo..lo + 64
        };
        let cube = Region::d3(axis(), axis(), axis());
        let ((_, breakdown), secs) =
            timed(|| nyx_archive.decompress_region_with_breakdown(&cube).expect("cube ROI"));
        cube_ms.push(secs * 1e3);
        decoded += breakdown.levels.iter().map(|l| l.decoded_chunks).sum::<usize>();
        skipped += breakdown.levels.iter().map(|l| l.skipped_chunks).sum::<usize>();
        let slice = Region::slice_z(fields.nyx.dims(), rng.below(256));
        slice_ms.push(timed(|| black_box(nyx_archive.decompress_region(&slice))).1 * 1e3);
    }
    layers.set("stz-core.roi_cube_ms", median(&mut cube_ms));
    layers.set("stz-core.roi_slice_ms", median(&mut slice_ms));
    layers.set("stz-core.roi_chunks_decoded_ratio", decoded as f64 / (decoded + skipped) as f64);

    // The pool: the same field through the `*_parallel` entry points.
    let eb = error_bound(&fields.nyx);
    let stz = StzCompressor::new(StzConfig::three_level(eb));
    let best_of = |f: &mut dyn FnMut()| fastest((0..CODEC_REPS).map(|_| timed(&mut *f).1));
    let compress_s = best_of(&mut || {
        black_box(stz.compress_parallel(&fields.nyx).expect("parallel compress"));
    });
    let decompress_s = best_of(&mut || {
        black_box(nyx_archive.decompress_parallel().expect("parallel decompress"));
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    layers.set("rayon-shim.threads", threads as f64);
    layers.set("rayon-shim.compress_speedup", nyx.stz_compress_s / compress_s);
    layers.set("rayon-shim.decompress_speedup", nyx.stz_decompress_s / decompress_s);
}

/// `stz-stream`, `stz-mutate`, `stz-access` and the served path, on eight
/// 128^3 entries in files under `dir`.
fn containers(seed: u64, dir: &Path, layers: &mut Layers) {
    let inputs = serve::generate_cubes(128, 8, 32, 1, true, seed ^ 0xC0);
    let compress = |i: usize| {
        let (_, field, eb) = &inputs.fields[i];
        StzCompressor::new(StzConfig::three_level(*eb)).compress(field)
    };
    let pack_with = |threads: usize| {
        median_secs(REPS, || {
            let jobs: Vec<usize> = (0..inputs.fields.len()).collect();
            let image = pack_pipelined(Vec::new(), jobs, threads, |i| {
                Ok((inputs.fields[i].0.clone(), PackEntry::from(compress(i)?)))
            });
            black_box(image.expect("pack"));
        })
    };
    layers.set("rayon-shim.pack_speedup", pack_with(1) / pack_with(2));

    let archives: Vec<StzArchive<f32>> =
        (0..inputs.fields.len()).map(|i| compress(i).expect("compress")).collect();
    let named: Vec<(&str, &StzArchive<f32>)> =
        inputs.fields.iter().map(|(n, _, _)| n.as_str()).zip(&archives).collect();
    let stored_mb = archives.iter().map(|a| a.compressed_len()).sum::<usize>() as f64 / 1e6;
    let path = dir.join("micro.stzc");
    let pack_s = median_secs(REPS, || pack_to_file(&path, &named).expect("pack_to_file"));
    layers.set("stz-stream.pack_mbps", stored_mb / pack_s);

    let reader = ContainerReader::open_path(&path).expect("open");
    let read_s = median_secs(REPS, || {
        for i in 0..reader.entry_count() {
            black_box(reader.entry::<f32>(i).and_then(|e| e.read_payload()).expect("payload"));
        }
    });
    layers.set("stz-stream.read_payload_mbps", stored_mb / read_s);
    let buffer = vec![0x5Au8; 8 << 20];
    let crc_s = median_secs(REPS, || {
        black_box(stz::stream::crc::crc32(&buffer));
    });
    layers.set("stz-stream.crc32_mbps", buffer.len() as f64 / 1e6 / crc_s);

    // Opening a footer of 300 entries, the size `ingest_live` grows to.
    let many = dir.join("many.stzc");
    {
        let tiny: Field<f32> = Field::from_fn(Dims::d3(16, 16, 16), |z, y, x| (z + y + x) as f32);
        let tiny = StzCompressor::new(StzConfig::three_level(1e-2)).compress(&tiny).expect("tiny");
        let file = std::io::BufWriter::new(std::fs::File::create(&many).expect("create"));
        let mut writer = ContainerWriter::new(file).expect("writer");
        for i in 0..300 {
            writer.add_archive(&format!("s{i}"), &tiny).expect("add");
        }
        std::io::Write::flush(&mut writer.finish().expect("finish")).expect("flush");
    }
    let open_s = median_secs(9, || {
        black_box(ContainerReader::open_path(&many).expect("open"));
    });
    layers.set("stz-stream.open_ms", open_s * 1e3);

    // Bytes a query reads over the bytes the entry holds, and the same fetch
    // through the three transports. Entry 1 is a `magrec_like` field.
    let roi = inputs.keys.iter().find(|k| k.entry == 1 && k.kind == serve::Kind::Roi).expect("roi");
    let sel = EntrySel::Index(1);
    let counting = FileStore::open_source(
        CountingSource::new(FileSource::open(&path).expect("open")),
        "counting",
    )
    .expect("counting store");
    let entry = counting.open(&sel).expect("entry");
    let stored = entry.desc().compressed_len as f64;
    for (name, fetch) in [
        ("stz-stream.roi_bytes_read_ratio", &roi.fetch),
        ("stz-stream.preview_bytes_read_ratio", &Fetch::Level(2)),
    ] {
        counting.reader().source().reset();
        entry.fetch(fetch).expect("counted fetch");
        layers.set(name, counting.reader().source().bytes_read() as f64 / stored);
    }

    let mut mem = MemStore::new();
    for (name, archive) in &named {
        mem.add(name, (*archive).clone());
    }
    let file = FileStore::open_path(&path).expect("file store");
    let fetch_ms = |store: &dyn Store, fetch: &Fetch| {
        let entry = store.open(&sel).expect("entry");
        median_secs(5, || {
            black_box(entry.fetch(fetch).expect("fetch"));
        }) * 1e3
    };
    let (mem_full, file_full) = (fetch_ms(&mem, &Fetch::Full), fetch_ms(&file, &Fetch::Full));
    layers.set("stz-stream.file_over_mem_full", file_full / mem_full);
    layers.set("stz-access.mem_fetch_ms.roi", fetch_ms(&mem, &roi.fetch));
    layers.set("stz-access.file_fetch_ms.roi", fetch_ms(&file, &roi.fetch));
    let location = path.to_string_lossy().into_owned();
    let open_s = median_secs(9, || {
        black_box(open_store(&location).expect("open_store"));
    });
    layers.set("stz-access.open_store_ms", open_s * 1e3);

    // Served with the cache off, so the remote fetch decodes like the others.
    let _ = std::fs::remove_file(&many);
    let mut tr = Tracer::new(false);
    let (handle, addr) = serve::bind(&mut tr, dir, Some(0));
    let connect_s = median_secs(9, || {
        black_box(Client::connect(addr).expect("connect"));
    });
    layers.set("stz-serve.connect_ms", connect_s * 1e3);
    let mut client = Client::connect(addr).expect("connect");
    let rtt_s = median_secs(200, || {
        black_box(client.list().expect("LIST"));
    });
    layers.set("stz-serve.rtt_floor_ms", rtt_s * 1e3);
    let remote = serve::connect(&mut tr, addr, "micro");
    layers.set("stz-access.remote_fetch_ms.roi", fetch_ms(&remote, &roi.fetch));
    drop((client, remote));
    handle.stop();
    let _ = std::fs::remove_file(&path);

    mutate(dir, &archives, layers);
}

/// `stz-mutate`: 96 appends of pre-compressed entries, one commit each, then
/// every second pair deleted (pairs, so both generators survive) and the file
/// compacted.
fn mutate(dir: &Path, archives: &[StzArchive<f32>], layers: &mut Layers) {
    let path = dir.join("mutate.stzc");
    let mut container =
        MutableContainer::create(FileBacking::create(&path).expect("backing")).expect("create");
    let (mut append_ms, mut commit_ms) = (vec![], vec![]);
    for n in 0..96 {
        let entry = PackEntry::from(archives[n % archives.len()].clone());
        let name = format!("s{n}");
        append_ms.push(timed(|| container.append(&name, &entry).expect("append")).1 * 1e3);
        commit_ms.push(timed(|| container.commit().expect("commit")).1 * 1e3);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    layers.set("stz-mutate.append_ms", median(&mut append_ms));
    layers.set("stz-mutate.commit_ms_first10", mean(&commit_ms[..10]));
    layers.set("stz-mutate.commit_ms_last10", mean(&commit_ms[commit_ms.len() - 10..]));
    for n in (0..96).filter(|n| n / 2 % 2 == 1) {
        container.delete(&format!("s{n}")).expect("delete");
    }
    container.commit().expect("commit");
    let before = container.stats();
    layers.set(
        "stz-mutate.space_amp",
        before.committed_len as f64 / before.live_payload_bytes as f64,
    );
    let (stats, secs) = timed(|| container.compact().expect("compact"));
    layers.set("stz-mutate.compact_s", secs);
    layers.set("stz-mutate.compact_mbps", stats.after_bytes as f64 / 1e6 / secs);
    layers.set(
        "stz-mutate.reclaimed_ratio",
        stats.reclaimed_bytes as f64 / stats.before_bytes as f64,
    );
    drop(container);
    let _ = std::fs::remove_file(&path);
}

/// `stz-serve` without a socket: framing and payload coding over memory
/// buffers of 8 MiB, and the decoded-block cache.
fn wire(layers: &mut Layers) {
    let dims = Dims::d3(128, 128, 128);
    let fetched = FetchedField {
        kind_tag: RequestKind::Full.tag(),
        type_tag: 0,
        dims,
        data: (0..dims.len() * 4).map(|i| ((i * 31) >> 3) as u8).collect(),
    };
    let mb = fetched.data.len() as f64 / 1e6;
    let mut payload = fetched.encode();
    let encode_s = median_secs(REPS, || payload = black_box(fetched.encode()));
    let decode_s = median_secs(REPS, || {
        let decoded = FetchedField::decode(&payload).expect("decode");
        black_box(decoded.into_field::<f32>().expect("typed field"));
    });
    layers.set("stz-serve.fetched_encode_mbps", mb / encode_s);
    layers.set("stz-serve.fetched_decode_mbps", mb / decode_s);

    let mut framed = Vec::with_capacity(payload.len() + 16);
    let write_s = median_secs(REPS, || {
        framed.clear();
        write_frame(&mut framed, FrameType::FetchOk, &payload).expect("write_frame");
    });
    let read_s = median_secs(REPS, || {
        black_box(read_frame(&mut framed.as_slice()).expect("read_frame"));
    });
    layers.set("stz-serve.frame_write_mbps", mb / write_s);
    layers.set("stz-serve.frame_read_mbps", mb / read_s);

    let cache = DecodedCache::new(256 << 20);
    let keys: Vec<CacheKey> = (0..1024u32)
        .map(|entry| CacheKey {
            container: "bench".into(),
            generation: 1,
            entry,
            kind: RequestKind::Full,
        })
        .collect();
    let value = Arc::new(vec![0u8; 4096]);
    let insert_s = timed(|| {
        for key in &keys {
            cache.insert(key.clone(), Arc::clone(&value));
        }
    })
    .1;
    layers.set("stz-serve.cache_insert_ns", insert_s * 1e9 / keys.len() as f64);
    let gets = 200_000;
    let get_s = median_secs(REPS, || {
        for i in 0..gets {
            black_box(cache.get(&keys[i % keys.len()]));
        }
    });
    layers.set("stz-serve.cache_get_ns", get_s * 1e9 / gets as f64);
}

/// `stz-telemetry`: what one span (opened and closed under an active trace)
/// and one counter increment cost the code that is instrumented with them.
fn telemetry(layers: &mut Layers) {
    let collector = stz::telemetry::trace::collector();
    let was_enabled = collector.is_enabled();
    collector.set_enabled(true);
    // A trace keeps at most 512 spans, so open many short traces.
    let (traces, spans) = (400, 250);
    let span_s = median_secs(REPS, || {
        for _ in 0..traces {
            let _root = collector.start("bench", "micro", None);
            for _ in 0..spans {
                drop(black_box(stz::telemetry::trace::span("span")));
            }
        }
    });
    collector.set_enabled(was_enabled);
    layers.set("stz-telemetry.span_ns", span_s * 1e9 / (traces * spans) as f64);

    let counter = stz::telemetry::global().counter("stz_benchmark_micro_total", &[]);
    let incs = 2_000_000;
    let inc_s = median_secs(REPS, || {
        for _ in 0..incs {
            black_box(&counter).inc();
        }
    });
    layers.set("stz-telemetry.counter_inc_ns", inc_s * 1e9 / incs as f64);
}
