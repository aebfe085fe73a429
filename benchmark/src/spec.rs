//! The benchmark's contract: workloads, metrics, units, directions, bounds.
//! `BENCHMARK.json` is rendered from these tables (`--emit-spec`), and a unit
//! test keeps the committed file equal to them.

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "local_codec",
        why: "one thread, no pool, container or socket: compress, decode, preview and ROI of \
              256^3-class f32 and f64 fields (32x L2) - the plain single-threaded baseline",
    },
    Workload {
        name: "serve_cold",
        why:
            "server with the cache off and one blocking client: every request takes the miss \
              path - section read, CRC, decode on the pool, LE encode, frame, socket, client checks",
    },
    Workload {
        name: "serve_hot",
        why: "88 cached keys under two clients: decode does nothing, framing, CRC, cache lookup \
              and socket do everything - a decode-core change must show no movement here",
    },
    Workload {
        name: "ingest_live",
        why: "pipelined appends and commits beside remote reads of one growing file, then \
              compaction: a reader gain that costs the writer (or the reverse) shows only here",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher, bound }
}

/// Every workload reports every one of these (README.md says what each
/// means on each workload).
pub const END_TO_END: [Metric; 10] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("write_mbps", "MB/s", true, 0.25),
    e2e("full_p50_ms", "ms", false, 0.25),
    e2e("preview_p50_ms", "ms", false, 0.25),
    e2e("roi_p50_ms", "ms", false, 0.25),
    e2e("roi_tail_ms", "ms", false, 0.25),
    e2e("read_mbps", "MB/s", true, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("stored_ratio", "ratio", false, 0.02),
    e2e("peak_heap_mb", "MB", false, 0.1),
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric { name, unit, higher, bound: 0.0 }
}

/// Layers the benchmark calls into directly and so can time with spans.
pub const TRACED_LAYERS: [&str; 5] =
    ["stz-core", "stz-stream", "stz-mutate", "stz-serve", "stz-access"];

/// Per-layer metrics, printed by a `--trace 1` run. A busy time or count of
/// a layer the workload never enters is 0.
pub const PER_LAYER: &[Metric] = &[
    layer("bench.ops", "count", true),
    layer("bench.wall_s", "s", false),
    layer("bench.unattributed_ratio", "ratio", false),
    layer("bench.trace_overhead_ratio", "ratio", false),
    layer("bench.peak_rss_mb", "MB", false),
    layer("stz-data.generate_s", "s", false),
    layer("stz-core.setup_self_s", "s", false),
    layer("stz-core.window_self_s", "s", false),
    layer("stz-core.window_calls", "count", false),
    layer("stz-stream.setup_self_s", "s", false),
    layer("stz-stream.window_self_s", "s", false),
    layer("stz-stream.window_calls", "count", false),
    layer("stz-mutate.setup_self_s", "s", false),
    layer("stz-mutate.window_self_s", "s", false),
    layer("stz-mutate.window_calls", "count", false),
    layer("stz-serve.setup_self_s", "s", false),
    layer("stz-serve.window_self_s", "s", false),
    layer("stz-serve.window_calls", "count", false),
    layer("stz-access.setup_self_s", "s", false),
    layer("stz-access.window_self_s", "s", false),
    layer("stz-access.window_calls", "count", false),
    layer("stz-field.partition_mbps", "MB/s", true),
    layer("stz-field.reassemble_mbps", "MB/s", true),
    layer("stz-field.extract_region_mbps", "MB/s", true),
    layer("stz-simd.lane_f64_width", "count", true),
    layer("stz-simd.predict_recon_f32_mpts", "Mpts/s", true),
    layer("stz-simd.quantize_f32_mpts", "Mpts/s", true),
    layer("stz-simd.gather2_f32_mpts", "Mpts/s", true),
    layer("stz-simd.scatter2_f32_mpts", "Mpts/s", true),
    layer("stz-simd.widen_narrow_mpts", "Mpts/s", true),
    layer("stz-codec.huffman_encode_msym.lowent", "Msym/s", true),
    layer("stz-codec.huffman_encode_msym.highent", "Msym/s", true),
    layer("stz-codec.huffman_decode_msym.lowent", "Msym/s", true),
    layer("stz-codec.huffman_decode_msym.highent", "Msym/s", true),
    layer("stz-sz3.compress_mbps", "MB/s", true),
    layer("stz-sz3.decompress_mbps", "MB/s", true),
    layer("stz-sz3.ratio", "ratio", true),
    layer("stz-core.vs_sz3_compress", "ratio", true),
    layer("stz-core.vs_sz3_decompress", "ratio", true),
    layer("stz-core.vs_sz3_ratio", "ratio", true),
    layer("stz-core.compress_s.nyx256", "s", false),
    layer("stz-core.compress_s.magrec256", "s", false),
    layer("stz-core.compress_s.warpx512", "s", false),
    layer("stz-core.decompress_s.nyx256", "s", false),
    layer("stz-core.decompress_s.magrec256", "s", false),
    layer("stz-core.decompress_s.warpx512", "s", false),
    layer("stz-core.ratio.nyx256", "ratio", true),
    layer("stz-core.ratio.magrec256", "ratio", true),
    layer("stz-core.ratio.warpx512", "ratio", true),
    layer("stz-core.psnr_db.nyx256", "dB", true),
    layer("stz-core.psnr_db.magrec256", "dB", true),
    layer("stz-core.psnr_db.warpx512", "dB", true),
    layer("stz-core.max_err_over_eb", "ratio", false),
    layer("stz-core.level1_ms", "ms", false),
    layer("stz-core.level2_ms", "ms", false),
    layer("stz-core.level3_ms", "ms", false),
    layer("stz-core.roi_cube_ms", "ms", false),
    layer("stz-core.roi_slice_ms", "ms", false),
    layer("stz-core.roi_chunks_decoded_ratio", "ratio", false),
    layer("stz-core.compress_sys_share", "ratio", false),
    layer("stz-core.decompress_sys_share", "ratio", false),
    layer("stz-core.decompress_minflt_per_mb", "1/MB", false),
    layer("stz-core.decompress_rss_over_output", "ratio", false),
    layer("rayon-shim.threads", "count", true),
    layer("rayon-shim.compress_speedup", "ratio", true),
    layer("rayon-shim.decompress_speedup", "ratio", true),
    layer("rayon-shim.pack_speedup", "ratio", true),
    layer("stz-stream.crc32_mbps", "MB/s", true),
    layer("stz-stream.pack_mbps", "MB/s", true),
    layer("stz-stream.open_ms", "ms", false),
    layer("stz-stream.read_payload_mbps", "MB/s", true),
    layer("stz-stream.roi_bytes_read_ratio", "ratio", false),
    layer("stz-stream.preview_bytes_read_ratio", "ratio", false),
    layer("stz-stream.file_over_mem_full", "ratio", false),
    layer("stz-mutate.append_ms", "ms", false),
    layer("stz-mutate.commit_ms_first10", "ms", false),
    layer("stz-mutate.commit_ms_last10", "ms", false),
    layer("stz-mutate.compact_s", "s", false),
    layer("stz-mutate.compact_mbps", "MB/s", true),
    layer("stz-mutate.reclaimed_ratio", "ratio", true),
    layer("stz-mutate.space_amp", "ratio", false),
    layer("stz-mutate.commit_p50_ms", "ms", false),
    layer("stz-serve.frame_write_mbps", "MB/s", true),
    layer("stz-serve.frame_read_mbps", "MB/s", true),
    layer("stz-serve.fetched_encode_mbps", "MB/s", true),
    layer("stz-serve.fetched_decode_mbps", "MB/s", true),
    layer("stz-serve.cache_get_ns", "ns", false),
    layer("stz-serve.cache_insert_ns", "ns", false),
    layer("stz-serve.connect_ms", "ms", false),
    layer("stz-serve.rtt_floor_ms", "ms", false),
    layer("stz-serve.cache_hit_ratio", "ratio", true),
    layer("stz-serve.busy_rejects", "count", false),
    layer("stz-serve.two_clients_roi_ratio", "ratio", false),
    layer("stz-serve.server_mean_ms.roi", "ms", false),
    layer("stz-serve.server_mean_ms.preview", "ms", false),
    layer("stz-serve.server_mean_ms.full", "ms", false),
    layer("stz-serve.client_minus_server_ms.roi", "ms", false),
    layer("stz-serve.client_minus_server_ms.preview", "ms", false),
    layer("stz-serve.client_minus_server_ms.full", "ms", false),
    layer("stz-access.mem_fetch_ms.roi", "ms", false),
    layer("stz-access.file_fetch_ms.roi", "ms", false),
    layer("stz-access.remote_fetch_ms.roi", "ms", false),
    layer("stz-access.open_store_ms", "ms", false),
    layer("stz-telemetry.span_ns", "ns", false),
    layer("stz-telemetry.counter_inc_ns", "ns", false),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let array = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads =
        WORKLOADS.iter().map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
    let metric = |m: &Metric, bound: String| {
        let better = if m.higher { "higher" } else { "lower" };
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            m.name, m.unit
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        array(workloads.collect()),
        array(END_TO_END.iter().map(|m| metric(m, format!(", \"bound\": {}", m.bound))).collect()),
        array(PER_LAYER.iter().map(|m| metric(m, String::new())).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = crate::util::package_dir().join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate it with --emit-spec");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound <= 0.25);
        }
    }
}
