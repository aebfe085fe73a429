//! Regenerate the curated hostile-input corpus under
//! `tests/corpus/regressions/`.
//!
//! Each case is written as a reproducer file whose `signature` header
//! records the *current* classification (minus the message hash), so
//! `tests/fuzz_regressions.rs` can assert that replaying the input keeps
//! landing in the same error class. Inputs come from three sources: the
//! hand-written hostile cases of `tests/serve.rs` ported to file form,
//! structurally hostile containers/codec headers built with the real
//! encoders, and the minimized inputs of bugs the fuzzer actually found
//! (pinned as byte literals so they survive any encoder change).
//!
//! Usage: `gen_corpus [DIR]` (default `tests/corpus/regressions`, i.e.
//! run it from the repository root).

use std::path::PathBuf;
use std::process::ExitCode;
use stz_backend::{registry, ErrorBound};
use stz_field::{Dims, Field};
use stz_fuzz::corpus::Reproducer;
use stz_fuzz::mutate::{refix_container, refix_frame};
use stz_fuzz::targets::{CodecTarget, ContainerTarget, FuzzTarget, ProtoTarget};
use stz_mutate::{upgrade_image, MemBacking, MutableContainer};
use stz_serve::proto::{
    self, write_frame, Enc, EntrySel, FetchReq, FetchedField, FrameType, RequestKind,
};
use stz_stream::{ContainerWriter, ForeignArchive, PackEntry};

fn frame(kind: FrameType, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, kind, payload).expect("vec write");
    buf
}

/// A small valid container to corrupt.
fn valid_container() -> Vec<u8> {
    let field = stz_data::synth::miranda_like(Dims::d3(6, 5, 4), 7);
    let archive = stz_core::StzCompressor::new(stz_core::StzConfig::three_level(1e-3))
        .compress(&field)
        .expect("compress");
    stz_stream::pack_to_vec(&[("t0", &archive)]).expect("pack")
}

fn proto_cases() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let mut cases = Vec::new();

    cases.push((
        "proto_bad_magic_http",
        "an HTTP request instead of an STZP frame must be rejected at the magic",
        b"GET / HTTP/1.1\r\nHost: stz\r\n\r\n".to_vec(),
    ));

    // Frame header whose length field is u32::MAX.
    let mut huge_len = frame(FrameType::List, &[]);
    huge_len[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    cases.push((
        "proto_len_u32_max",
        "length prefix u32::MAX must be rejected before any allocation",
        huge_len,
    ));

    // Frame header declaring exactly cap + 1 bytes.
    let mut over_cap = frame(FrameType::List, &[]);
    over_cap[8..12].copy_from_slice(&(proto::MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    cases.push((
        "proto_len_cap_plus_one",
        "length prefix one past MAX_FRAME_PAYLOAD must be rejected at the header",
        over_cap,
    ));

    // Header passes, declared payload never arrives.
    let hello_frame = {
        let mut e = Enc::new();
        e.u8(proto::PROTO_VERSION);
        frame(FrameType::Hello, &e.finish())
    };
    cases.push((
        "proto_truncated_payload",
        "declared payload cut short mid-read must fail as a truncated frame",
        hello_frame[..hello_frame.len() - 1].to_vec(),
    ));

    // CRC-corrupted HELLO.
    let mut bad_crc = hello_frame.clone();
    let last = bad_crc.len() - 1;
    bad_crc[last] ^= 0x01;
    cases.push((
        "proto_hello_bad_crc",
        "payload byte flipped without refixing the CRC must fail the integrity check",
        bad_crc,
    ));

    // HELLO_OK carrying a protocol version this build does not speak.
    let mut mismatch = Enc::new();
    mismatch.u8(42);
    mismatch.string("stz-serve/future");
    cases.push((
        "proto_hello_ok_version_mismatch",
        "handshake reply with version 42 must be refused by the client",
        frame(FrameType::HelloOk, &mismatch.finish()),
    ));

    // FETCH_OK whose dims promise more scalars than the payload carries:
    // drop one f32 and restamp length + CRC so only the dims check can
    // catch it.
    let field = stz_data::synth::miranda_like(Dims::d3(4, 3, 5), 21);
    let fetched = FetchedField {
        kind_tag: RequestKind::Full.tag(),
        type_tag: 0,
        dims: field.dims(),
        data: field.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect(),
    };
    let mut lying = frame(FrameType::FetchOk, &fetched.encode());
    lying.truncate(lying.len() - 4);
    assert!(refix_frame(&mut lying));
    cases.push((
        "proto_fetch_ok_lying_dims",
        "FETCH_OK with valid CRC but one scalar short of its dims must be rejected",
        lying,
    ));

    // Hostile METRICS_OK variants (valid frame CRC, hostile payload).
    let metrics = proto::encode_metrics_ok("stzp_requests_total 1\n");
    let mut wrong_version = metrics.clone();
    wrong_version[0] = 99;
    cases.push((
        "proto_metrics_bad_version",
        "METRICS_OK with exposition version 99 must be refused",
        frame(FrameType::MetricsOk, &wrong_version),
    ));
    cases.push((
        "proto_metrics_truncated",
        "METRICS_OK whose string is cut short must fail the payload decode",
        frame(FrameType::MetricsOk, &metrics[..metrics.len() - 3]),
    ));
    let mut trailing = metrics.clone();
    trailing.push(0xEE);
    cases.push((
        "proto_metrics_trailing_byte",
        "METRICS_OK with a trailing byte after the string must be rejected",
        frame(FrameType::MetricsOk, &trailing),
    ));

    // Hostile TRACE_OK variants (valid frame CRC, hostile payload).
    let trace_ok = proto::encode_trace_ok(&[stz_telemetry::trace::TraceRecord {
        trace_id: 7,
        kind: "full".into(),
        error: false,
        duration_ns: 1_000,
        dropped_spans: 0,
        spans: vec![stz_telemetry::trace::SpanRecord {
            id: 1,
            parent: 0,
            name: "request".into(),
            start_ns: 0,
            duration_ns: 1_000,
            attrs: vec![],
        }],
    }]);
    let mut trace_bad_version = trace_ok.clone();
    trace_bad_version[0] = 99;
    cases.push((
        "proto_trace_bad_version",
        "TRACE_OK with wire version 99 must be refused",
        frame(FrameType::TraceOk, &trace_bad_version),
    ));
    cases.push((
        "proto_trace_truncated_span_table",
        "TRACE_OK whose span table is cut short must fail the payload decode",
        frame(FrameType::TraceOk, &trace_ok[..trace_ok.len() - 6]),
    ));
    let mut trace_lying = trace_ok.clone();
    trace_lying[1..5].copy_from_slice(&1000u32.to_le_bytes());
    cases.push((
        "proto_trace_lying_count",
        "TRACE_OK claiming 1000 traces in a one-trace payload must be rejected",
        frame(FrameType::TraceOk, &trace_lying),
    ));

    // Fetch request whose trace-context extension lies about its version.
    let traced_req = FetchReq {
        container: "steps".into(),
        entry: EntrySel::Index(0),
        kind: RequestKind::Full,
        trace: Some(proto::TraceContextExt { trace_id: 5, parent_span: 6 }),
    };
    let mut bad_ext = traced_req.encode();
    let at = bad_ext.len() - 17;
    bad_ext[at] = 99;
    cases.push((
        "proto_fetch_trace_ext_bad_version",
        "fetch whose trace-context suffix claims version 99 must be a clean protocol error",
        frame(FrameType::FetchFull, &bad_ext),
    ));

    // Unknown frame kind with a valid header.
    let mut unknown = frame(FrameType::List, &[]);
    unknown[5] = 0x55;
    cases.push(("proto_unknown_kind", "kind byte 0x55 is not a known frame type", unknown));

    // Fetch request whose entry-selector tag is garbage.
    let req = FetchReq {
        container: "steps".into(),
        entry: EntrySel::Index(0),
        kind: RequestKind::Full,
        trace: None,
    };
    let mut payload = req.encode();
    // The selector follows the container string ("steps" = 1 length byte
    // + 5 bytes); smash everything after it to an invalid tag value.
    let split = 6.min(payload.len());
    for b in &mut payload[split..] {
        *b = 0xEF;
    }
    cases.push((
        "proto_fetch_bad_selector",
        "fetch request with a mangled entry selector must be a clean protocol error",
        frame(FrameType::FetchFull, &payload),
    ));

    cases
}

fn container_cases() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let valid = valid_container();
    let mut cases = Vec::new();

    let mut bad_header = valid.clone();
    bad_header[0] = b'X';
    cases.push((
        "container_bad_header_magic",
        "first magic byte corrupted must be rejected at open",
        bad_header,
    ));

    let mut bad_trailer = valid.clone();
    let n = bad_trailer.len();
    bad_trailer[n - 1] = b'X';
    cases.push((
        "container_bad_trailer_magic",
        "trailer magic corrupted must be rejected at open",
        bad_trailer,
    ));

    // Footer byte flipped without refixing the trailer CRC.
    let mut bad_footer_crc = valid.clone();
    let trailer_at = bad_footer_crc.len() - stz_stream::format::TRAILER_LEN as usize;
    let footer_off =
        u64::from_le_bytes(bad_footer_crc[trailer_at..trailer_at + 8].try_into().unwrap()) as usize;
    bad_footer_crc[footer_off + 2] ^= 0xFF;
    cases.push((
        "container_footer_crc_mismatch",
        "footer corruption must be caught by the trailer CRC",
        bad_footer_crc,
    ));

    cases.push((
        "container_truncated_trailer",
        "container cut inside the trailer must be rejected as truncated",
        valid[..valid.len() - 7].to_vec(),
    ));

    // Entry whose declared dims describe 8 TiB: the decode guard must
    // reject it before any buffer is sized from it.
    let zfp = registry().by_name("zfp").expect("zfp registered");
    let mut w = ContainerWriter::new(Vec::new()).expect("vec write");
    let huge = Dims::d3(1 << 13, 1 << 13, 1 << 13);
    w.add_foreign("huge", &ForeignArchive::new::<f32>(zfp.id(), huge, 1e-3, vec![0u8; 64]))
        .expect("add foreign");
    cases.push((
        "container_huge_dims_entry",
        "entry declaring 2^39 points must be refused by the decode-allocation guard",
        w.finish().expect("finish"),
    ));

    // Foreign payload truncated, then deep-refixed so every CRC gate
    // passes and the codec itself must reject the bytes.
    let field = stz_data::synth::miranda_like(Dims::d3(8, 6, 10), 31);
    let zbytes =
        stz_backend::compress(zfp, &field, &ErrorBound::Absolute(1e-3)).expect("zfp compress");
    let mut w = ContainerWriter::new(Vec::new()).expect("vec write");
    w.add_foreign("z", &ForeignArchive::new::<f32>(zfp.id(), Dims::d3(8, 6, 10), 1e-3, zbytes))
        .expect("add foreign");
    let packed = w.finish().expect("finish");
    let mut cut = packed.clone();
    // Zero a run of payload bytes (the payload starts right after the
    // 8-byte header) and restamp all section CRCs over the damage.
    for b in &mut cut[16..32] {
        *b = 0;
    }
    let refixed = refix_container(&cut, true).expect("container-shaped");
    cases.push((
        "container_foreign_damaged_deep_refix",
        "payload damage hidden behind restamped CRCs must still fail in the codec",
        refixed,
    ));

    // --- Mutable (v3) containers: generation slots, dead sections, torn
    // tails. Built through the real commit protocol so the pinned bytes
    // track the writer exactly.
    let compressor = stz_core::StzCompressor::new(stz_core::StzConfig::three_level(1e-3));
    let g0 = compressor
        .compress(&stz_data::synth::miranda_like(Dims::d3(6, 5, 4), 8))
        .expect("compress");
    let g1 = compressor
        .compress(&stz_data::synth::miranda_like(Dims::d3(6, 5, 4), 9))
        .expect("compress");
    let mut m = MutableContainer::create(MemBacking::empty()).expect("mem container");
    m.append("g0", &PackEntry::from(g0)).expect("append");
    m.append("g1", &PackEntry::from(g1.clone())).expect("append");
    m.commit().expect("commit generation 2");
    let len_gen2 = m.backing().as_bytes().len();
    m.delete("g1").expect("delete");
    m.append("g2", &PackEntry::from(g1)).expect("append");
    m.commit().expect("commit generation 3");
    let v3 = m.into_backing().into_bytes();

    cases.push((
        "container_v3_multi_generation_live",
        "three-generation container with dead sections must read cleanly at its newest generation",
        v3.clone(),
    ));

    // Cut mid-way through generation 3's staged bytes: the newest slot
    // points past EOF, so the reader must fall back to generation 2.
    let torn_tail = v3[..len_gen2 + (v3.len() - len_gen2) / 2].to_vec();
    cases.push((
        "container_v3_torn_tail_recovers_previous_generation",
        "a tail torn mid-commit must fall back to the previous committed generation",
        torn_tail,
    ));

    let mut both_torn = v3.clone();
    for b in &mut both_torn[stz_stream::format::GEN_SLOT_OFFSETS[0] as usize
        ..stz_stream::format::MUTABLE_DATA_START as usize]
    {
        *b ^= 0xFF;
    }
    cases.push((
        "container_v3_both_slots_torn",
        "both generation slots corrupted must be a clean torn-container error",
        both_torn,
    ));

    // Damage confined to dead bytes — the orphaned generation-2 footer,
    // whose last byte sits at len_gen2 - 1 — must not affect reads of the
    // live generation.
    let mut dead_damaged = v3.clone();
    dead_damaged[len_gen2 - 10] ^= 0xFF;
    cases.push((
        "container_v3_dead_region_damaged",
        "damage confined to the orphaned previous footer must not affect the live generation",
        dead_damaged,
    ));

    // An index whose STZ entry declares a finest bound of 5e-324: its
    // coarser levels' bounds underflow to zero. Only the trailer's footer
    // CRC is restamped, so the index parser itself must refuse it.
    let mut subnormal = valid.clone();
    let eb = 1e-3f64.to_le_bytes();
    let at = subnormal.windows(8).rposition(|w| w == eb).expect("footer error bound");
    subnormal[at..at + 8].copy_from_slice(&5e-324f64.to_le_bytes());
    cases.push((
        "container_stz_entry_subnormal_error_bound",
        "an index bound whose level bounds underflow must be Corrupt, not a quantizer panic",
        refix_container(&subnormal, false).expect("container-shaped"),
    ));

    cases.push((
        "container_v3_upgraded_from_v2",
        "a v2 container upgraded in place must read identically under the v3 slot protocol",
        upgrade_image(&valid).expect("upgrade v2 image"),
    ));

    cases
}

fn codec_cases() -> Vec<(String, &'static str, Vec<u8>)> {
    let mut cases = Vec::new();

    // Huge-dims headers for every registered codec: compress a tiny field,
    // then splice absurd extents into the varint dims the headers share
    // (magic[4] version type ndim, then three uvarint extents). A 5-byte
    // varint (0xFF 0xFF 0xFF 0xFF 0x0F) encodes 2^32-1 per axis.
    let field: Field<f32> = stz_data::synth::miranda_like(Dims::d3(4, 4, 4), 17);
    for codec in registry().all() {
        let valid =
            stz_backend::compress(codec, &field, &ErrorBound::Absolute(1e-3)).expect("compress");
        let mut hostile = valid[..7].to_vec(); // magic + version + type_tag
        hostile.push(3); // ndim
        for _ in 0..3 {
            hostile.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        }
        // Carry the rest of the real archive so parsing continues past dims
        // if the guard were ever skipped.
        hostile.extend_from_slice(&valid[11..]);
        let name = format!("codec_{}_huge_dims", codec.name());
        cases.push((name, "declared 2^96 points must be rejected before allocation", hostile));
    }

    // Fuzzer-found: ZFP header with ndim=1 but nz/ny != 1 used to panic in
    // Dims::from_parts instead of returning Corrupt. Minimized input from
    // seed 0x1, iteration 332.
    cases.push((
        "codec_zfp_ndim_dims_mismatch".to_string(),
        "ndim=1 with 3-D extents must be Corrupt, not a Dims assert panic",
        vec![0x5A, 0x46, 0x50, 0x52, 0x01, 0x01, 0x01, 0x03, 0x06, 0x62],
    ));

    // Fuzzer-found: SZ3 archive whose embedded huffman table declares
    // 2^30-1 entries (8 GiB reservation) while the input holds a few dozen
    // bytes. Minimized input from seed 0x1, iteration 622.
    let mut sz3_lying_table = vec![
        0x53, 0x5A, 0x33, 0x52, // "SZ3R"
        0x01, 0x01, 0x03, // version, f64, ndim=3
        0x04, 0x05, 0x06, // dims 4x5x6
        0xFC, 0xA9, 0xF1, 0xD2, 0x4D, 0x62, 0x50, 0x3F, // eb
        0x60, // radius
        0x01, // cubic
        0x50, // code block length 80
        0xFF, 0xFF, 0xFF, 0xFF, 0x03, // huffman table count 2^30-1
    ];
    sz3_lying_table.resize(101, 0x42);
    // An STZ archive whose finest bound (bytes 21..29 of a 16^3 archive) is
    // 5e-324: the coarser levels' bounds underflow to zero.
    let field: Field<f32> = stz_data::synth::miranda_like(Dims::d3(16, 16, 16), 23);
    let mut subnormal = stz_core::StzCompressor::new(stz_core::StzConfig::three_level(1e-3))
        .compress(&field)
        .expect("compress")
        .into_bytes();
    subnormal[21..29].copy_from_slice(&5e-324f64.to_le_bytes());
    cases.push((
        "codec_stz_subnormal_error_bound".to_string(),
        "a finest bound whose level bounds underflow must be Corrupt, not a quantizer panic",
        subnormal,
    ));

    cases.push((
        "codec_sz3_lying_huffman_table".to_string(),
        "huffman table count far beyond the input size must be Corrupt, not an 8 GiB reserve",
        sz3_lying_table,
    ));

    cases
}

fn main() -> ExitCode {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("tests/corpus/regressions"));

    let container = ContainerTarget;
    let proto_t = ProtoTarget;
    let codec = CodecTarget;
    type Cases = Vec<(String, &'static str, Vec<u8>)>;
    let own = |v: Vec<(&'static str, &'static str, Vec<u8>)>| -> Cases {
        v.into_iter().map(|(n, d, b)| (n.to_string(), d, b)).collect()
    };
    let groups: Vec<(&dyn FuzzTarget, Cases)> = vec![
        (&proto_t, own(proto_cases())),
        (&container, own(container_cases())),
        (&codec, codec_cases()),
    ];

    let mut wrote = 0usize;
    for (target, cases) in groups {
        for (name, note, bytes) in cases {
            // Classify with the current parsers; replaying later asserts the
            // class is stable. A pinned hostile case must never classify as
            // a clean full success.
            let outcome = match stz_fuzz::replay(target, &bytes) {
                Ok(o) => o,
                Err(panic_msg) => {
                    eprintln!("{name}: input PANICS ({panic_msg}) — fix the parser first");
                    return ExitCode::FAILURE;
                }
            };
            let rep = Reproducer {
                target: target.name().into(),
                seed: 0,
                iteration: 0,
                signature: outcome.signature(target.name()),
                note: note.into(),
                bytes,
            };
            match rep.write_to(&dir, &name) {
                Ok(path) => {
                    println!("{} <- {}", path.display(), rep.signature);
                    wrote += 1;
                }
                Err(e) => {
                    eprintln!("{name}: write failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("{wrote} corpus cases written to {}", dir.display());
    ExitCode::SUCCESS
}
