//! Compare all five compressors of the paper's evaluation on one workload:
//! rate-distortion and wall-clock speed (a miniature of Fig. 11 + Table 3).
//!
//! ```text
//! cargo run --release --example compare_compressors
//! ```

use std::time::Instant;
use stz::data::{metrics, synth};
use stz::prelude::*;

fn main() {
    let dims = Dims::d3(64, 64, 64);
    let field: Field<f32> = synth::magrec_like(dims, 3);
    let (lo, hi) = field.value_range();
    let eb = 1e-3 * (hi - lo);
    println!("workload: magnetic-reconnection-like {dims}, abs eb {eb:.2e}");
    println!(
        "{:<8} {:>8} {:>10} {:>8} {:>10} {:>10}",
        "codec", "CR", "PSNR(dB)", "SSIM", "comp(s)", "decomp(s)"
    );

    // STZ (this crate).
    run(
        "STZ",
        &field,
        eb,
        |f, e| {
            StzCompressor::new(StzConfig::three_level(e))
                .compress(f)
                .expect("compress")
                .into_bytes()
        },
        |b| StzArchive::<f32>::from_bytes(b.to_vec()).and_then(|a| a.decompress()),
    );

    // SZ3-style baseline.
    run(
        "SZ3",
        &field,
        eb,
        |f, e| stz::sz3::compress(f, &stz::sz3::Sz3Config::absolute(e)).expect("compress"),
        stz::sz3::decompress,
    );

    // SPERR-style baseline.
    run(
        "SPERR",
        &field,
        eb,
        |f, e| stz::sperr::compress(f, &stz::sperr::SperrConfig::new(e)),
        stz::sperr::decompress,
    );

    // ZFP-style baseline.
    run(
        "ZFP",
        &field,
        eb,
        |f, e| stz::zfp::compress(f, &stz::zfp::ZfpConfig::new(e)),
        stz::zfp::decompress,
    );

    // MGARD-style baseline.
    run(
        "MGARD",
        &field,
        eb,
        |f, e| stz::mgard::compress(f, &stz::mgard::MgardConfig::new(e)).expect("compress"),
        stz::mgard::decompress,
    );
}

fn run(
    name: &str,
    field: &Field<f32>,
    eb: f64,
    compress: impl Fn(&Field<f32>, f64) -> Vec<u8>,
    decompress: impl Fn(&[u8]) -> Result<Field<f32>, stz::codec::CodecError>,
) {
    let t = Instant::now();
    let bytes = compress(field, eb);
    let comp_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let recon = decompress(&bytes).expect("decompress");
    let decomp_s = t.elapsed().as_secs_f64();
    let q = metrics::summarize(field, &recon, bytes.len());
    assert!(q.max_err <= eb * (1.0 + 1e-6), "{name} violated the bound");
    println!(
        "{name:<8} {:>8.1} {:>10.1} {:>8.3} {comp_s:>10.3} {decomp_s:>10.3}",
        q.compression_ratio, q.psnr, q.ssim
    );
}
