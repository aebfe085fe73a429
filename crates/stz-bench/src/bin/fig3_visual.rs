//! Figure 3: visual quality on Nyx's baryon-density field at matched
//! compression ratio (paper: CR ≈ 205): naive partition vs SZ3 vs STZ.
//!
//! The paper's figure is a rendered slice; its caption quantifies the
//! comparison as SSIM/PSNR at CR 204/205/206 — those are the numbers this
//! binary regenerates (SSIM on the central 2-D slice, PSNR on the volume).

use stz_bench::{calibrate, cli};
use stz_core::ablation::{compress_variant, decompress_variant, AblationVariant};
use stz_data::{metrics, Dataset};
use stz_field::Field;

fn main() {
    let opts = cli::from_env();
    let dims = Dataset::Nyx.scaled_dims(opts.scale);
    let field = match Dataset::Nyx.generate(dims, opts.seed) {
        stz_data::DatasetField::F32(f) => f,
        _ => unreachable!(),
    };
    // The paper matches all methods at CR ≈ 205 on the full 512³ snapshot.
    // Synthetic laptop-scale fields are rougher per grid cell, so we match
    // at the CR SZ3 achieves at a reference quality point instead — the
    // comparison stays matched-CR, which is what Fig. 3 is about. Running
    // with --scale 1 approaches the paper's regime.
    let (lo, hi) = field.value_range();
    let ref_bytes = stz_sz3::compress(&field, &stz_sz3::Sz3Config::absolute(2e-4 * (hi - lo)))
        .expect("compress");
    let target_cr = field.nbytes() as f64 / ref_bytes.len() as f64;

    println!("# Figure 3: Partition vs SZ3 vs STZ on Nyx at matched CR (~{target_cr:.0})");
    println!("method,cr,psnr_db,ssim_slice,ssim_volume");

    let mid = field.dims().nz() / 2;
    // Baryon density spans ~4 decades; the paper's renderings (and any
    // useful slice comparison) are effectively log-scaled, so the slice
    // SSIM is computed on log10(1 + v) — the numeric analogue of the
    // colormapped image comparison.
    let log_map = |f: &Field<f32>| f.map(|v| (1.0 + v.max(0.0)).log10());
    let report = |name: &str, bytes: &[u8], recon: &Field<f32>| {
        let cr = field.nbytes() as f64 / bytes.len() as f64;
        let psnr = metrics::psnr(&field, recon);
        let ssim_slice =
            metrics::ssim(&log_map(&field.slice_z(mid)), &log_map(&recon.slice_z(mid)));
        let ssim_vol = metrics::ssim(&field, recon);
        println!("{name},{cr:.0},{psnr:.1},{ssim_slice:.3},{ssim_vol:.3}");
    };

    // Naive partition ("Partition", Fig. 3b).
    let (_, bytes) = calibrate::eb_for_target_cr(&field, target_cr, 0.05, |f, eb| {
        compress_variant(f, AblationVariant::PartitionOnly, eb).expect("compress")
    });
    let recon = decompress_variant::<f32>(&bytes).expect("decompress");
    report("Partition", &bytes, &recon);

    // SZ3 on the unpartitioned data (Fig. 3c).
    let (_, bytes) = calibrate::eb_for_target_cr(&field, target_cr, 0.05, |f, eb| {
        stz_sz3::compress(f, &stz_sz3::Sz3Config::absolute(eb)).expect("compress")
    });
    let recon: Field<f32> = stz_sz3::decompress(&bytes).expect("decompress");
    report("SZ3", &bytes, &recon);

    // STZ with all optimizations (Fig. 3d).
    let (_, bytes) = calibrate::eb_for_target_cr(&field, target_cr, 0.05, |f, eb| {
        compress_variant(f, AblationVariant::ThreeLevelAll, eb).expect("compress")
    });
    let recon = decompress_variant::<f32>(&bytes).expect("decompress");
    report("Ours", &bytes, &recon);
}
