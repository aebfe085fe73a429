//! Figure 13: progressive decompression of the Miranda dataset — SSIM and
//! decompression time at 1/4, 1/2, and full resolution (paper: 256³, 512³,
//! 1024³ of the 1024³ field; CR 447 at full resolution).

use stz_bench::{calibrate, cli, timing};
use stz_core::StzArchive;
use stz_data::{metrics, Dataset};

fn main() {
    let opts = cli::from_env();
    let dims = Dataset::Miranda.scaled_dims(opts.scale);
    let field = match Dataset::Miranda.generate(dims, opts.seed) {
        stz_data::DatasetField::F32(f) => f,
        _ => unreachable!(),
    };

    // The paper quotes CR 447 for the full-resolution Miranda archive.
    let (eb, bytes) = calibrate::eb_for_target_cr(&field, 447.0, 0.1, |f, e| {
        stz_core::StzCompressor::new(stz_core::StzConfig::three_level(e))
            .compress(f)
            .expect("compress")
            .into_bytes()
    });
    let archive = StzArchive::<f32>::from_bytes(bytes).expect("parse");

    println!(
        "# Figure 13: progressive decompression of Miranda (CR {:.0}, eb {eb:.2e})",
        archive.compression_ratio()
    );
    println!("resolution,points,decomp_time_s,bytes_read,ssim_vs_downsample");
    for level in 1..=archive.num_levels() {
        // Each repetition on a clone, which has no decoded level 1 to resume
        // from: the time is a preview's from the bytes alone.
        let (t, preview) = timing::time_best(opts.reps, || {
            archive.clone().decompress_level(level).expect("decompress level")
        });
        let stride = 1usize << (archive.num_levels() - level);
        let reference = field.downsample(stride);
        let ssim = metrics::ssim(&reference, &preview);
        println!(
            "{},{},{t:.3},{},{ssim:.3}",
            preview.dims(),
            preview.len(),
            archive.bytes_through_level(level)
        );
    }
}
