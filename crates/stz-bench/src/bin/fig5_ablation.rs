//! Figure 5: rate-distortion ablation of STZ's prediction optimizations on
//! the Nyx dataset — all seven variants plus the SZ3 reference curve.
//!
//! Each printed series corresponds to one curve of the paper's Figure 5;
//! points are (compression ratio, PSNR) pairs over an error-bound sweep.

use stz_bench::cli;
use stz_core::ablation::{compress_variant, decompress_variant, AblationVariant};
use stz_data::{metrics, Dataset};

const REL_EBS: [f64; 7] = [2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4];

fn main() {
    let opts = cli::from_env();
    let dims = Dataset::Nyx.scaled_dims(opts.scale);
    let field = match Dataset::Nyx.generate(dims, opts.seed) {
        stz_data::DatasetField::F32(f) => f,
        _ => unreachable!(),
    };
    let (lo, hi) = field.value_range();
    let range = hi - lo;

    println!("# Figure 5: rate-distortion of direct partition, our optimizations, and SZ3");
    println!("# workload: Nyx-like {dims}");
    println!("variant,rel_eb,cr,psnr_db");
    for variant in AblationVariant::all() {
        for rel in REL_EBS {
            let eb = rel * range;
            let bytes = compress_variant(&field, variant, eb).expect("compress");
            let recon = decompress_variant::<f32>(&bytes).expect("decompress");
            let cr = field.nbytes() as f64 / bytes.len() as f64;
            let psnr = metrics::psnr(&field, &recon);
            println!("{},{rel:.0e},{cr:.1},{psnr:.2}", variant.label());
        }
    }
    // SZ3 reference curve (compressing the unpartitioned data).
    for rel in REL_EBS {
        let eb = rel * range;
        let bytes = stz_sz3::compress(&field, &stz_sz3::Sz3Config::absolute(eb)).expect("compress");
        let recon: stz_field::Field<f32> = stz_sz3::decompress(&bytes).expect("decompress");
        let cr = field.nbytes() as f64 / bytes.len() as f64;
        let psnr = metrics::psnr(&field, &recon);
        println!("SZ3,{rel:.0e},{cr:.1},{psnr:.2}");
    }
    let _ = opts.threads;
}
