//! Progressive decompression: reconstruct coarse previews of a large field
//! from a fraction of the archive, then refine to full resolution — the
//! paper's Fig. 13 workflow.
//!
//! ```text
//! cargo run --release --example progressive_preview
//! ```

use stz::data::{metrics, synth};
use stz::prelude::*;

fn main() {
    let dims = Dims::d3(96, 96, 96);
    let field: Field<f32> = synth::miranda_like(dims, 7);

    let archive =
        StzCompressor::new(StzConfig::three_level(5e-3)).compress(&field).expect("compression");
    println!(
        "archive: {} bytes for {} (CR {:.1}x)",
        archive.compressed_len(),
        dims,
        archive.compression_ratio()
    );

    // Walk the hierarchy coarse-to-fine with the incremental decoder. Each
    // step costs only that level's decode; the coarsest preview reads ~2% of
    // the archive bytes.
    let mut decoder = archive.progressive();
    while let Some(next_dims) = decoder.next_dims() {
        let extra_bytes = decoder.next_bytes();
        let preview = decoder.next_level().expect("decode").expect("level");
        assert_eq!(preview.dims(), next_dims);

        // Quality of the preview against the matching downsample of the
        // original (what a viewer would compare it to).
        let stride = dims.nx() / next_dims.nx();
        let reference = field.downsample(stride);
        let ssim = metrics::ssim(&reference, &preview);
        println!(
            "level {}: {next_dims} ({:5.1}% of points), +{extra_bytes} bytes, SSIM {ssim:.3}",
            decoder.levels_decoded(),
            100.0 * preview.len() as f64 / field.len() as f64,
        );
    }

    // The final refinement equals a direct full decompression.
    let full = archive.progressive().decode_to(archive.num_levels()).expect("full");
    assert_eq!(full, archive.decompress().expect("decompress"));
    println!("progressive refinement converges to the full reconstruction ✓");
}
