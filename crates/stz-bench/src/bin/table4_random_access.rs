//! Table 4: time breakdown (seconds) to decompress (a) the full Miranda
//! dataset, (b) a 3-D ROI box, and (c) a 2-D slice, via random-access
//! decompression.
//!
//! Stages mirror the paper's columns: L1 SZ3 | L2 dec. | L2 pre. | L2 rec.
//! | L3 dec. | L3 pre. | L3 rec. | Sum. The box is 100³ at paper scale
//! (scaled with `--scale`); the slice is a full z-plane.

use stz_bench::cli;
use stz_core::{StzArchive, StzCompressor, StzConfig};
use stz_data::Dataset;
use stz_field::Region;

fn main() {
    let opts = cli::from_env();
    let dims = Dataset::Miranda.scaled_dims(opts.scale);
    let field = match Dataset::Miranda.generate(dims, opts.seed) {
        stz_data::DatasetField::F32(f) => f,
        _ => unreachable!(),
    };
    let (lo, hi) = field.value_range();
    let eb = 1e-3 * (hi - lo);
    let archive: StzArchive<f32> =
        StzCompressor::new(StzConfig::three_level(eb)).compress(&field).expect("compress");

    let box_edge = (100 / opts.scale).clamp(4, dims.nz().min(dims.ny()).min(dims.nx()));
    let b0z = (dims.nz() - box_edge) / 2;
    let b0y = (dims.ny() - box_edge) / 2;
    let b0x = (dims.nx() - box_edge) / 2;
    let cases = [
        ("All", Region::full(dims)),
        ("Box", Region::d3(b0z..b0z + box_edge, b0y..b0y + box_edge, b0x..b0x + box_edge)),
        ("Slice", Region::slice_z(dims, dims.nz() / 2)),
    ];

    println!("# Table 4: random-access decompression time breakdown (s)");
    println!(
        "# Miranda-like {dims}, CR {:.0}; box {box_edge}^3; slice 1x{}x{}",
        archive.compression_ratio(),
        dims.ny(),
        dims.nx()
    );
    println!(
        "case,l1_sz3,l2_dec,l2_pre,l2_rec,l3_dec,l3_pre,l3_rec,sum,decoded_blocks,skipped_blocks"
    );
    for (name, region) in cases {
        // A clone has decoded nothing, so each case pays for level 1 as the
        // paper's does; the archive itself would keep it from the first.
        let cold = archive.clone();
        let (_, bd) = cold.decompress_region_with_breakdown(&region).expect("random access");
        let l2 = &bd.levels[0];
        let l3 = &bd.levels[1];
        println!(
            "{name},{:.3},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.3},{},{}",
            bd.l1_sz3,
            l2.decode,
            l2.predict,
            l2.reconstruct,
            l3.decode,
            l3.predict,
            l3.reconstruct,
            bd.total,
            l2.decoded_blocks + l3.decoded_blocks,
            l2.skipped_blocks + l3.skipped_blocks,
        );
    }
}
