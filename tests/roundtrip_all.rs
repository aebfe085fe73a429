//! Cross-crate integration: **every registered backend** honours its error
//! bound on every (miniaturized) evaluation dataset, in **both** element
//! types.
//!
//! The matrix is driven by the `stz-backend` registry, so a newly
//! registered codec is covered automatically — and no codec can be
//! silently skipped the way the pre-registry version of this file skipped
//! the baselines' f64 coverage.
//!
//! Compression is deterministic, so the same matrix also pins each cell's
//! compressed length ([`PINNED_LEN`]): a change that costs any backend more
//! than 10% of its ratio on any dataset fails here.

use stz::backend::{registry, BackendScalar, Codec, ErrorBound};
use stz::data::{metrics, Dataset, DatasetField};
use stz::prelude::*;

const REL_EB: f64 = 1e-3;

/// Compressed length of every `(backend, dataset)` cell of
/// [`all_fields`], in `Dataset::all()` order, as measured at the parent of
/// the commit that introduced this table. Smaller output always passes;
/// after an intentional trade-off, re-measure and update the row.
const PINNED_LEN: [(&str, [usize; 4]); 5] = [
    ("stz", [15062, 5841, 28849, 134237]),
    ("sz3", [13162, 4923, 23174, 112644]),
    ("zfp", [31011, 14438, 39689, 225193]),
    ("sperr", [25718, 5747, 35704, 147402]),
    ("mgard", [13034, 6366, 24255, 121330]),
];

/// Largest tolerated growth of a pinned length (a 10% ratio drop).
const LEN_TOLERANCE: f64 = 1.10;

fn all_fields() -> Vec<(Dataset, DatasetField)> {
    Dataset::all()
        .into_iter()
        .map(|d| {
            let dims = d.scaled_dims(16);
            (d, d.generate(dims, 77))
        })
        .collect()
}

/// Compress + decompress `field` with `codec` at a value-range-relative
/// bound and assert the three invariants of the backend contract: dims
/// survive, the point-wise bound holds, and the archive actually shrank.
/// Returns the compressed length.
fn assert_roundtrip<T: BackendScalar>(codec: &dyn Codec, label: &str, field: &Field<T>) -> usize {
    let (lo, hi) = field.value_range();
    let eb = REL_EB * (hi - lo);
    let bytes = stz::backend::compress(codec, field, &ErrorBound::Absolute(eb))
        .unwrap_or_else(|e| panic!("{label}: compression failed: {e}"));
    let recon: Field<T> = stz::backend::decompress(codec, &bytes)
        .unwrap_or_else(|e| panic!("{label}: decompression failed: {e}"));
    assert_eq!(recon.dims(), field.dims(), "{label}: dims");
    let err = metrics::max_abs_error(field, &recon);
    assert!(err <= eb * (1.0 + 1e-6), "{label}: err {err} > eb {eb}");
    assert!(bytes.len() < field.nbytes(), "{label}: no compression ({} bytes)", bytes.len());
    bytes.len()
}

#[test]
fn every_backend_bounds_on_all_datasets() {
    let fields = all_fields();
    for codec in registry().all() {
        let pinned = PINNED_LEN
            .iter()
            .find(|(name, _)| *name == codec.name())
            .unwrap_or_else(|| panic!("{}: add a PINNED_LEN row", codec.name()))
            .1;
        assert_eq!(pinned.len(), fields.len(), "one pinned length per dataset");
        for ((d, field), pinned) in fields.iter().zip(pinned) {
            let label = format!("{}/{}", d.name(), codec.name());
            let len = match field {
                DatasetField::F32(f) => assert_roundtrip(codec, &label, f),
                DatasetField::F64(f) => assert_roundtrip(codec, &label, f),
            };
            assert!(
                len as f64 <= pinned as f64 * LEN_TOLERANCE,
                "{label}: {len} bytes is over 10% above the pinned {pinned}"
            );
        }
    }
}

#[test]
fn every_backend_roundtrips_f64_warpx() {
    // WarpX is the paper's only f64 dataset; give it explicit coverage at
    // its aspect ratio on top of the matrix above.
    let f = stz::data::synth::warpx_like(Dims::d3(16, 16, 96), 5);
    for codec in registry().all() {
        assert_roundtrip(codec, codec.name(), &f);
    }
}

#[test]
fn every_backend_roundtrips_low_dimensional_fields() {
    // 1-D and 2-D grids exercise each engine's dimension-dependent code
    // paths (ZFP's 4^d blocks, the wavelet/multigrid level counts).
    let d1: Field<f32> = Field::from_fn(Dims::d1(257), |_, _, x| (x as f32 * 0.05).sin());
    let d2: Field<f32> =
        Field::from_fn(Dims::d2(33, 49), |_, y, x| (y as f32 * 0.2).cos() + x as f32 * 0.01);
    for codec in registry().all() {
        assert_roundtrip(codec, &format!("{}/1d", codec.name()), &d1);
        assert_roundtrip(codec, &format!("{}/2d", codec.name()), &d2);
    }
}

#[test]
fn archives_are_mutually_unreadable() {
    // Every codec must reject every other codec's archives cleanly — the
    // registry relies on distinct magics for sniffing.
    let f = stz::data::synth::miranda_like(Dims::d3(12, 12, 12), 1);
    let archives: Vec<(&str, Vec<u8>)> =
        registry().all().map(|c| (c.name(), c.compress_f32(&f, 1e-3).expect("compress"))).collect();
    for consumer in registry().all() {
        for (producer, bytes) in &archives {
            if *producer == consumer.name() {
                continue;
            }
            assert!(
                consumer.decompress_f32(bytes).is_err(),
                "{} decoded a {} archive",
                consumer.name(),
                producer
            );
            assert!(
                consumer.decompress_f64(bytes).is_err(),
                "{} decoded a {} archive as f64",
                consumer.name(),
                producer
            );
        }
    }
}

#[test]
fn wrong_element_type_rejected() {
    // An f32 archive must not decode as f64 (and vice versa): the type tag
    // is part of every engine's header.
    let f = stz::data::synth::miranda_like(Dims::d3(10, 10, 10), 2);
    for codec in registry().all() {
        let bytes = codec.compress_f32(&f, 1e-3).expect("compress");
        assert!(
            codec.decompress_f64(&bytes).is_err(),
            "{}: f32 archive decoded as f64",
            codec.name()
        );
    }
}
