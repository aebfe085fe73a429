//! # stz-backend — one codec abstraction over every compressor
//!
//! The workspace implements five error-bounded lossy compressors: the
//! native streaming STZ compressor (`stz-core`) and the four baselines the
//! paper evaluates against (`stz-sz3`, `stz-zfp`, `stz-sperr`,
//! `stz-mgard`). This crate unifies them behind a single [`Codec`] trait
//! and a name-/id-keyed [`Registry`], so the CLI, the STZC container and
//! the benchmark harness can select a compression engine at runtime:
//!
//! ```
//! use stz_backend::{registry, ErrorBound};
//! use stz_field::{Dims, Field};
//!
//! let field = Field::from_fn(Dims::d3(12, 12, 12), |z, y, x| {
//!     ((z as f32) * 0.3).sin() + ((y as f32) * 0.2).cos() + x as f32 * 0.01
//! });
//! for codec in registry().all() {
//!     let bytes =
//!         stz_backend::compress(codec, &field, &ErrorBound::Absolute(1e-3)).unwrap();
//!     let back: Field<f32> = stz_backend::decompress(codec, &bytes).unwrap();
//!     assert_eq!(back.dims(), field.dims());
//! }
//! ```
//!
//! The trait surface is deliberately the common denominator — compress and
//! decompress a whole [`Field`] under an absolute error bound. Engine
//! specialities (STZ's progressive levels and ROI decoding, ZFP's
//! per-block random access, SPERR's precision previews) stay on the
//! engines' own APIs; see `docs/BACKENDS.md` for the contract and the
//! codec-id table.

#![warn(missing_docs)]

pub mod backends;
pub mod registry;

pub use backends::{Mgard, Sperr, Stz, Sz3, Zfp};
pub use registry::{registry, Registry};
pub use stz_codec::{CodecError, Result};
pub use stz_sz3::ErrorBound;

use stz_field::{Dims, Field, Scalar};

/// Stable wire identifiers for the built-in codecs.
///
/// These bytes are recorded per entry in the STZC container (format v2)
/// and must never be reassigned; add new codecs at the end.
pub mod id {
    /// Native STZ streaming compressor (`stz-core`).
    pub const STZ: u8 = 0;
    /// SZ3-style interpolation compressor (`stz-sz3`).
    pub const SZ3: u8 = 1;
    /// ZFP-style block-transform compressor (`stz-zfp`).
    pub const ZFP: u8 = 2;
    /// SPERR-style wavelet compressor (`stz-sperr`).
    pub const SPERR: u8 = 3;
    /// MGARD-style multigrid compressor (`stz-mgard`).
    pub const MGARD: u8 = 4;
}

/// A whole-field error-bounded compression engine.
///
/// The trait is object-safe: element types are covered by paired
/// `f32`/`f64` methods, and the generic entry points
/// [`compress`]/[`decompress`] dispatch on [`Scalar::TYPE_TAG`]. The
/// contract every implementation must honour (and that
/// `tests/roundtrip_all.rs` plus the property suite enforce):
///
/// * **Error bound** — `compress(field, eb)` followed by `decompress`
///   reconstructs every point to within `eb` (point-wise absolute).
/// * **Self-contained archives** — the returned bytes carry everything
///   needed to decompress (dims, element type, parameters); decompression
///   takes no side channel.
/// * **Total decoding** — `decompress_*` on arbitrary bytes returns an
///   error, never panics, and rejects other codecs' archives (distinct
///   magic).
/// * **Determinism** — identical input and bound produce identical bytes.
pub trait Codec: Send + Sync + std::fmt::Debug {
    /// Stable wire identifier (see [`id`]); recorded in container entries.
    fn id(&self) -> u8;

    /// Registry key and display name (lowercase, e.g. `"sz3"`).
    fn name(&self) -> &'static str;

    /// The 4-byte magic opening this codec's archives (used to sniff the
    /// codec of a bare archive file).
    fn magic(&self) -> [u8; 4];

    /// Compress an `f32` field under absolute point-wise bound `eb`.
    fn compress_f32(&self, field: &Field<f32>, eb: f64) -> Result<Vec<u8>>;

    /// Compress an `f64` field under absolute point-wise bound `eb`.
    fn compress_f64(&self, field: &Field<f64>, eb: f64) -> Result<Vec<u8>>;

    /// Decompress an archive produced by [`Codec::compress_f32`].
    fn decompress_f32(&self, bytes: &[u8]) -> Result<Field<f32>>;

    /// Decompress an archive produced by [`Codec::compress_f64`].
    fn decompress_f64(&self, bytes: &[u8]) -> Result<Field<f64>>;

    /// The element type, dims and bound that the header of archive `bytes`
    /// records, read without decoding the field: an error, never a panic,
    /// for another codec's archive or a header that is cut short or out of
    /// range.
    fn describe(&self, bytes: &[u8]) -> Result<ArchiveInfo>;
}

/// What an archive's header records about the field it encodes
/// ([`Codec::describe`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchiveInfo {
    /// Element type tag (0 = `f32`, 1 = `f64`).
    pub type_tag: u8,
    /// Grid extents of the encoded field.
    pub dims: Dims,
    /// Absolute point-wise error bound of the compression (the finest
    /// level's, for STZ).
    pub eb: f64,
}

/// Scalar types a [`Codec`] can process; routes a generic call to the
/// matching typed trait method.
pub trait BackendScalar: Scalar {
    /// Compress `field` with `codec` at absolute bound `eb`.
    fn compress_with(codec: &dyn Codec, field: &Field<Self>, eb: f64) -> Result<Vec<u8>>;
    /// Decompress `bytes` with `codec`.
    fn decompress_with(codec: &dyn Codec, bytes: &[u8]) -> Result<Field<Self>>;
}

impl BackendScalar for f32 {
    fn compress_with(codec: &dyn Codec, field: &Field<Self>, eb: f64) -> Result<Vec<u8>> {
        codec.compress_f32(field, eb)
    }
    fn decompress_with(codec: &dyn Codec, bytes: &[u8]) -> Result<Field<Self>> {
        codec.decompress_f32(bytes)
    }
}

impl BackendScalar for f64 {
    fn compress_with(codec: &dyn Codec, field: &Field<Self>, eb: f64) -> Result<Vec<u8>> {
        codec.compress_f64(field, eb)
    }
    fn decompress_with(codec: &dyn Codec, bytes: &[u8]) -> Result<Field<Self>> {
        codec.decompress_f64(bytes)
    }
}

/// Compress `field` with `codec`, resolving a relative bound against the
/// field's value range first.
pub fn compress<T: BackendScalar>(
    codec: &dyn Codec,
    field: &Field<T>,
    eb: &ErrorBound,
) -> Result<Vec<u8>> {
    let abs = eb.absolute_for(field);
    if !(abs > 0.0 && abs.is_finite()) {
        return Err(CodecError::unsupported(format!(
            "error bound must resolve to a positive finite value, got {abs}"
        )));
    }
    T::compress_with(codec, field, abs)
}

/// Decompress an archive produced by [`compress`] with the same codec.
pub fn decompress<T: BackendScalar>(codec: &dyn Codec, bytes: &[u8]) -> Result<Field<T>> {
    T::decompress_with(codec, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stz_field::Dims;

    fn field() -> Field<f32> {
        stz_data::synth::miranda_like(Dims::d3(16, 16, 16), 9)
    }

    #[test]
    fn generic_dispatch_matches_typed_calls() {
        let f = field();
        let codec = registry().by_name("zfp").unwrap();
        let via_generic = compress(codec, &f, &ErrorBound::Absolute(1e-3)).unwrap();
        let via_typed = codec.compress_f32(&f, 1e-3).unwrap();
        assert_eq!(via_generic, via_typed);
    }

    #[test]
    fn relative_bound_resolves_against_range() {
        let f = field();
        let (lo, hi) = f.value_range();
        let codec = registry().by_name("sz3").unwrap();
        let rel = compress(codec, &f, &ErrorBound::Relative(1e-3)).unwrap();
        let abs = compress(codec, &f, &ErrorBound::Absolute(1e-3 * (hi - lo))).unwrap();
        assert_eq!(rel, abs);
    }

    #[test]
    fn describe_reads_what_compress_recorded() {
        let f = field();
        let f64_field =
            Field::from_fn(Dims::d2(9, 14), |_, y, x| (y as f64 * 0.4).sin() + x as f64);
        for codec in registry().all() {
            let name = codec.name();
            let archives = [
                (codec.compress_f32(&f, 2.5e-3).unwrap(), 0, f.dims(), 2.5e-3),
                (codec.compress_f64(&f64_field, 0.125).unwrap(), 1, f64_field.dims(), 0.125),
            ];
            for (bytes, type_tag, dims, eb) in archives {
                let info = codec.describe(&bytes).unwrap();
                assert_eq!(info, ArchiveInfo { type_tag, dims, eb }, "{name}");
                // Every cut of the header (magic, three bytes, three one-byte
                // extents, the bound) is refused, as is another codec's archive.
                for cut in 0..18 {
                    assert!(codec.describe(&bytes[..cut]).is_err(), "{name} cut at {cut}");
                }
                for other in registry().all().filter(|other| other.id() != codec.id()) {
                    assert!(other.describe(&bytes).is_err(), "{} read {name}'s", other.name());
                }
            }
        }
    }

    #[test]
    fn nonpositive_bound_rejected() {
        let f = field();
        let codec = registry().by_name("stz").unwrap();
        assert!(compress(codec, &f, &ErrorBound::Absolute(0.0)).is_err());
        assert!(compress(codec, &f, &ErrorBound::Absolute(f64::NAN)).is_err());
    }
}
