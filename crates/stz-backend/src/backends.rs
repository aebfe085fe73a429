//! [`Codec`] implementations for the five engines.
//!
//! Each implementation is a zero-sized adapter: parameters beyond the
//! error bound use the engine's defaults (the same defaults the paper's
//! evaluation uses — STZ's 3-level adaptive hierarchy, SZ3's cubic
//! interpolation with radius 2^15, and so on). Callers who need the full
//! engine-specific surface use the engine crates directly.

use crate::{ArchiveInfo, Codec, Result};
use stz_codec::{ByteReader, CodecError};
use stz_core::{StzArchive, StzCompressor, StzConfig};
use stz_field::{Dims, Field, Scalar};

/// Reject a non-positive or non-finite bound before it reaches an engine
/// constructor (several of which assert) — typed compress entry points
/// must error, never panic.
fn check_eb(eb: f64) -> Result<()> {
    if eb > 0.0 && eb.is_finite() {
        Ok(())
    } else {
        Err(CodecError::unsupported(format!("error bound must be positive and finite, got {eb}")))
    }
}

/// Read the fields every foreign engine's header opens with — magic,
/// version, element type tag, ndim, extents and bound — and check them as
/// the engine's decoder does: dims nonzero, consistent with ndim and within
/// 2^40 points, the bound positive and finite.
fn describe_foreign(bytes: &[u8], name: &str, magic: [u8; 4], version: u8) -> Result<ArchiveInfo> {
    let mut r = ByteReader::new(bytes);
    if r.get_raw(4)? != magic {
        return Err(CodecError::corrupt(format!("bad {name} magic")));
    }
    let v = r.get_u8()?;
    if v != version {
        return Err(CodecError::unsupported(format!("{name} format version {v}")));
    }
    let type_tag = r.get_u8()?;
    if type_tag > 1 {
        return Err(CodecError::unsupported(format!("element type tag {type_tag}")));
    }
    let ndim = r.get_u8()?;
    if !(1..=3).contains(&ndim) {
        return Err(CodecError::corrupt(format!("invalid ndim {ndim}")));
    }
    let (nz, ny, nx) = (r.get_uvarint()?, r.get_uvarint()?, r.get_uvarint()?);
    if nz == 0 || ny == 0 || nx == 0 || nz.saturating_mul(ny).saturating_mul(nx) > 1 << 40 {
        return Err(CodecError::corrupt(format!("invalid dims {nz}x{ny}x{nx}")));
    }
    if (ndim < 3 && nz != 1) || (ndim < 2 && ny != 1) {
        return Err(CodecError::corrupt("dims inconsistent with ndim"));
    }
    let eb = r.get_f64()?;
    if !(eb > 0.0 && eb.is_finite()) {
        return Err(CodecError::corrupt(format!("invalid error bound {eb}")));
    }
    let dims = Dims::from_parts(ndim, nz as usize, ny as usize, nx as usize);
    Ok(ArchiveInfo { type_tag, dims, eb })
}

/// The native STZ streaming compressor (3-level adaptive configuration).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stz;

impl Stz {
    fn compress<T: Scalar>(field: &Field<T>, eb: f64) -> Result<Vec<u8>> {
        StzCompressor::new(StzConfig::three_level(eb)).compress(field).map(StzArchive::into_bytes)
    }

    fn decompress<T: Scalar>(bytes: &[u8]) -> Result<Field<T>> {
        StzArchive::<T>::from_bytes(bytes.to_vec())?.decompress()
    }
}

impl Codec for Stz {
    fn id(&self) -> u8 {
        crate::id::STZ
    }
    fn name(&self) -> &'static str {
        "stz"
    }
    fn magic(&self) -> [u8; 4] {
        stz_core::archive::MAGIC
    }
    fn compress_f32(&self, field: &Field<f32>, eb: f64) -> Result<Vec<u8>> {
        check_eb(eb)?;
        Stz::compress(field, eb)
    }
    fn compress_f64(&self, field: &Field<f64>, eb: f64) -> Result<Vec<u8>> {
        check_eb(eb)?;
        Stz::compress(field, eb)
    }
    fn decompress_f32(&self, bytes: &[u8]) -> Result<Field<f32>> {
        Stz::decompress(bytes)
    }
    fn decompress_f64(&self, bytes: &[u8]) -> Result<Field<f64>> {
        Stz::decompress(bytes)
    }
    fn describe(&self, bytes: &[u8]) -> Result<ArchiveInfo> {
        let h = stz_core::archive::read_header(bytes)?;
        Ok(ArchiveInfo { type_tag: h.type_tag, dims: h.dims, eb: h.eb_finest })
    }
}

/// The SZ3-style interpolation compressor (cubic, radius 2^15).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sz3;

impl Codec for Sz3 {
    fn id(&self) -> u8 {
        crate::id::SZ3
    }
    fn name(&self) -> &'static str {
        "sz3"
    }
    fn magic(&self) -> [u8; 4] {
        stz_sz3::stream::MAGIC
    }
    fn compress_f32(&self, field: &Field<f32>, eb: f64) -> Result<Vec<u8>> {
        check_eb(eb)?;
        stz_sz3::compress(field, &stz_sz3::Sz3Config::absolute(eb))
    }
    fn compress_f64(&self, field: &Field<f64>, eb: f64) -> Result<Vec<u8>> {
        check_eb(eb)?;
        stz_sz3::compress(field, &stz_sz3::Sz3Config::absolute(eb))
    }
    fn decompress_f32(&self, bytes: &[u8]) -> Result<Field<f32>> {
        stz_sz3::decompress(bytes)
    }
    fn decompress_f64(&self, bytes: &[u8]) -> Result<Field<f64>> {
        stz_sz3::decompress(bytes)
    }
    fn describe(&self, bytes: &[u8]) -> Result<ArchiveInfo> {
        use stz_sz3::stream::{MAGIC, VERSION};
        describe_foreign(bytes, "SZ3", MAGIC, VERSION)
    }
}

/// The ZFP-style block-transform compressor (fixed-accuracy mode).
#[derive(Debug, Clone, Copy, Default)]
pub struct Zfp;

impl Codec for Zfp {
    fn id(&self) -> u8 {
        crate::id::ZFP
    }
    fn name(&self) -> &'static str {
        "zfp"
    }
    fn magic(&self) -> [u8; 4] {
        stz_zfp::compressor::MAGIC
    }
    fn compress_f32(&self, field: &Field<f32>, eb: f64) -> Result<Vec<u8>> {
        check_eb(eb)?;
        Ok(stz_zfp::compress(field, &stz_zfp::ZfpConfig::new(eb)))
    }
    fn compress_f64(&self, field: &Field<f64>, eb: f64) -> Result<Vec<u8>> {
        check_eb(eb)?;
        Ok(stz_zfp::compress(field, &stz_zfp::ZfpConfig::new(eb)))
    }
    fn decompress_f32(&self, bytes: &[u8]) -> Result<Field<f32>> {
        stz_zfp::decompress(bytes)
    }
    fn decompress_f64(&self, bytes: &[u8]) -> Result<Field<f64>> {
        stz_zfp::decompress(bytes)
    }
    fn describe(&self, bytes: &[u8]) -> Result<ArchiveInfo> {
        use stz_zfp::compressor::{MAGIC, VERSION};
        describe_foreign(bytes, "ZFP", MAGIC, VERSION)
    }
}

/// The SPERR-style wavelet compressor (outlier-corrected).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sperr;

impl Codec for Sperr {
    fn id(&self) -> u8 {
        crate::id::SPERR
    }
    fn name(&self) -> &'static str {
        "sperr"
    }
    fn magic(&self) -> [u8; 4] {
        stz_sperr::compressor::MAGIC
    }
    fn compress_f32(&self, field: &Field<f32>, eb: f64) -> Result<Vec<u8>> {
        check_eb(eb)?;
        Ok(stz_sperr::compress(field, &stz_sperr::SperrConfig::new(eb)))
    }
    fn compress_f64(&self, field: &Field<f64>, eb: f64) -> Result<Vec<u8>> {
        check_eb(eb)?;
        Ok(stz_sperr::compress(field, &stz_sperr::SperrConfig::new(eb)))
    }
    fn decompress_f32(&self, bytes: &[u8]) -> Result<Field<f32>> {
        stz_sperr::decompress(bytes)
    }
    fn decompress_f64(&self, bytes: &[u8]) -> Result<Field<f64>> {
        stz_sperr::decompress(bytes)
    }
    fn describe(&self, bytes: &[u8]) -> Result<ArchiveInfo> {
        use stz_sperr::compressor::{MAGIC, VERSION};
        describe_foreign(bytes, "SPERR", MAGIC, VERSION)
    }
}

/// The MGARD-style multigrid compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mgard;

impl Codec for Mgard {
    fn id(&self) -> u8 {
        crate::id::MGARD
    }
    fn name(&self) -> &'static str {
        "mgard"
    }
    fn magic(&self) -> [u8; 4] {
        stz_mgard::compressor::MAGIC
    }
    fn compress_f32(&self, field: &Field<f32>, eb: f64) -> Result<Vec<u8>> {
        check_eb(eb)?;
        stz_mgard::compress(field, &stz_mgard::MgardConfig::new(eb))
    }
    fn compress_f64(&self, field: &Field<f64>, eb: f64) -> Result<Vec<u8>> {
        check_eb(eb)?;
        stz_mgard::compress(field, &stz_mgard::MgardConfig::new(eb))
    }
    fn decompress_f32(&self, bytes: &[u8]) -> Result<Field<f32>> {
        stz_mgard::decompress(bytes)
    }
    fn decompress_f64(&self, bytes: &[u8]) -> Result<Field<f64>> {
        stz_mgard::decompress(bytes)
    }
    fn describe(&self, bytes: &[u8]) -> Result<ArchiveInfo> {
        use stz_mgard::compressor::{MAGIC, VERSION};
        describe_foreign(bytes, "MGARD", MAGIC, VERSION)
    }
}
