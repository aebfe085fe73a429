//! [`Codec`] implementations for the five engines.
//!
//! Each implementation is a zero-sized adapter: parameters beyond the
//! error bound use the engine's defaults (the same defaults the paper's
//! evaluation uses — STZ's 3-level adaptive hierarchy, SZ3's cubic
//! interpolation with radius 2^15, and so on). Callers who need the full
//! engine-specific surface use the engine crates directly.

use crate::{Codec, Result};
use stz_codec::CodecError;
use stz_core::{StzArchive, StzCompressor, StzConfig};
use stz_field::{Field, Scalar};

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
}
