//! Floating-point element abstraction.

use std::fmt::{Debug, Display};
use stz_simd::Lane;

/// Scalar element type of a [`crate::Field`]: `f32` or `f64`.
///
/// Compressors are generic over `Scalar`. The trait deliberately exposes only
/// what error-bounded compression needs: lossless widening to `f64` for
/// prediction arithmetic, and bit-exact byte (de)serialization for the
/// unpredictable-value escape path.
///
/// A `Scalar` is also a [`stz_simd::GridElem`], so a slice of either type can
/// be the grid the dispatched prediction kernels read.
pub trait Scalar:
    Copy + PartialOrd + Debug + Display + Default + Send + Sync + 'static + stz_simd::GridElem
{
    /// Number of bytes in the exact binary representation.
    const BYTES: usize;
    /// Tag distinguishing element types in archive headers (0 = f32, 1 = f64).
    const TYPE_TAG: u8;

    fn to_f64(self) -> f64;
    fn from_f64(v: f64) -> Self;
    /// Serialize the exact bit pattern (little-endian).
    fn write_exact(self, out: &mut Vec<u8>);
    /// Serialize the exact bit patterns of `values` (little-endian) in one
    /// bulk pass: the bytes [`Scalar::write_exact`] would append one value
    /// at a time, produced as block copies.
    fn write_slice_exact(values: &[Self], out: &mut Vec<u8>);
    /// Store the exact bit pattern (little-endian) in `out`, which is
    /// [`Scalar::BYTES`] long and may sit at any alignment.
    fn store_le(self, out: &mut [u8]);
    /// Deserialize the exact bit pattern; `bytes.len()` must be `>= BYTES`.
    fn read_exact(bytes: &[u8]) -> Self;

    /// Stride-2 gather `out[i] = src[start + 2*i]` on the given SIMD lane.
    /// Byte-identical to the scalar loop (it only moves values).
    fn simd_gather2(lane: Lane, src: &[Self], start: usize, out: &mut [Self]);
    /// Stride-2 scatter `dst[start + 2*i] = src[i]` on the given SIMD lane.
    fn simd_scatter2(lane: Lane, src: &[Self], dst: &mut [Self], start: usize);
}

/// Append `le(v)` for every value, staged through a block that stays in L1
/// so the per-value stores vectorise (a plain copy on little-endian
/// targets) and the `Vec` grows by whole blocks, not by single values.
fn write_blocks<T: Copy, const N: usize>(
    values: &[T],
    out: &mut Vec<u8>,
    le: impl Fn(T) -> [u8; N],
) {
    let mut block = [0u8; 4096];
    out.reserve(values.len() * N);
    for chunk in values.chunks(block.len() / N) {
        for (dst, &v) in block.chunks_exact_mut(N).zip(chunk) {
            dst.copy_from_slice(&le(v));
        }
        out.extend_from_slice(&block[..chunk.len() * N]);
    }
}

impl Scalar for f32 {
    const BYTES: usize = 4;
    const TYPE_TAG: u8 = 0;

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline]
    fn write_exact(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn write_slice_exact(values: &[Self], out: &mut Vec<u8>) {
        write_blocks(values, out, f32::to_le_bytes);
    }

    #[inline(always)]
    fn store_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_exact(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes[..4].try_into().expect("need 4 bytes"))
    }

    #[inline]
    fn simd_gather2(lane: Lane, src: &[Self], start: usize, out: &mut [Self]) {
        stz_simd::gather2_f32(lane, src, start, out);
    }

    #[inline]
    fn simd_scatter2(lane: Lane, src: &[Self], dst: &mut [Self], start: usize) {
        stz_simd::scatter2_f32(lane, src, dst, start);
    }
}

impl Scalar for f64 {
    const BYTES: usize = 8;
    const TYPE_TAG: u8 = 1;

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline]
    fn write_exact(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn write_slice_exact(values: &[Self], out: &mut Vec<u8>) {
        write_blocks(values, out, f64::to_le_bytes);
    }

    #[inline(always)]
    fn store_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_exact(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes[..8].try_into().expect("need 8 bytes"))
    }

    #[inline]
    fn simd_gather2(lane: Lane, src: &[Self], start: usize, out: &mut [Self]) {
        stz_simd::gather2_f64(lane, src, start, out);
    }

    #[inline]
    fn simd_scatter2(lane: Lane, src: &[Self], dst: &mut [Self], start: usize) {
        stz_simd::scatter2_f64(lane, src, dst, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_exact_roundtrip() {
        let vals = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::MAX, -123.456, f32::NAN];
        for &v in &vals {
            let mut buf = Vec::new();
            v.write_exact(&mut buf);
            assert_eq!(buf.len(), 4);
            let back = f32::read_exact(&buf);
            assert_eq!(v.to_bits(), back.to_bits(), "bit-exact roundtrip for {v}");
        }
    }

    #[test]
    fn f64_exact_roundtrip() {
        let vals = [0.0f64, -0.0, 1.5e300, f64::MIN_POSITIVE, -9.87654321e-200, f64::NAN];
        for &v in &vals {
            let mut buf = Vec::new();
            v.write_exact(&mut buf);
            assert_eq!(buf.len(), 8);
            let back = f64::read_exact(&buf);
            assert_eq!(v.to_bits(), back.to_bits());
        }
    }

    #[test]
    fn slice_write_equals_per_value_write() {
        // Lengths on both sides of the staging block, and none at all.
        for n in [0usize, 1, 511, 512, 513, 1024, 1500] {
            let v32: Vec<f32> = (0..n).map(|i| (i as f32 - 7.5) * 1.25e-3).collect();
            let v64: Vec<f64> = v32.iter().map(|&v| v as f64 * 1e200).collect();
            let (mut bulk, mut each) = (vec![0xEE], vec![0xEE]);
            f32::write_slice_exact(&v32, &mut bulk);
            f64::write_slice_exact(&v64, &mut bulk);
            v32.iter().for_each(|v| v.write_exact(&mut each));
            v64.iter().for_each(|v| v.write_exact(&mut each));
            assert_eq!(bulk, each, "n = {n}");
            // Stored in place, from an odd offset.
            let mut stored = vec![0xEE; 1 + n * 12];
            let (v32_at, v64_at) = stored[1..].split_at_mut(n * 4);
            v32.iter().zip(v32_at.chunks_exact_mut(4)).for_each(|(v, b)| v.store_le(b));
            v64.iter().zip(v64_at.chunks_exact_mut(8)).for_each(|(v, b)| v.store_le(b));
            assert_eq!(stored, each, "n = {n}");
        }
    }

    #[test]
    fn widening_is_lossless_for_f32() {
        let v = 0.1f32;
        assert_eq!(f32::from_f64(v.to_f64()).to_bits(), v.to_bits());
    }

    #[test]
    fn type_tags_distinct() {
        assert_ne!(f32::TYPE_TAG, f64::TYPE_TAG);
    }
}
