//! Slab-decomposition parallel wrappers for the baseline compressors.
//!
//! The reference SZ3/SPERR parallelize with OpenMP by splitting the domain
//! into per-thread chunks compressed independently. That is what this
//! module reproduces: the field is cut into z-slabs, each slab is
//! compressed by the serial codec, and the slab archives are concatenated
//! under a small container. Cutting the domain loses cross-slab
//! correlation, which is exactly the compression-ratio drop the paper
//! reports for SZ3's OMP mode (Table 3's asterisks).

use stz_codec::{ByteReader, ByteWriter, CodecError, Result};
use stz_core::pool;
use stz_field::{Dims, Field, Region, Scalar};

/// Magic bytes of the slab container.
pub const MAGIC: [u8; 4] = *b"SLB1";

/// Split `field` into up to `nslabs` z-slabs, compress each with `f` in
/// parallel, and concatenate under the slab container.
pub fn compress_slabs<T: Scalar>(
    field: &Field<T>,
    nslabs: usize,
    f: impl Fn(&Field<T>) -> Vec<u8> + Sync,
) -> Vec<u8> {
    let dims = field.dims();
    let regions = slab_regions(dims, nslabs);
    let blocks = pool::map(regions.iter().collect(), |r| f(&field.extract_region(r)));

    let mut w = ByteWriter::new();
    w.put_raw(&MAGIC);
    w.put_u8(dims.ndim());
    let [nz, ny, nx] = dims.as_array();
    w.put_uvarint(nz as u64);
    w.put_uvarint(ny as u64);
    w.put_uvarint(nx as u64);
    w.put_uvarint(regions.len() as u64);
    for (r, b) in regions.iter().zip(&blocks) {
        w.put_uvarint(r.z0 as u64);
        w.put_uvarint(r.z1 as u64);
        w.put_block(b);
    }
    w.finish()
}

/// Decode a slab container, decompressing slabs with `f` (in parallel when
/// `parallel` is set) and reassembling the full field.
pub fn decompress_slabs<T: Scalar>(
    bytes: &[u8],
    parallel: bool,
    f: impl Fn(&[u8]) -> Result<Field<T>> + Sync,
) -> Result<Field<T>> {
    let mut r = ByteReader::new(bytes);
    if r.get_raw(4)? != MAGIC {
        return Err(CodecError::corrupt("not a slab container"));
    }
    let ndim = r.get_u8()?;
    if !(1..=3).contains(&ndim) {
        return Err(CodecError::corrupt("invalid ndim"));
    }
    let nz = r.get_uvarint()? as usize;
    let ny = r.get_uvarint()? as usize;
    let nx = r.get_uvarint()? as usize;
    if nz == 0 || ny == 0 || nx == 0 || nz.saturating_mul(ny).saturating_mul(nx) > (1 << 40) {
        return Err(CodecError::corrupt("invalid dims"));
    }
    if (ndim < 3 && nz != 1) || (ndim < 2 && ny != 1) {
        return Err(CodecError::corrupt("dims inconsistent with ndim"));
    }
    let dims = Dims::from_parts(ndim, nz, ny, nx);
    let n = r.get_uvarint()? as usize;
    if n == 0 || n > nz {
        return Err(CodecError::corrupt("invalid slab count"));
    }
    let mut slabs = Vec::with_capacity(n);
    for _ in 0..n {
        let z0 = r.get_uvarint()? as usize;
        let z1 = r.get_uvarint()? as usize;
        if z0 >= z1 || z1 > nz {
            return Err(CodecError::corrupt("invalid slab extent"));
        }
        slabs.push((z0, z1, r.get_block()?));
    }

    let decoded: Vec<Result<Field<T>>> = if parallel {
        pool::map(slabs.iter().collect(), |&(_, _, b)| f(b))
    } else {
        slabs.iter().map(|&(_, _, b)| f(b)).collect()
    };

    let mut out = Field::zeros(dims);
    for ((z0, z1, _), dec) in slabs.iter().zip(decoded) {
        let dec = dec?;
        if dec.dims().as_array() != [z1 - z0, ny, nx] {
            return Err(CodecError::corrupt("slab dims mismatch"));
        }
        let plane = ny * nx;
        let dst = out.as_mut_slice();
        dst[z0 * plane..(z0 + dec.dims().nz()) * plane].copy_from_slice(dec.as_slice());
    }
    Ok(out)
}

/// Cut the z extent into at most `nslabs` contiguous regions, with slab
/// boundaries aligned to multiples of 4 where possible (so ZFP's 4³ blocks
/// are not split across slabs and slab-parallel ZFP matches serial block
/// geometry, as the reference OMP ZFP does).
pub fn slab_regions(dims: Dims, nslabs: usize) -> Vec<Region> {
    let nz = dims.nz();
    let n = nslabs.clamp(1, nz);
    let mut out = Vec::with_capacity(n);
    let mut z0 = 0;
    for i in 0..n {
        let mut z1 = nz * (i + 1) / n;
        // Round up to the next multiple of 4 (except the final slab).
        if i + 1 < n {
            z1 = (z1.div_ceil(4) * 4).min(nz);
        } else {
            z1 = nz;
        }
        if z1 > z0 {
            out.push(Region::d3(z0..z1, 0..dims.ny(), 0..dims.nx()));
            z0 = z1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> Field<f32> {
        stz_data::synth::magrec_like(Dims::d3(20, 24, 24), 1)
    }

    #[test]
    fn slab_regions_partition_z() {
        let dims = Dims::d3(20, 4, 4);
        let rs = slab_regions(dims, 8);
        assert!(!rs.is_empty() && rs.len() <= 8);
        let total: usize = rs.iter().map(|r| r.z1 - r.z0).sum();
        assert_eq!(total, 20);
        assert_eq!(rs[0].z0, 0);
        assert_eq!(rs.last().unwrap().z1, 20);
        // Contiguous, non-overlapping.
        for w in rs.windows(2) {
            assert_eq!(w[0].z1, w[1].z0);
        }
    }

    #[test]
    fn slab_boundaries_block_aligned() {
        let rs = slab_regions(Dims::d3(64, 4, 4), 8);
        for r in &rs[..rs.len() - 1] {
            assert_eq!(r.z1 % 4, 0, "boundary {} not 4-aligned", r.z1);
        }
    }

    #[test]
    fn more_slabs_than_planes_clamps() {
        let rs = slab_regions(Dims::d3(3, 4, 4), 8);
        assert!(!rs.is_empty() && rs.len() <= 3);
        let total: usize = rs.iter().map(|r| r.z1 - r.z0).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn roundtrip_with_sz3() {
        let f = field();
        let eb = 1e-3;
        let bytes = compress_slabs(&f, 4, |s| {
            stz_sz3::compress(s, &stz_sz3::Sz3Config::absolute(eb)).unwrap()
        });
        let back: Field<f32> = decompress_slabs(&bytes, true, stz_sz3::decompress).unwrap();
        assert_eq!(back.dims(), f.dims());
        let err = stz_data::metrics::max_abs_error(&f, &back);
        assert!(err <= eb);
    }

    #[test]
    fn slab_mode_costs_compression_ratio() {
        // The paper's Table 3 asterisk: chunked SZ3 compresses worse.
        let f = stz_data::synth::miranda_like(Dims::d3(32, 32, 32), 5);
        let eb = 1e-3;
        let whole = stz_sz3::compress(&f, &stz_sz3::Sz3Config::absolute(eb)).unwrap();
        let slabbed = compress_slabs(&f, 8, |s| {
            stz_sz3::compress(s, &stz_sz3::Sz3Config::absolute(eb)).unwrap()
        });
        assert!(slabbed.len() > whole.len(), "slabbed {} vs whole {}", slabbed.len(), whole.len());
    }

    #[test]
    fn garbage_rejected() {
        assert!(decompress_slabs::<f32>(b"garbage", false, stz_sz3::decompress).is_err());
    }
}
