//! Ablation variants reproducing every curve of the paper's Figure 5.
//!
//! The paper motivates STZ's design through a sequence of prediction
//! optimizations over naive partitioning (§3.1). Each step is implemented
//! here as a runnable codec so the rate-distortion ablation can be
//! regenerated:
//!
//! | Variant | Paper label | Pipeline |
//! |---|---|---|
//! | [`AblationVariant::PartitionOnly`] | "Partition" | each stride-2 sub-block compressed independently with SZ3 |
//! | [`AblationVariant::DirectPred`] | "Direct pred" | level 1 SZ3; finer blocks predicted by copying (Eq. 1), residuals re-compressed with SZ3 |
//! | [`AblationVariant::MultiDimInterp`] | "Multi-dim Interp" | multilinear prediction (Eqs. 3–5), residuals re-compressed with SZ3 |
//! | [`AblationVariant::MultiDimQt`] | "Multi-dim + Qt" | multilinear prediction, residuals only quantized + Huffman (optimization 3) |
//! | [`AblationVariant::CubicMultiQt`] | "Cubic-Multi + Qt" | cubic prediction (Eqs. 6–8) + quantize-only |
//! | [`AblationVariant::CubicMultiQtAdaptive`] | "Cubic-Multi-Qt + Adp" | + adaptive error bounds (optimization 5) |
//! | [`AblationVariant::ThreeLevelAll`] | "3-level + All" | the full 3-level STZ (§3.2) |
//!
//! The last four variants are thin configurations of the real compressor;
//! the first three use a dedicated container (magic `STZA`) because they
//! predate STZ's quantize-only streaming format.

use crate::archive::StzArchive;
use crate::compressor::StzCompressor;
use crate::config::StzConfig;
use crate::kernels::{dense_taps, predict_direct, predict_point};
use crate::level::{BlockSpec, LevelPlan};
use stz_codec::{ByteReader, ByteWriter, CodecError, Result};
use stz_field::{Dims, Field, Scalar};
use stz_sz3::{InterpKind, Sz3Config};

/// One point on the Figure-5 ablation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationVariant {
    PartitionOnly,
    DirectPred,
    MultiDimInterp,
    MultiDimQt,
    CubicMultiQt,
    CubicMultiQtAdaptive,
    ThreeLevelAll,
}

impl AblationVariant {
    /// All variants in the paper's presentation order.
    pub fn all() -> [AblationVariant; 7] {
        [
            AblationVariant::PartitionOnly,
            AblationVariant::DirectPred,
            AblationVariant::MultiDimInterp,
            AblationVariant::MultiDimQt,
            AblationVariant::CubicMultiQt,
            AblationVariant::CubicMultiQtAdaptive,
            AblationVariant::ThreeLevelAll,
        ]
    }

    /// The curve label used in the paper's Figure 5.
    pub fn label(&self) -> &'static str {
        match self {
            AblationVariant::PartitionOnly => "Partition",
            AblationVariant::DirectPred => "Direct pred",
            AblationVariant::MultiDimInterp => "Multi-dim Interp",
            AblationVariant::MultiDimQt => "Multi-dim + Qt",
            AblationVariant::CubicMultiQt => "Cubic-Multi + Qt",
            AblationVariant::CubicMultiQtAdaptive => "Cubic-Multi-Qt + Adp",
            AblationVariant::ThreeLevelAll => "3-level + All",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            AblationVariant::PartitionOnly => 0,
            AblationVariant::DirectPred => 1,
            AblationVariant::MultiDimInterp => 2,
            AblationVariant::MultiDimQt => 3,
            AblationVariant::CubicMultiQt => 4,
            AblationVariant::CubicMultiQtAdaptive => 5,
            AblationVariant::ThreeLevelAll => 6,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => AblationVariant::PartitionOnly,
            1 => AblationVariant::DirectPred,
            2 => AblationVariant::MultiDimInterp,
            t => return Err(CodecError::corrupt(format!("unknown ablation tag {t}"))),
        })
    }

    /// The STZ configuration for the variants that are plain configurations
    /// of the main compressor.
    fn stz_config(&self, eb: f64) -> Option<StzConfig> {
        match self {
            AblationVariant::MultiDimQt => {
                Some(StzConfig::two_level(eb).with_interp(InterpKind::Linear).with_adaptive(false))
            }
            AblationVariant::CubicMultiQt => Some(StzConfig::two_level(eb).with_adaptive(false)),
            AblationVariant::CubicMultiQtAdaptive => Some(StzConfig::two_level(eb)),
            AblationVariant::ThreeLevelAll => Some(StzConfig::three_level(eb)),
            _ => None,
        }
    }
}

const ABLATION_MAGIC: [u8; 4] = *b"STZA";

/// Compress `field` at absolute error bound `eb` with the given variant.
pub fn compress_variant<T: Scalar>(
    field: &Field<T>,
    variant: AblationVariant,
    eb: f64,
) -> Result<Vec<u8>> {
    if let Some(cfg) = variant.stz_config(eb) {
        return Ok(StzCompressor::new(cfg).compress(field)?.into_bytes());
    }
    let dims = field.dims();
    let plan = LevelPlan::new(dims, 2);
    let sz3_cfg = Sz3Config::absolute(eb);

    let mut w = ByteWriter::new();
    w.put_raw(&ABLATION_MAGIC);
    w.put_u8(variant.tag());
    w.put_u8(T::TYPE_TAG);
    w.put_u8(dims.ndim());
    let [nz, ny, nx] = dims.as_array();
    w.put_uvarint(nz as u64);
    w.put_uvarint(ny as u64);
    w.put_uvarint(nx as u64);
    w.put_f64(eb);

    match variant {
        AblationVariant::PartitionOnly => {
            // Every sub-block compressed independently (paper Fig. 4).
            let mut blocks = Vec::new();
            for level in &plan.levels {
                for block in &level.blocks {
                    let sub: Field<T> = block.lattice.gather(field);
                    blocks.push(stz_sz3::compress(&sub, &sz3_cfg));
                }
            }
            w.put_uvarint(blocks.len() as u64);
            for b in &blocks {
                w.put_block(b);
            }
        }
        AblationVariant::DirectPred | AblationVariant::MultiDimInterp => {
            // Level 1 via SZ3; finer blocks: predict, then re-compress the
            // residual field with SZ3 (the paper's optimization-3 strawman).
            let a_field: Field<T> = plan.level1().gather(field);
            let (l1_bytes, _, a_recon) = stz_sz3::compress_full(&a_field, &sz3_cfg);
            w.put_block(&l1_bytes);

            let level = &plan.levels[1];
            let coarse = Field::from_vec(plan.levels[0].grid_dims, a_recon);
            w.put_uvarint(level.blocks.len() as u64);
            for block in &level.blocks {
                let orig: Field<T> = block.lattice.gather(field);
                let mut residual = Vec::with_capacity(orig.len());
                let bdims = orig.dims();
                for z in 0..bdims.nz() {
                    for y in 0..bdims.ny() {
                        for x in 0..bdims.nx() {
                            let pred = predict(variant, &coarse, level.grid_dims, block, [z, y, x]);
                            residual.push(orig.get(z, y, x).to_f64() - pred);
                        }
                    }
                }
                let res_field = Field::from_vec(bdims, residual);
                w.put_block(&stz_sz3::compress(&res_field, &sz3_cfg));
            }
        }
        _ => unreachable!("configuration variants handled above"),
    }
    Ok(w.finish())
}

/// The prediction of point `p` of `block` — in block coordinates — by the
/// direct or multilinear strawman, from the level-1 grid `coarse` as it is.
fn predict(
    variant: AblationVariant,
    coarse: &Field<f64>,
    gdims: Dims,
    block: &BlockSpec,
    [z, y, x]: [usize; 3],
) -> f64 {
    let (gz, gy, gx) = block.grid_lattice.to_parent(z, y, x);
    let taps = dense_taps(coarse.as_slice(), coarse.dims(), [0; 3]);
    match variant {
        AblationVariant::DirectPred => predict_direct(taps, [gz, gy, gx], &block.active_axes, 1),
        _ => predict_point(taps, gdims, [gz, gy, gx], &block.active_axes, 1, InterpKind::Linear),
    }
}

/// Decompress bytes produced by [`compress_variant`].
pub fn decompress_variant<T: Scalar>(bytes: &[u8]) -> Result<Field<T>> {
    if bytes.len() >= 4 && bytes[..4] == crate::archive::MAGIC {
        return StzArchive::<T>::from_bytes(bytes.to_vec())?.decompress();
    }
    let mut r = ByteReader::new(bytes);
    let magic = r.get_raw(4)?;
    if magic != ABLATION_MAGIC {
        return Err(CodecError::corrupt("bad ablation magic"));
    }
    let variant = AblationVariant::from_tag(r.get_u8()?)?;
    let type_tag = r.get_u8()?;
    if type_tag != T::TYPE_TAG {
        return Err(CodecError::corrupt("ablation element type mismatch"));
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
    // Reject before the dims-sized reconstruction buffers are reserved.
    stz_codec::check_decode_alloc(dims.len() as u64, 8, "ablation field")?;
    let _eb = r.get_f64()?;
    let plan = LevelPlan::new(dims, 2);

    match variant {
        AblationVariant::PartitionOnly => {
            let n = r.get_uvarint()? as usize;
            let expected: usize = plan.levels.iter().map(|l| l.blocks.len()).sum();
            if n != expected {
                return Err(CodecError::corrupt("block count mismatch"));
            }
            let mut out = Field::zeros(dims);
            for level in &plan.levels {
                for block in &level.blocks {
                    let sub: Field<T> = stz_sz3::decompress(r.get_block()?)?;
                    if sub.dims().as_array() != block.lattice.dims().as_array() {
                        return Err(CodecError::corrupt("sub-block dims mismatch"));
                    }
                    block.lattice.scatter(&sub, &mut out);
                }
            }
            Ok(out)
        }
        AblationVariant::DirectPred | AblationVariant::MultiDimInterp => {
            let a: Field<T> = stz_sz3::decompress(r.get_block()?)?;
            if a.dims().as_array() != plan.levels[0].grid_dims.as_array() {
                return Err(CodecError::corrupt("level-1 dims mismatch"));
            }
            let level = &plan.levels[1];
            let coarse = Field::from_vec(
                plan.levels[0].grid_dims,
                a.as_slice().iter().map(|&v| v.to_f64()).collect(),
            );
            let mut grid = Field::<f64>::zeros(level.grid_dims);
            plan.level1().scatter(&coarse, &mut grid);
            let n = r.get_uvarint()? as usize;
            if n != level.blocks.len() {
                return Err(CodecError::corrupt("block count mismatch"));
            }
            for block in &level.blocks {
                let residual: Field<f64> = stz_sz3::decompress(r.get_block()?)?;
                if residual.dims().as_array() != block.lattice.dims().as_array() {
                    return Err(CodecError::corrupt("residual dims mismatch"));
                }
                let bdims = residual.dims();
                let mut vals = Vec::with_capacity(bdims.len());
                for z in 0..bdims.nz() {
                    for y in 0..bdims.ny() {
                        for x in 0..bdims.nx() {
                            let pred = predict(variant, &coarse, level.grid_dims, block, [z, y, x]);
                            vals.push(pred + residual.get(z, y, x));
                        }
                    }
                }
                block.grid_lattice.scatter(&Field::from_vec(bdims, vals), &mut grid);
            }
            Ok(Field::from_vec(dims, grid.as_slice().iter().map(|&v| T::from_f64(v)).collect()))
        }
        _ => unreachable!("configuration variants use the STZ container"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nyx_like_toy() -> Field<f32> {
        // Smooth halo plus small-scale pseudo-noise: realistic scientific
        // fields are not perfectly smooth, and the noise is what makes the
        // prediction residuals incompressible by a second SZ3 pass (the
        // paper's argument for the quantize-only optimization 3).
        Field::from_fn(Dims::d3(20, 20, 20), |z, y, x| {
            let r2 =
                (z as f32 - 10.0).powi(2) + (y as f32 - 10.0).powi(2) + (x as f32 - 10.0).powi(2);
            let smooth = (-r2 / 30.0).exp() * 50.0 + ((x + y) as f32 * 0.3).sin();
            let h = (z * 73_856_093) ^ (y * 19_349_663) ^ (x * 83_492_791);
            let noise = ((h % 1000) as f32 / 1000.0 - 0.5) * 2.0;
            smooth + noise
        })
    }

    fn max_err(a: &Field<f32>, b: &Field<f32>) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| ((x as f64) - (y as f64)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn every_variant_roundtrips_within_bound() {
        let f = nyx_like_toy();
        let eb = 1e-2;
        for variant in AblationVariant::all() {
            let bytes = compress_variant(&f, variant, eb).unwrap();
            let back: Field<f32> = decompress_variant(&bytes).unwrap();
            assert_eq!(back.dims(), f.dims());
            let err = max_err(&f, &back);
            // Residual-recompression variants can accumulate the level-1
            // and residual bounds (eb + eb); the quantize-only variants obey
            // eb exactly.
            let tolerance = match variant {
                AblationVariant::DirectPred | AblationVariant::MultiDimInterp => 2.0 * eb + 1e-9,
                _ => eb + 1e-9,
            };
            assert!(err <= tolerance, "{}: err {err}", variant.label());
        }
    }

    #[test]
    fn optimization_ladder_improves_compression() {
        // Each optimization should compress at least as well as its
        // predecessor on smooth halo-like data (the Figure-5 story).
        let f = nyx_like_toy();
        let eb = 1e-2;
        let sizes: Vec<(AblationVariant, usize)> = AblationVariant::all()
            .into_iter()
            .map(|v| (v, compress_variant(&f, v, eb).unwrap().len()))
            .collect();
        let size_of = |v: AblationVariant| sizes.iter().find(|(s, _)| *s == v).unwrap().1;
        // The quantize-only step must beat SZ3-on-residuals.
        assert!(
            size_of(AblationVariant::MultiDimQt) < size_of(AblationVariant::MultiDimInterp),
            "Qt {} vs Interp {}",
            size_of(AblationVariant::MultiDimQt),
            size_of(AblationVariant::MultiDimInterp)
        );
        // Cubic must beat linear.
        assert!(size_of(AblationVariant::CubicMultiQt) <= size_of(AblationVariant::MultiDimQt));
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            AblationVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), 7);
    }

    #[test]
    fn garbage_input_is_rejected() {
        assert!(decompress_variant::<f32>(b"nonsense").is_err());
        assert!(decompress_variant::<f32>(&[]).is_err());
        let f = nyx_like_toy();
        let bytes = compress_variant(&f, AblationVariant::PartitionOnly, 1e-2).unwrap();
        assert!(decompress_variant::<f64>(&bytes).is_err());
    }

    #[test]
    fn variant_2d_roundtrip() {
        let f = Field::from_fn(Dims::d2(24, 24), |_, y, x| {
            ((x as f32) * 0.2).sin() * ((y as f32) * 0.3).cos()
        });
        for variant in [AblationVariant::PartitionOnly, AblationVariant::DirectPred] {
            let bytes = compress_variant(&f, variant, 1e-3).unwrap();
            let back: Field<f32> = decompress_variant(&bytes).unwrap();
            assert!(max_err(&f, &back) <= 2e-3 + 1e-9, "{}", variant.label());
        }
    }
}
