//! The reference decoder: `docs/FORMAT.md` §5 as plain code.
//!
//! It decodes level 1 with SZ3, then refines one level at a time the way
//! the paper describes it: the previous level's grid is placed at the even
//! points of a zeroed grid of the level's extents, and each sub-block, in
//! canonical order, has its whole stream entropy-decoded, each of its points
//! predicted in block order from that grid and rebuilt from its symbol (an
//! escape takes its stored value), and is placed on its lattice. A region is
//! a crop of the full decode.
//!
//! There is no pool, no chunk window, no row walk, no memo and no SIMD
//! arithmetic here (placing a block is a copy), so a bug in the codec's fast
//! paths cannot hide in this module too: the identity matrix
//! (`tests/determinism.rs`), the access matrix and the codec fuzzer compare
//! every decode path with it, byte for byte. [`refine`] is also the level
//! walk of the Figure-5 strawmen in [`crate::ablation`], with their
//! predictor as a parameter.

use crate::archive::StzArchive;
use crate::kernels::{grid_taps, predict_direct, predict_point};
use crate::level::{BlockSpec, LevelSpec};
use stz_codec::{huffman, ByteReader, CodecError, LinearQuantizer, Result, ESCAPE_SYMBOL};
use stz_field::{Field, Region, Scalar, SubLattice};
use stz_sz3::InterpKind;

/// How a walk predicts a point from the coarse lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predictor {
    /// The paper's multi-dimensional interpolation (Eqs. 3–8).
    Interp(InterpKind),
    /// A copy of the coarse point at the low corner (Eq. 1).
    Direct,
}

impl Predictor {
    /// The prediction of grid point `p` from the coarse points of `grid`,
    /// for a block displaced along `active`.
    fn predict<S: Scalar>(self, grid: &Field<S>, p: [usize; 3], active: &[usize]) -> f64 {
        let taps = grid_taps(grid.as_slice(), grid.dims());
        match self {
            Predictor::Interp(kind) => predict_point(taps, grid.dims(), p, active, 1, kind),
            Predictor::Direct => predict_direct(taps, p, active, 1),
        }
    }
}

/// Refine `prev`, the previous level's grid, into `level`'s grid. `prev` is
/// placed at the even points of a zeroed grid of `level.grid_dims`; then
/// for each block in canonical order, `values` is handed the block's index,
/// its spec and the prediction of each of its points in block order, and
/// returns the block's values in that order, which are placed on the
/// block's grid lattice.
pub fn refine<S: Scalar>(
    level: &LevelSpec,
    prev: &Field<S>,
    predictor: Predictor,
    mut values: impl FnMut(usize, &BlockSpec, Vec<f64>) -> Result<Vec<S>>,
) -> Result<Field<S>> {
    if prev.dims().as_array() != level.prev_grid_dims.as_array() {
        return Err(CodecError::corrupt(format!(
            "level-{} source dims {} do not match geometry {}",
            level.index - 1,
            prev.dims(),
            level.prev_grid_dims
        )));
    }
    let mut grid = Field::zeros(level.grid_dims);
    let coarse = SubLattice::new(level.grid_dims, [0; 3], 2).expect("the origin lattice");
    coarse.scatter(prev, &mut grid);
    for (i, block) in level.blocks.iter().enumerate() {
        let lattice = &block.grid_lattice;
        let mut predictions = Vec::with_capacity(lattice.len());
        lattice.for_each_point(|_, z, y, x| {
            predictions.push(predictor.predict(&grid, [z, y, x], &block.active_axes));
        });
        let block_values = values(i, block, predictions)?;
        if block_values.len() != lattice.len() {
            return Err(CodecError::corrupt("block value count does not match its lattice"));
        }
        lattice.scatter(&Field::from_vec(lattice.dims(), block_values), &mut grid);
    }
    Ok(grid)
}

/// The level-`k` grid of `archive` (1 = the coarsest preview, the archive's
/// level count = the full field).
pub fn decode<T: Scalar>(archive: &StzArchive<T>, k: u8) -> Result<Field<T>> {
    let header = archive.header();
    if header.type_tag != T::TYPE_TAG {
        return Err(CodecError::corrupt("archive element type does not match"));
    }
    if !(1..=header.levels).contains(&k) {
        return Err(CodecError::corrupt(format!(
            "requested level {k} of a {}-level archive",
            header.levels
        )));
    }
    let plan = archive.plan();
    let mut grid: Field<T> = stz_sz3::decompress(archive.l1_bytes())?;
    if grid.dims().as_array() != plan.levels[0].grid_dims.as_array() {
        return Err(CodecError::corrupt("level-1 stream dims do not match the geometry"));
    }
    let ebs = header.level_ebs();
    for level in &plan.levels[1..k as usize] {
        let quant = LinearQuantizer::new(ebs[level.index as usize - 1], header.radius);
        if archive.num_blocks(level.index) != level.blocks.len() {
            return Err(CodecError::corrupt("block count does not match the geometry"));
        }
        let predictor = Predictor::Interp(header.interp);
        grid = refine(level, &grid, predictor, |i, block, predictions| {
            let bytes = archive.block_bytes(level.index, i);
            let (symbols, outliers) = read_block::<T>(bytes, block.lattice.len())?;
            let mut outliers = outliers.into_iter();
            let value = |(&symbol, prediction)| match symbol {
                ESCAPE_SYMBOL => outliers.next().ok_or_else(|| CodecError::corrupt("no outlier")),
                _ => Ok(T::from_f64(quant.reconstruct(symbol, prediction))),
            };
            symbols.iter().zip(predictions).map(value).collect()
        })?;
    }
    Ok(grid)
}

/// `region` of the full decode of `archive`.
pub fn region<T: Scalar>(archive: &StzArchive<T>, region: &Region) -> Result<Field<T>> {
    if region.is_empty() || !region.fits_in(archive.dims()) {
        return Err(CodecError::corrupt(format!("region {region:?} outside the grid")));
    }
    Ok(decode(archive, archive.num_levels())?.extract_region(region))
}

/// A sub-block stream (`docs/FORMAT.md` §5.1) of a block of `points`
/// points: its symbols, every chunk decoded whole, and its outliers.
fn read_block<T: Scalar>(bytes: &[u8], points: usize) -> Result<(Vec<u32>, Vec<T>)> {
    let mut r = ByteReader::new(bytes);
    let nchunks = r.get_uvarint()? as usize;
    let size = r.get_uvarint()? as usize;
    if !(1..=64).contains(&nchunks) || size == 0 || (nchunks - 1).saturating_mul(size) >= points {
        return Err(CodecError::corrupt("chunk layout does not fit the block"));
    }
    let escapes = (0..nchunks).map(|_| r.get_uvarint()).collect::<Result<Vec<u64>>>()?;
    let mut symbols = Vec::with_capacity(points);
    for (c, &declared) in escapes.iter().enumerate() {
        let chunk = huffman::decode_block(r.get_block()?)?;
        let escaped = chunk.iter().filter(|&&s| s == ESCAPE_SYMBOL).count() as u64;
        if chunk.len() != size.min(points - c * size) || escaped != declared {
            return Err(CodecError::corrupt("chunk does not hold what the stream declares"));
        }
        symbols.extend(chunk);
    }
    let outliers: Vec<T> = stz_sz3::stream::read_outliers(&mut r)?;
    if symbols.len() != points || outliers.len() as u64 != escapes.iter().sum::<u64>() {
        return Err(CodecError::corrupt("block stream does not hold its points"));
    }
    Ok((symbols, outliers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StzCompressor, StzConfig};
    use stz_field::Dims;

    fn wave<T: Scalar>(dims: Dims) -> Field<T> {
        Field::from_fn(dims, |z, y, x| {
            let v = (z as f64 * 0.29).sin() * (y as f64 * 0.17).cos() + (x as f64 * 0.13).sin();
            T::from_f64(v)
        })
    }

    /// Every level of `archive`, and a region, from the reference and from
    /// the codec's serial entry points, as bits.
    fn assert_reference_is_the_codec<T: Scalar>(archive: &StzArchive<T>, what: &str) {
        let bits = |f: Field<T>| f.as_slice().iter().map(|v| v.to_f64().to_bits()).collect();
        let bits: &dyn Fn(Field<T>) -> Vec<u64> = &bits;
        for k in 1..=archive.num_levels() {
            let want = bits(archive.decompress_level(k).unwrap());
            assert!(bits(decode(archive, k).unwrap()) == want, "{what}: level {k}");
        }
        let [nz, ny, nx] = archive.dims().as_array();
        let r = Region::d3(nz / 3..nz, ny / 2..ny, 1.min(nx - 1)..nx);
        let want = bits(archive.decompress_region(&r).unwrap());
        assert!(bits(region(archive, &r).unwrap()) == want, "{what}: region {r:?}");
        let full = bits(archive.decompress().unwrap());
        assert!(bits(decode(archive, archive.num_levels()).unwrap()) == full, "{what}: full");
    }

    #[test]
    fn the_reference_is_the_codec_on_every_level_count_interpolation_and_type() {
        for dims in [Dims::d3(19, 22, 17), Dims::d2(31, 26), Dims::d1(97), Dims::d3(2, 1, 3)] {
            for levels in 2..=4u8 {
                for interp in [InterpKind::Cubic, InterpKind::Linear] {
                    let cfg =
                        |eb| StzConfig::three_level(eb).with_levels(levels).with_interp(interp);
                    let what = format!("{dims} L{levels} {interp:?}");
                    let a32 = StzCompressor::new(cfg(1e-3)).compress(&wave::<f32>(dims)).unwrap();
                    assert_reference_is_the_codec(&a32, &format!("{what} f32"));
                    let a64 = StzCompressor::new(cfg(1e-6)).compress(&wave::<f64>(dims)).unwrap();
                    assert_reference_is_the_codec(&a64, &format!("{what} f64"));
                }
            }
        }
    }

    #[test]
    fn planted_escapes_and_a_subnormal_bound_come_back_bit_exact() {
        let dims = Dims::d3(13, 12, 14);
        let mut field = wave::<f32>(dims);
        field.set(5, 5, 5, 1e30);
        field.set(3, 7, 9, f32::from_bits(0x7FA0_0001)); // a signalling NaN
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&field).unwrap();
        assert_reference_is_the_codec(&archive, "escapes");
        let back = decode(&archive, 3).unwrap();
        assert_eq!(back.get(5, 5, 5), 1e30);
        assert_eq!(back.get(3, 7, 9).to_bits(), 0x7FA0_0001);
        // A bound below the smallest normal f64: almost every point escapes.
        let tiny = StzConfig::three_level(1e-310);
        let archive = StzCompressor::new(tiny).compress(&wave::<f64>(dims)).unwrap();
        assert_reference_is_the_codec(&archive, "subnormal bound");
    }

    #[test]
    fn a_block_that_does_not_hold_its_points_is_refused() {
        let archive = StzCompressor::new(StzConfig::three_level(1e-3))
            .compress(&wave::<f32>(Dims::d3(9, 9, 9)))
            .unwrap();
        let (block, points) =
            (archive.block_bytes(3, 0), archive.plan().levels[2].blocks[0].lattice.len());
        assert!(read_block::<f32>(block, points).is_ok());
        assert!(read_block::<f32>(block, points - 1).is_err());
        assert!(read_block::<f32>(&block[..block.len() - 1], points).is_err());
        assert!(decode(&archive, 0).is_err() && decode(&archive, 4).is_err());
        assert!(region(&archive, &Region::d3(0..10, 0..1, 0..1)).is_err());
    }
}
