//! STZ compression and full/progressive decompression drivers.
//!
//! Compression proceeds level by level on *working grids* — successively
//! finer coarsenings of the original grid (see [`crate::level`]). At each
//! level transition, the known coarse grid is scattered into the even
//! positions of the next working grid, every sub-block's points are
//! predicted from it with the multi-dimensional kernels, and the residuals
//! are quantized and Huffman-coded per sub-block.
//!
//! Because finer-level points never depend on one another, both the blocks
//! of a level and the points within a block are embarrassingly parallel; the
//! `parallel` entry points distribute them over the rayon thread pool and
//! produce **bit-identical archives** to the serial path.

use crate::archive::{build_bytes, ArchiveHeader, StzArchive};
use crate::config::StzConfig;
use crate::kernels::predict_point;
use crate::level::{BlockSpec, LevelPlan};
use crate::source::SectionSource;
use rayon::prelude::*;
use stz_codec::{
    huffman, ByteReader, ByteWriter, CodecError, LinearQuantizer, Result, ESCAPE_SYMBOL,
};
use stz_field::{Field, Scalar, SubLattice};
use stz_sz3::quant::{quantize_scalar, reconstruct_scalar, ScalarQuant};
use stz_sz3::{ErrorBound, Sz3Config};

/// The STZ streaming compressor.
#[derive(Debug, Clone)]
pub struct StzCompressor {
    config: StzConfig,
}

/// Quantization output of one sub-block.
pub(crate) struct BlockPayload<T> {
    pub symbols: Vec<u32>,
    pub outliers: Vec<T>,
    /// Reconstructed values (C order over the block), rounded through `T`.
    pub recon: Vec<f64>,
}

impl StzCompressor {
    pub fn new(config: StzConfig) -> Self {
        StzCompressor { config }
    }

    pub fn config(&self) -> &StzConfig {
        &self.config
    }

    /// Compress serially.
    pub fn compress<T: Scalar>(&self, field: &Field<T>) -> Result<StzArchive<T>> {
        self.compress_impl(field, false)
    }

    /// Compress using the rayon thread pool. Produces bytes identical to
    /// [`StzCompressor::compress`].
    pub fn compress_parallel<T: Scalar>(&self, field: &Field<T>) -> Result<StzArchive<T>> {
        self.compress_impl(field, true)
    }

    fn compress_impl<T: Scalar>(&self, field: &Field<T>, parallel: bool) -> Result<StzArchive<T>> {
        let cfg = &self.config;
        // Classify bad configurations up front (typed `ConfigError`) —
        // before the level planner or the quantizer can assert on them.
        cfg.validate()
            .map_err(|e| CodecError::unsupported(format!("invalid configuration: {e}")))?;
        let dims = field.dims();
        let plan = LevelPlan::new(dims, cfg.levels);
        let eb_abs = cfg.eb.absolute_for(field);
        // A *relative* bound over a constant field resolves to zero even
        // when the configured ratio is valid; catch the resolved value too.
        if !(eb_abs > 0.0 && eb_abs.is_finite()) {
            return Err(CodecError::unsupported(format!(
                "invalid configuration: resolved error bound {eb_abs} must be positive and finite"
            )));
        }
        let ebs = cfg.level_ebs_from_absolute(eb_abs);

        // Per-stage wall-clock histograms (resolved once; the per-block
        // closures record through the lock-free handles).
        let reg = stz_telemetry::global();
        let level1_ns = reg.latency("stz_core_stage_ns", &[("stage", "level1")]);
        let quantize_ns = reg.latency("stz_core_stage_ns", &[("stage", "quantize")]);
        let encode_ns = reg.latency("stz_core_stage_ns", &[("stage", "encode")]);

        // Level 1: SZ3 on sub-block A.
        let a_field: Field<T> = plan.level1().gather(field);
        let sz3_cfg =
            Sz3Config { eb: ErrorBound::Absolute(ebs[0]), radius: cfg.radius, interp: cfg.interp };
        let (l1_bytes, _stats, a_recon) = {
            let _stage = level1_ns.span();
            stz_sz3::compress_full(&a_field, &sz3_cfg)
        };
        let mut grid = Field::from_vec(plan.levels[0].grid_dims, a_recon);

        // Finer levels.
        let mut level_blocks: Vec<Vec<Vec<u8>>> = Vec::with_capacity(cfg.levels as usize - 1);
        for level in &plan.levels[1..] {
            let quant = LinearQuantizer::new(ebs[level.index as usize - 1], cfg.radius);
            let mut next = Field::<f64>::zeros(level.grid_dims);
            upscatter(&grid, &mut next);

            let process = |block: &BlockSpec| -> (Vec<u8>, Field<f64>) {
                let orig: Field<T> = block.lattice.gather(field);
                let payload = {
                    let _stage = quantize_ns.span();
                    quantize_block(&orig, &next, block, &quant, cfg.interp, parallel)
                };
                let bytes = {
                    let _stage = encode_ns.span();
                    encode_block_payload(&payload, parallel)
                };
                let recon_field = Field::from_vec(block.lattice.dims(), payload.recon);
                (bytes, recon_field)
            };
            let results: Vec<(Vec<u8>, Field<f64>)> = if parallel {
                level.blocks.par_iter().map(process).collect()
            } else {
                level.blocks.iter().map(process).collect()
            };

            let mut encoded = Vec::with_capacity(results.len());
            for (block, (bytes, recon_field)) in level.blocks.iter().zip(results) {
                block.grid_lattice.scatter(&recon_field, &mut next);
                encoded.push(bytes);
            }
            level_blocks.push(encoded);
            grid = next;
        }

        let header = ArchiveHeader {
            dims,
            type_tag: T::TYPE_TAG,
            levels: cfg.levels,
            interp: cfg.interp,
            adaptive: cfg.adaptive,
            adaptive_ratio: cfg.adaptive_ratio,
            eb_finest: eb_abs,
            radius: cfg.radius,
        };
        StzArchive::from_bytes(build_bytes(&header, &l1_bytes, &level_blocks))
    }
}

/// Scatter the coarse working grid into the even positions of the next
/// (2× finer) working grid.
pub(crate) fn upscatter(coarse: &Field<f64>, next: &mut Field<f64>) {
    let even =
        SubLattice::new(next.dims(), [0, 0, 0], 2).expect("origin sub-lattice is never empty");
    debug_assert_eq!(even.dims().as_array(), coarse.dims().as_array());
    even.scatter(coarse, next);
}

/// Quantize one sub-block against the (partially filled) working grid.
pub(crate) fn quantize_block<T: Scalar>(
    orig: &Field<T>,
    grid: &Field<f64>,
    block: &BlockSpec,
    quant: &LinearQuantizer,
    interp: stz_sz3::InterpKind,
    parallel: bool,
) -> BlockPayload<T> {
    let bdims = orig.dims();
    let nz = bdims.nz();
    if !parallel || nz < 2 {
        return quantize_chunk(orig, grid, block, quant, interp, 0..nz);
    }
    let chunk = slab_size(nz);
    let ranges: Vec<std::ops::Range<usize>> =
        (0..nz).step_by(chunk).map(|z0| z0..(z0 + chunk).min(nz)).collect();
    let parts: Vec<BlockPayload<T>> = ranges
        .into_par_iter()
        .map(|r| quantize_chunk(orig, grid, block, quant, interp, r))
        .collect();
    merge_payloads(parts)
}

fn slab_size(nz: usize) -> usize {
    let threads = rayon::current_num_threads().max(1);
    (nz / (threads * 4)).max(1)
}

fn merge_payloads<T: Scalar>(parts: Vec<BlockPayload<T>>) -> BlockPayload<T> {
    let mut symbols = Vec::with_capacity(parts.iter().map(|p| p.symbols.len()).sum());
    let mut outliers = Vec::with_capacity(parts.iter().map(|p| p.outliers.len()).sum());
    let mut recon = Vec::with_capacity(parts.iter().map(|p| p.recon.len()).sum());
    for p in parts {
        symbols.extend(p.symbols);
        outliers.extend(p.outliers);
        recon.extend(p.recon);
    }
    BlockPayload { symbols, outliers, recon }
}

fn quantize_chunk<T: Scalar>(
    orig: &Field<T>,
    grid: &Field<f64>,
    block: &BlockSpec,
    quant: &LinearQuantizer,
    interp: stz_sz3::InterpKind,
    z_range: std::ops::Range<usize>,
) -> BlockPayload<T> {
    let bdims = orig.dims();
    let (by, bx) = (bdims.ny(), bdims.nx());
    let n = (z_range.end - z_range.start) * by * bx;
    let mut symbols = Vec::with_capacity(n);
    let mut outliers = Vec::new();
    let mut recon = Vec::with_capacity(n);
    let gbuf = grid.as_slice();
    let gdims = grid.dims();
    let active = &block.active_axes[..];
    let src = orig.as_slice();
    let stencil = RowWalker::new(gdims, block, interp);
    let lane = stz_simd::active_lane();
    // Row-batch scratch for the SIMD path (unused under Lane::Scalar, which
    // keeps the original per-point walk as the byte-identity anchor).
    let mut scratch = RowScratch::new(if lane == stz_simd::Lane::Scalar { 0 } else { bx });
    for z in z_range {
        for y in 0..by {
            let row = (z * by + y) * bx;
            let walk = stencil.row(z, y, bx);
            let (xa, xb) = walk.batch_range(&scratch);
            let mut x = 0;
            while x < bx {
                if x == xa && x < xb {
                    // Interior span: predict + quantize a whole row segment
                    // at SIMD width, then emit symbols/outliers in the same
                    // ascending order as the per-point loop.
                    let m = xb - xa;
                    let (actuals, preds, qs, rs, es) = scratch.split(m);
                    T::simd_widen(lane, &src[row + xa..row + xb], actuals);
                    stz_simd::predict_run(
                        lane,
                        gbuf,
                        walk.row_base + walk.gx0 + 2 * xa,
                        walk.simd_stencil(),
                        preds,
                    );
                    stz_sz3::quant::quantize_run::<T>(quant, lane, actuals, preds, qs, rs, es);
                    for j in 0..m {
                        if es[j] == 0 {
                            symbols.push(LinearQuantizer::symbol_of(qs[j] as i64));
                            recon.push(rs[j]);
                        } else {
                            symbols.push(ESCAPE_SYMBOL);
                            outliers.push(src[row + xa + j]);
                            recon.push(actuals[j]);
                        }
                    }
                    x = xb;
                    continue;
                }
                let pred = walk.predict(gbuf, gdims, active, interp, x);
                let actual = src[row + x].to_f64();
                match quantize_scalar::<T>(quant, actual, pred) {
                    ScalarQuant::Code { symbol, recon: r } => {
                        symbols.push(symbol);
                        recon.push(r);
                    }
                    ScalarQuant::Escape => {
                        symbols.push(ESCAPE_SYMBOL);
                        outliers.push(src[row + x]);
                        recon.push(actual);
                    }
                }
                x += 1;
            }
        }
    }
    BlockPayload { symbols, outliers, recon }
}

/// Reusable per-row scratch buffers for the SIMD batch paths. `cap == 0`
/// disables batching (the scalar lane walks point by point instead).
struct RowScratch {
    actuals: Vec<f64>,
    preds: Vec<f64>,
    codes: Vec<f64>,
    recon: Vec<f64>,
    escapes: Vec<u8>,
}

impl RowScratch {
    fn new(cap: usize) -> RowScratch {
        RowScratch {
            actuals: vec![0.0; cap],
            preds: vec![0.0; cap],
            codes: vec![0.0; cap],
            recon: vec![0.0; cap],
            escapes: vec![0; cap],
        }
    }

    fn enabled(&self) -> bool {
        !self.preds.is_empty()
    }

    #[allow(clippy::type_complexity)]
    fn split(&mut self, m: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64], &mut [u8]) {
        (
            &mut self.actuals[..m],
            &mut self.preds[..m],
            &mut self.codes[..m],
            &mut self.recon[..m],
            &mut self.escapes[..m],
        )
    }

    /// Just the code buffer (the decode path writes reconstructions
    /// directly into its output instead of through the scratch).
    fn codes(&mut self, m: usize) -> &mut [f64] {
        &mut self.codes[..m]
    }
}

/// Per-block prediction walker: precomputes the interior fast-path stencil
/// and per-row bounds, falling back to the general (boundary-safe) kernel
/// only where the stencil leaves the grid.
struct RowWalker<'a> {
    stencil: crate::kernels::StencilOffsets,
    simd_stencil: stz_simd::Stencil,
    block: &'a BlockSpec,
    gny: usize,
    gnx: usize,
    x_active: bool,
}

/// One row's resolved walk state.
struct RowWalk<'a> {
    walker: &'a RowWalker<'a>,
    /// Grid coordinates of the row's first point.
    gz: usize,
    gy: usize,
    gx0: usize,
    row_base: usize,
    /// Whether the z/y components of the stencil are interior.
    zy_interior: bool,
    xa: usize,
    xb: usize,
}

impl<'a> RowWalker<'a> {
    fn new(
        gdims: stz_field::Dims,
        block: &'a BlockSpec,
        interp: stz_sz3::InterpKind,
    ) -> RowWalker<'a> {
        let stencil = crate::kernels::StencilOffsets::new(gdims, &block.active_axes, interp);
        RowWalker {
            simd_stencil: stencil.as_simd(),
            stencil,
            block,
            gny: gdims.ny(),
            gnx: gdims.nx(),
            x_active: block.active_axes.contains(&2),
        }
    }

    fn row(&self, z: usize, y: usize, bx: usize) -> RowWalk<'_> {
        let (gz, gy, gx0) = self.block.grid_lattice.to_parent(z, y, 0);
        let mut zy_interior = true;
        for &d in &self.block.active_axes {
            match d {
                0 => zy_interior &= self.stencil.interior_coord(gz, self.row_nz()),
                1 => zy_interior &= self.stencil.interior_coord(gy, self.gny),
                _ => {}
            }
        }
        let (xa, xb) = self.stencil.interior_x_range(self.x_active, gx0, self.gnx, bx);
        RowWalk {
            walker: self,
            gz,
            gy,
            gx0,
            row_base: (gz * self.gny + gy) * self.gnx,
            zy_interior,
            xa,
            xb,
        }
    }

    fn row_nz(&self) -> usize {
        self.block.grid_lattice.parent_dims().nz()
    }
}

impl RowWalk<'_> {
    /// The block-local x span `[xa, xb)` this row can process with the SIMD
    /// batch kernels — its interior fast-path span, or empty when batching
    /// is disabled or the row's z/y stencil legs leave the grid.
    #[inline]
    fn batch_range(&self, scratch: &RowScratch) -> (usize, usize) {
        if scratch.enabled() && self.zy_interior {
            (self.xa, self.xb)
        } else {
            (0, 0)
        }
    }

    #[inline]
    fn simd_stencil(&self) -> &stz_simd::Stencil {
        &self.walker.simd_stencil
    }

    #[inline(always)]
    fn predict(
        &self,
        gbuf: &[f64],
        gdims: stz_field::Dims,
        active: &[usize],
        interp: stz_sz3::InterpKind,
        x: usize,
    ) -> f64 {
        let gx = self.gx0 + 2 * x;
        if self.zy_interior && x >= self.xa && x < self.xb {
            self.walker.stencil.predict_interior(gbuf, self.row_base + gx)
        } else {
            predict_point(gbuf, gdims, [self.gz, self.gy, gx], active, 1, interp)
        }
    }
}

/// Symbols per Huffman chunk within a sub-block stream. Sub-block streams
/// are split into independently decodable chunks at fixed boundaries so
/// entropy coding — the only inherently sequential stage — parallelizes
/// too, without changing the random-access granularity (a sub-block is
/// still decoded as a whole, as §3.3 describes).
const HUFFMAN_CHUNK: usize = 1 << 16;

fn chunk_count(n: usize) -> usize {
    n.div_ceil(HUFFMAN_CHUNK).clamp(1, 64)
}

/// Serialize a sub-block stream: Huffman-coded symbol chunks (each prefixed
/// by its escape count, enabling random-access chunk decoding) + bit-exact
/// outliers.
pub(crate) fn encode_block_payload<T: Scalar>(
    payload: &BlockPayload<T>,
    parallel: bool,
) -> Vec<u8> {
    let n = payload.symbols.len();
    let nchunks = chunk_count(n);
    let size = n.div_ceil(nchunks).max(1);
    let chunks: Vec<&[u32]> = payload.symbols.chunks(size).collect();
    let encoded: Vec<Vec<u8>> = if parallel && chunks.len() > 1 {
        chunks.par_iter().map(|c| huffman::encode_block(c)).collect()
    } else {
        chunks.iter().map(|c| huffman::encode_block(c)).collect()
    };
    let mut w = ByteWriter::with_capacity(n / 2 + 32);
    w.put_uvarint(encoded.len() as u64);
    w.put_uvarint(size as u64);
    // Per-chunk escape counts: a random-access reader can align its outlier
    // cursor without entropy-decoding skipped chunks (the paper's
    // "random-access Huffman decoding" future-work item).
    for c in &chunks {
        let escapes = c.iter().filter(|&&s| s == ESCAPE_SYMBOL).count();
        w.put_uvarint(escapes as u64);
    }
    for e in &encoded {
        w.put_block(e);
    }
    stz_sz3::stream::write_outliers(&mut w, &payload.outliers);
    w.finish()
}

/// Parsed structure of a sub-block stream (nothing entropy-decoded yet).
pub(crate) struct PayloadMeta<'a> {
    /// Encoded Huffman chunks.
    pub chunks: Vec<&'a [u8]>,
    /// Escapes per chunk.
    pub chunk_escapes: Vec<usize>,
    /// Symbols per chunk (the final chunk may be smaller).
    pub chunk_size: usize,
    /// Total symbol count.
    pub total: usize,
}

impl PayloadMeta<'_> {
    /// Symbol count of chunk `c`.
    pub fn len_of(&self, c: usize) -> usize {
        let start = c * self.chunk_size;
        self.chunk_size.min(self.total - start)
    }
}

/// Parse a sub-block stream into chunk metadata + outliers, without
/// decoding any symbols.
pub(crate) fn parse_block_payload<'a, T: Scalar>(
    bytes: &'a [u8],
    expected_points: usize,
) -> Result<(PayloadMeta<'a>, Vec<T>)> {
    let mut r = ByteReader::new(bytes);
    let nchunks = r.get_uvarint()? as usize;
    if nchunks == 0 || nchunks > 64 {
        return Err(CodecError::corrupt(format!("invalid chunk count {nchunks}")));
    }
    let chunk_size = r.get_uvarint()? as usize;
    if chunk_size == 0
        || chunk_size.saturating_mul(nchunks) < expected_points
        || (nchunks - 1).saturating_mul(chunk_size) >= expected_points.max(1)
    {
        return Err(CodecError::corrupt("chunk size inconsistent with point count"));
    }
    let mut chunk_escapes = Vec::with_capacity(nchunks);
    for _ in 0..nchunks {
        let e = r.get_uvarint()? as usize;
        if e > chunk_size {
            return Err(CodecError::corrupt("chunk escape count exceeds chunk size"));
        }
        chunk_escapes.push(e);
    }
    let mut chunks = Vec::with_capacity(nchunks);
    for _ in 0..nchunks {
        chunks.push(r.get_block()?);
    }
    let outliers: Vec<T> = stz_sz3::stream::read_outliers(&mut r)?;
    if outliers.len() != chunk_escapes.iter().sum::<usize>() {
        return Err(CodecError::corrupt("outlier count does not match chunk escape counts"));
    }
    Ok((PayloadMeta { chunks, chunk_escapes, chunk_size, total: expected_points }, outliers))
}

/// Deserialize a whole sub-block stream, validating symbol and outlier
/// counts.
pub(crate) fn decode_block_payload<T: Scalar>(
    bytes: &[u8],
    expected_points: usize,
    parallel: bool,
) -> Result<(Vec<u32>, Vec<T>)> {
    let (meta, outliers) = parse_block_payload::<T>(bytes, expected_points)?;
    let decoded: Vec<Result<Vec<u32>>> = if parallel && meta.chunks.len() > 1 {
        meta.chunks.par_iter().map(|b| huffman::decode_block(b)).collect()
    } else {
        meta.chunks.iter().map(|b| huffman::decode_block(b)).collect()
    };
    let mut symbols = Vec::with_capacity(expected_points);
    for (c, d) in decoded.into_iter().enumerate() {
        let d = d?;
        if d.len() != meta.len_of(c) {
            return Err(CodecError::corrupt("chunk symbol count mismatch"));
        }
        let escapes = d.iter().filter(|&&s| s == ESCAPE_SYMBOL).count();
        if escapes != meta.chunk_escapes[c] {
            return Err(CodecError::corrupt("chunk escape count mismatch"));
        }
        symbols.extend(d);
    }
    if symbols.len() != expected_points {
        return Err(CodecError::corrupt(format!(
            "sub-block has {} symbols, geometry requires {expected_points}",
            symbols.len()
        )));
    }
    Ok((symbols, outliers))
}

/// Reconstruct one sub-block from its decoded symbols.
pub(crate) fn reconstruct_block<T: Scalar>(
    symbols: &[u32],
    outliers: &[T],
    grid: &Field<f64>,
    block: &BlockSpec,
    quant: &LinearQuantizer,
    interp: stz_sz3::InterpKind,
    parallel: bool,
) -> Field<f64> {
    let bdims = block.lattice.dims();
    let (nz, by, bx) = (bdims.nz(), bdims.ny(), bdims.nx());
    if !parallel || nz < 2 {
        let recon = reconstruct_chunk(symbols, outliers, grid, block, quant, interp, 0..nz, 0);
        return Field::from_vec(bdims, recon);
    }
    let chunk = slab_size(nz);
    // Outlier cursor offset at each chunk boundary.
    let plane = by * bx;
    let mut ranges = Vec::new();
    let mut escape_offsets = Vec::new();
    let mut escapes_so_far = 0usize;
    let mut z0 = 0usize;
    while z0 < nz {
        let z1 = (z0 + chunk).min(nz);
        ranges.push(z0..z1);
        escape_offsets.push(escapes_so_far);
        escapes_so_far +=
            symbols[z0 * plane..z1 * plane].iter().filter(|&&s| s == ESCAPE_SYMBOL).count();
        z0 = z1;
    }
    let parts: Vec<Vec<f64>> = ranges
        .into_par_iter()
        .zip(escape_offsets.into_par_iter())
        .map(|(r, off)| reconstruct_chunk(symbols, outliers, grid, block, quant, interp, r, off))
        .collect();
    let mut recon = Vec::with_capacity(nz * plane);
    for p in parts {
        recon.extend(p);
    }
    Field::from_vec(bdims, recon)
}

#[allow(clippy::too_many_arguments)]
fn reconstruct_chunk<T: Scalar>(
    symbols: &[u32],
    outliers: &[T],
    grid: &Field<f64>,
    block: &BlockSpec,
    quant: &LinearQuantizer,
    interp: stz_sz3::InterpKind,
    z_range: std::ops::Range<usize>,
    mut outlier_cursor: usize,
) -> Vec<f64> {
    let bdims = block.lattice.dims();
    let (by, bx) = (bdims.ny(), bdims.nx());
    let gbuf = grid.as_slice();
    let gdims = grid.dims();
    let active = &block.active_axes[..];
    let mut recon = Vec::with_capacity((z_range.end - z_range.start) * by * bx);
    let stencil = RowWalker::new(gdims, block, interp);
    let lane = stz_simd::active_lane();
    let mut scratch = RowScratch::new(if lane == stz_simd::Lane::Scalar { 0 } else { bx });
    for z in z_range {
        for y in 0..by {
            let row = (z * by + y) * bx;
            let walk = stencil.row(z, y, bx);
            let (xa, xb) = walk.batch_range(&scratch);
            let mut x = 0;
            while x < bx {
                if x == xa && x < xb {
                    // Interior span: branchless symbol→code conversion, then
                    // one fused predict+reconstruct pass writing straight
                    // into the output. Escape slots get a placeholder code —
                    // their lane result is overwritten with the stored
                    // outlier below, so it cannot influence any output byte.
                    let m = xb - xa;
                    let span = &symbols[row + xa..row + xb];
                    let codes = scratch.codes(m);
                    LinearQuantizer::codes_of_run(span, codes);
                    let start = recon.len();
                    recon.resize(start + m, 0.0);
                    stz_sz3::quant::predict_reconstruct_run::<T>(
                        quant,
                        lane,
                        gbuf,
                        walk.row_base + walk.gx0 + 2 * xa,
                        walk.simd_stencil(),
                        codes,
                        &mut recon[start..start + m],
                    );
                    if !outliers.is_empty() {
                        for (j, &s) in span.iter().enumerate() {
                            if s == ESCAPE_SYMBOL {
                                recon[start + j] = outliers[outlier_cursor].to_f64();
                                outlier_cursor += 1;
                            }
                        }
                    }
                    x = xb;
                    continue;
                }
                let symbol = symbols[row + x];
                if symbol == ESCAPE_SYMBOL {
                    recon.push(outliers[outlier_cursor].to_f64());
                    outlier_cursor += 1;
                } else {
                    let pred = walk.predict(gbuf, gdims, active, interp, x);
                    recon.push(reconstruct_scalar::<T>(quant, symbol, pred));
                }
                x += 1;
            }
        }
    }
    recon
}

/// Decompress levels `1..=upto` of an archive, returning the corresponding
/// preview field (`upto == levels` gives the full-resolution field).
///
/// Generic over [`SectionSource`], so the same driver serves resident
/// archives and out-of-core containers; only levels `1..=upto` are fetched.
pub(crate) fn decompress_impl<T: Scalar, S: SectionSource + ?Sized>(
    source: &S,
    upto: u8,
    parallel: bool,
) -> Result<Field<T>> {
    if !(1..=source.num_levels()).contains(&upto) {
        return Err(CodecError::corrupt(format!(
            "requested level {upto} of a {}-level archive",
            source.num_levels()
        )));
    }
    let plan = source.plan();
    let mut grid = {
        let _stage = stz_telemetry::trace::span("level1");
        decode_level1::<T, S>(source, &plan)?
    };
    for level in &plan.levels[1..upto as usize] {
        let mut stage = stz_telemetry::trace::span("level_decode");
        stage.attr("level", level.index);
        grid = decode_level_grid::<T, S>(source, &plan, level.index, &grid, parallel)?;
    }
    // Chunk by index range rather than par_iter over elements: the cast is
    // trivial per element, so materializing per-element work items would
    // cost more memory than the parallelism saves on large grids.
    let buf = grid.as_slice();
    let lane = stz_simd::active_lane();
    let cast = |r: std::ops::Range<usize>| -> Vec<T> {
        let mut part = vec![T::default(); r.len()];
        T::simd_from_f64(lane, &buf[r], &mut part);
        part
    };
    let data: Vec<T> = if parallel && buf.len() > 1 {
        let chunk = buf.len().div_ceil(64);
        let ranges: Vec<std::ops::Range<usize>> =
            (0..buf.len()).step_by(chunk).map(|s| s..(s + chunk).min(buf.len())).collect();
        let parts: Vec<Vec<T>> = ranges.into_par_iter().map(cast).collect();
        let mut data = Vec::with_capacity(buf.len());
        for p in parts {
            data.extend(p);
        }
        data
    } else {
        cast(0..buf.len())
    };
    Ok(Field::from_vec(grid.dims(), data))
}

/// Decode level 1 (the SZ3 stream) into its working grid.
///
/// Also the element-type gate for every decode path: a source whose header
/// advertises a different scalar type than `T` is rejected here, before any
/// payload is interpreted.
pub(crate) fn decode_level1<T: Scalar, S: SectionSource + ?Sized>(
    source: &S,
    plan: &LevelPlan,
) -> Result<Field<f64>> {
    if source.header().type_tag != T::TYPE_TAG {
        return Err(CodecError::corrupt(format!(
            "archive element type tag {} does not match requested type",
            source.header().type_tag
        )));
    }
    let l1 = source.l1_bytes()?;
    let a: Field<T> = stz_sz3::decompress(&l1)?;
    let expect = plan.levels[0].grid_dims;
    if a.dims().as_array() != expect.as_array() {
        return Err(CodecError::corrupt(format!(
            "level-1 stream dims {} do not match geometry {expect}",
            a.dims()
        )));
    }
    let mut wide = vec![0.0f64; a.as_slice().len()];
    T::simd_widen(stz_simd::active_lane(), a.as_slice(), &mut wide);
    Ok(Field::from_vec(expect, wide))
}

/// Decode one finer level, given the previous level's working grid.
pub(crate) fn decode_level_grid<T: Scalar, S: SectionSource + ?Sized>(
    source: &S,
    plan: &LevelPlan,
    level_index: u8,
    prev_grid: &Field<f64>,
    parallel: bool,
) -> Result<Field<f64>> {
    let level = &plan.levels[level_index as usize - 1];
    let ebs = source.header().level_ebs();
    let quant = LinearQuantizer::new(ebs[level_index as usize - 1], source.header().radius);
    let interp = source.header().interp;

    let mut next = Field::<f64>::zeros(level.grid_dims);
    upscatter(prev_grid, &mut next);

    let decode_one = |(i, block): (usize, &BlockSpec)| -> Result<Field<f64>> {
        let bytes = source.block_bytes(level_index, i)?;
        // Off-trace a stage span is one thread-local read: no clock, no
        // allocation.
        let stage = |name| {
            let mut span = stz_telemetry::trace::span(name);
            span.attr("block", i);
            span
        };
        let (symbols, outliers) = {
            let _stage = stage("entropy");
            decode_block_payload::<T>(&bytes, block.lattice.len(), parallel)?
        };
        let _stage = stage("reconstruct");
        Ok(reconstruct_block(&symbols, &outliers, &next, block, &quant, interp, parallel))
    };
    let results: Vec<Result<Field<f64>>> = if parallel {
        level.blocks.par_iter().enumerate().map(decode_one).collect()
    } else {
        level.blocks.iter().enumerate().map(decode_one).collect()
    };
    for (block, recon) in level.blocks.iter().zip(results) {
        block.grid_lattice.scatter(&recon?, &mut next);
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stz_field::Dims;

    #[test]
    #[ignore]
    fn profile_recon_batch() {
        let dims = Dims::d3(128, 128, 128);
        let f = Field::from_fn(dims, |z, y, x| {
            let (zf, yf, xf) = (z as f32 * 0.21, y as f32 * 0.13, x as f32 * 0.17);
            zf.sin() * yf.cos() + (xf + yf).sin() + 0.3 * zf
        });
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let plan = archive.plan();
        let src = &archive;
        use crate::source::SectionSource;
        let mut grid = decode_level1::<f32, _>(src, &plan).unwrap();
        for level in &plan.levels[1..2] {
            grid = decode_level_grid::<f32, _>(src, &plan, level.index, &grid, false).unwrap();
        }
        let level = &plan.levels[2];
        let ebs = src.header().level_ebs();
        let quant = LinearQuantizer::new(ebs[2], src.header().radius);
        let interp = src.header().interp;
        let mut next = Field::<f64>::zeros(level.grid_dims);
        upscatter(&grid, &mut next);
        let lane = stz_simd::active_lane();
        for (i, block) in level.blocks.iter().enumerate() {
            let bytes = SectionSource::block_bytes(src, level.index, i).unwrap();
            let (symbols, outliers) =
                decode_block_payload::<f32>(&bytes, block.lattice.len(), false).unwrap();
            let bdims = block.lattice.dims();
            let (bz, by, bx) = (bdims.nz(), bdims.ny(), bdims.nx());
            let gbuf = next.as_slice();
            let walker = RowWalker::new(next.dims(), block, interp);
            let (mut pts_batch, mut pts_scalar) = (0usize, 0usize);
            let mut scratch = RowScratch::new(bx);
            let mut recon: Vec<f64> = Vec::with_capacity(bz * by * bx);
            let (mut t_codes, mut t_kernel, mut t_scan, mut t_row) = (0.0, 0.0, 0.0, 0.0);
            let t_all = std::time::Instant::now();
            for z in 0..bz {
                for y in 0..by {
                    let tr = std::time::Instant::now();
                    let row = (z * by + y) * bx;
                    let walk = walker.row(z, y, bx);
                    let (xa, xb) = walk.batch_range(&scratch);
                    t_row += tr.elapsed().as_secs_f64();
                    if xb > xa {
                        pts_batch += xb - xa;
                        pts_scalar += bx - (xb - xa);
                        let m = xb - xa;
                        let span = &symbols[row + xa..row + xb];
                        let t = std::time::Instant::now();
                        let codes = scratch.codes(m);
                        LinearQuantizer::codes_of_run(span, codes);
                        t_codes += t.elapsed().as_secs_f64();
                        let t = std::time::Instant::now();
                        let start = recon.len();
                        recon.resize(start + m, 0.0);
                        stz_sz3::quant::predict_reconstruct_run::<f32>(
                            &quant,
                            lane,
                            gbuf,
                            walk.row_base + walk.gx0 + 2 * xa,
                            walk.simd_stencil(),
                            codes,
                            &mut recon[start..start + m],
                        );
                        t_kernel += t.elapsed().as_secs_f64();
                        let t = std::time::Instant::now();
                        if !outliers.is_empty() {
                            let mut c = 0usize;
                            for &s in span.iter() {
                                if s == ESCAPE_SYMBOL {
                                    c += 1;
                                }
                            }
                            std::hint::black_box(c);
                        }
                        t_scan += t.elapsed().as_secs_f64();
                    } else {
                        pts_scalar += bx;
                    }
                }
            }
            let total = t_all.elapsed().as_secs_f64();
            println!(
                "block {i} axes {:?}: batch {pts_batch} scalar {pts_scalar} | row {t_row:.4} codes {t_codes:.4} kernel {t_kernel:.4} scan {t_scan:.4} total {total:.4}",
                block.active_axes
            );
            std::hint::black_box(&recon);
        }
    }

    #[test]
    #[ignore]
    fn profile_decode_stages() {
        let dims = Dims::d3(128, 128, 128);
        let f = Field::from_fn(dims, |z, y, x| {
            let (zf, yf, xf) = (z as f32 * 0.21, y as f32 * 0.13, x as f32 * 0.17);
            zf.sin() * yf.cos() + (xf + yf).sin() + 0.3 * zf
        });
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let mb = f.nbytes() as f64 / 1e6;
        // Whole decompress.
        let t = std::time::Instant::now();
        let out: Field<f32> = archive.decompress().unwrap();
        let full = t.elapsed().as_secs_f64();
        std::hint::black_box(&out);
        println!("full decompress: {:.1} MB/s ({:.3}s)", mb / full, full);
        // Stage split on the finest level (the bulk of the work).
        let plan = archive.plan();
        let src = &archive;
        use crate::source::SectionSource;
        let t = std::time::Instant::now();
        let mut grid = decode_level1::<f32, _>(src, &plan).unwrap();
        println!("  level1: {:.4}s", t.elapsed().as_secs_f64());
        for level in &plan.levels[1..2] {
            let t = std::time::Instant::now();
            grid = decode_level_grid::<f32, _>(src, &plan, level.index, &grid, false).unwrap();
            println!("  level{}: {:.4}s", level.index, t.elapsed().as_secs_f64());
        }
        let t = std::time::Instant::now();
        let fin =
            decode_level_grid::<f32, _>(src, &plan, plan.levels[2].index, &grid, false).unwrap();
        println!("  level{} (whole): {:.4}s", plan.levels[2].index, t.elapsed().as_secs_f64());
        std::hint::black_box(&fin);
        let level = &plan.levels[2];
        let ebs = src.header().level_ebs();
        let quant = LinearQuantizer::new(ebs[2], src.header().radius);
        let interp = src.header().interp;
        let mut next = Field::<f64>::zeros(level.grid_dims);
        let t = std::time::Instant::now();
        upscatter(&grid, &mut next);
        println!("  upscatter: {:.4}s", t.elapsed().as_secs_f64());
        let mut t_entropy = 0.0;
        let mut t_recon = 0.0;
        let mut t_scatter = 0.0;
        for (i, block) in level.blocks.iter().enumerate() {
            let bytes = SectionSource::block_bytes(src, level.index, i).unwrap();
            let t = std::time::Instant::now();
            let (symbols, outliers) =
                decode_block_payload::<f32>(&bytes, block.lattice.len(), false).unwrap();
            t_entropy += t.elapsed().as_secs_f64();
            let t = std::time::Instant::now();
            let recon = reconstruct_block(&symbols, &outliers, &next, block, &quant, interp, false);
            t_recon += t.elapsed().as_secs_f64();
            let t = std::time::Instant::now();
            block.grid_lattice.scatter(&recon, &mut next);
            t_scatter += t.elapsed().as_secs_f64();
        }
        println!(
            "  finest level: entropy {t_entropy:.4}s recon {t_recon:.4}s scatter {t_scatter:.4}s"
        );
        // Final cast.
        let t = std::time::Instant::now();
        let data: Vec<f32> = next.as_slice().iter().map(|&v| v as f32).collect();
        std::hint::black_box(&data);
        println!("  cast: {:.4}s", t.elapsed().as_secs_f64());
    }

    fn wavy(dims: Dims) -> Field<f32> {
        Field::from_fn(dims, |z, y, x| {
            let (zf, yf, xf) = (z as f32 * 0.21, y as f32 * 0.13, x as f32 * 0.17);
            zf.sin() * yf.cos() + (xf + yf).sin() + 0.3 * zf
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
    fn roundtrip_three_level_error_bounded() {
        let f = wavy(Dims::d3(24, 20, 28));
        for eb in [1e-1, 1e-2, 1e-3] {
            let archive = StzCompressor::new(StzConfig::three_level(eb)).compress(&f).unwrap();
            let back = archive.decompress().unwrap();
            assert_eq!(back.dims(), f.dims());
            assert!(max_err(&f, &back) <= eb, "eb {eb}: err {}", max_err(&f, &back));
        }
    }

    #[test]
    fn roundtrip_two_level() {
        let f = wavy(Dims::d3(17, 15, 13));
        let archive = StzCompressor::new(StzConfig::two_level(1e-2)).compress(&f).unwrap();
        let back = archive.decompress().unwrap();
        assert!(max_err(&f, &back) <= 1e-2);
    }

    #[test]
    fn roundtrip_four_level() {
        let f = wavy(Dims::d3(33, 31, 35));
        let archive =
            StzCompressor::new(StzConfig::three_level(1e-2).with_levels(4)).compress(&f).unwrap();
        let back = archive.decompress().unwrap();
        assert!(max_err(&f, &back) <= 1e-2);
    }

    #[test]
    fn roundtrip_2d_and_1d() {
        for dims in [Dims::d2(30, 26), Dims::d1(100)] {
            let f = wavy(dims);
            let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
            let back = archive.decompress().unwrap();
            assert!(max_err(&f, &back) <= 1e-3, "dims {dims}");
        }
    }

    #[test]
    fn roundtrip_odd_dims() {
        for dims in [Dims::d3(7, 9, 11), Dims::d3(5, 4, 6), Dims::d3(4, 4, 4), Dims::d3(1, 1, 1)] {
            let f = wavy(dims);
            let archive = StzCompressor::new(StzConfig::three_level(1e-2)).compress(&f).unwrap();
            let back = archive.decompress().unwrap();
            assert!(max_err(&f, &back) <= 1e-2, "dims {dims}");
        }
    }

    #[test]
    fn roundtrip_f64() {
        let f = Field::from_fn(Dims::d3(16, 16, 16), |z, y, x| {
            ((z * 3 + y * 5 + x * 7) as f64 * 0.01).sin() * 1e4
        });
        let archive = StzCompressor::new(StzConfig::three_level(0.5)).compress(&f).unwrap();
        let back: Field<f64> = archive.decompress().unwrap();
        let err = f
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err <= 0.5);
    }

    #[test]
    fn parallel_compress_is_bit_identical() {
        let f = wavy(Dims::d3(32, 32, 32));
        let c = StzCompressor::new(StzConfig::three_level(1e-3));
        let serial = c.compress(&f).unwrap();
        let par = c.compress_parallel(&f).unwrap();
        assert_eq!(serial.as_bytes(), par.as_bytes());
    }

    #[test]
    fn parallel_decompress_matches_serial() {
        let f = wavy(Dims::d3(32, 32, 32));
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let a = archive.decompress().unwrap();
        let b = archive.decompress_parallel().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn decompress_level_matches_downsample_of_full() {
        // Progressive level-k preview must equal the stride-2^(L-k)
        // downsample of the full reconstruction (paper §3.3).
        let f = wavy(Dims::d3(24, 24, 24));
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let full = archive.decompress().unwrap();
        for k in 1..=3u8 {
            let preview = archive.decompress_level(k).unwrap();
            let stride = 1usize << (3 - k);
            assert_eq!(preview, full.downsample(stride), "level {k}");
        }
    }

    #[test]
    fn level1_preview_is_error_bounded_against_downsample() {
        // The coarse preview approximates the downsampled original within
        // the (tighter) level-1 bound.
        let f = wavy(Dims::d3(24, 24, 24));
        let eb = 1e-2;
        let archive = StzCompressor::new(StzConfig::three_level(eb)).compress(&f).unwrap();
        let preview = archive.decompress_level(1).unwrap();
        let coarse = f.downsample(4);
        let ebs = archive.header().level_ebs();
        assert!(max_err(&coarse, &preview) <= ebs[0] + 1e-12);
    }

    #[test]
    fn adaptive_improves_or_matches_quality_at_fixed_size() {
        // Sanity: with adaptive bounds, level-1 error is tighter.
        let f = wavy(Dims::d3(24, 24, 24));
        let adaptive = StzCompressor::new(StzConfig::three_level(1e-2)).compress(&f).unwrap();
        let flat = StzCompressor::new(StzConfig::three_level(1e-2).with_adaptive(false))
            .compress(&f)
            .unwrap();
        let pa = adaptive.decompress_level(1).unwrap();
        let pf = flat.decompress_level(1).unwrap();
        let coarse = f.downsample(4);
        assert!(max_err(&coarse, &pa) <= max_err(&coarse, &pf) + 1e-12);
    }

    #[test]
    fn extreme_values_escape_and_roundtrip() {
        let mut f = wavy(Dims::d3(12, 12, 12));
        f.set(5, 5, 5, 3e30);
        f.set(0, 0, 0, -2e30);
        f.set(11, 11, 11, f32::NAN);
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let back = archive.decompress().unwrap();
        assert_eq!(back.get(5, 5, 5), 3e30);
        assert_eq!(back.get(0, 0, 0), -2e30);
        assert!(back.get(11, 11, 11).is_nan());
    }

    #[test]
    fn archive_bytes_roundtrip_through_from_bytes() {
        let f = wavy(Dims::d3(16, 16, 16));
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let bytes = archive.as_bytes().to_vec();
        let reparsed = StzArchive::<f32>::from_bytes(bytes).unwrap();
        assert_eq!(reparsed.decompress().unwrap(), archive.decompress().unwrap());
    }

    #[test]
    fn truncated_archive_errors_cleanly() {
        let f = wavy(Dims::d3(12, 12, 12));
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let bytes = archive.as_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            if let Ok(a) = StzArchive::<f32>::from_bytes(bytes[..cut].to_vec()) {
                let _ = a.decompress();
            }
        }
    }

    #[test]
    fn compression_beats_raw_on_smooth_data() {
        let f = wavy(Dims::d3(32, 32, 32));
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        assert!(archive.compression_ratio() > 4.0, "CR {} too low", archive.compression_ratio());
    }

    #[test]
    fn cubic_beats_linear_rate_distortion() {
        let f = wavy(Dims::d3(32, 32, 32));
        let cubic = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let linear = StzCompressor::new(
            StzConfig::three_level(1e-3).with_interp(stz_sz3::InterpKind::Linear),
        )
        .compress(&f)
        .unwrap();
        assert!(cubic.compressed_len() < linear.compressed_len());
    }
}
