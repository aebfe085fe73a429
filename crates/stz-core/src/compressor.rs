//! STZ compression and full/progressive decompression drivers.
//!
//! Compression proceeds level by level on *working grids* — successively
//! finer coarsenings of the original grid (see [`crate::level`]), held in
//! the field's own element type `T`. Every sub-block's points are predicted
//! with the multi-dimensional kernels one row at a time **from the previous
//! level's grid as it is**: every tap of every prediction is a point of it,
//! and a block row is unit stride in it ([`crate::kernels::RowStencils`]).
//! One fused kernel call takes a row from originals to symbols (or from
//! symbols to reconstructed `T`) with nothing row-sized in `f64` in between.
//! An encoder stores the reconstructed row straight into its stride-2 place
//! in the next grid, beside the previous grid's points scattered into its
//! even positions. A decoder writes every point of the next grid once: it
//! assembles each row in L1 from two sources — the previous grid's row or
//! one block's, and another block's — and stores it at unit stride, each
//! block's stream entropy-decoded a chunk at a time as the walk reaches it
//! (`LevelRows::assemble`); a region's working grids are boxes of the
//! levels', assembled by the same walk. Every value that enters a grid is
//! already `T`-representable — level 1 comes from SZ3 as `T`, every
//! reconstruction is rounded through `T`, every escape is the stored `T` —
//! so widening the taps at load gives the kernels the operands an `f64` grid
//! would. On decode the finest level's grid *is* the decoded field; on
//! encode it does not exist, because nothing predicts from it.
//!
//! Because finer-level points never depend on one another, both the blocks
//! of a level and the points within a block are embarrassingly parallel; the
//! `parallel` entry points run the same row routine over z-slabs on the
//! rayon thread pool — encode into per-slab buffers that are placed
//! afterwards, decode assembling each slab's own planes of the next grid —
//! and produce **bit-identical archives and fields** to the serial path.

use crate::archive::{build_bytes, ArchiveHeader, StzArchive};
use crate::config::StzConfig;
use crate::kernels::{dense_taps, predict_point, RowStencils, StencilOffsets};
use crate::level::{BlockSpec, LevelPlan, LevelSpec};
use crate::random_access::LevelTimes;
use crate::source::SectionSource;
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;
use stz_codec::{
    huffman, ByteReader, ByteWriter, CodecError, LinearQuantizer, Result, ESCAPE_SYMBOL,
};
use stz_field::{Dims, Field, Region, Scalar};
use stz_simd::Lane;
use stz_sz3::quant::{quantize_scalar, reconstruct_scalar, ScalarQuant};
use stz_sz3::{ErrorBound, InterpKind, Sz3Config};

/// The STZ streaming compressor.
#[derive(Debug, Clone)]
pub struct StzCompressor {
    config: StzConfig,
}

/// Quantization output of one sub-block (or of one z-slab of it).
pub(crate) struct BlockPayload<T> {
    pub symbols: Vec<u32>,
    pub outliers: Vec<T>,
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

        // Level 1: SZ3 on sub-block A. Its reconstruction is already rounded
        // through `T`, so narrowing it into the first working grid is exact.
        let a_field: Field<T> = plan.level1().gather(field);
        let sz3_cfg =
            Sz3Config { eb: ErrorBound::Absolute(ebs[0]), radius: cfg.radius, interp: cfg.interp };
        let (l1_bytes, _stats, a_recon) = {
            let _stage = level1_ns.span();
            stz_sz3::compress_full(&a_field, &sz3_cfg)
        };
        let mut grid = Field::from_vec(
            plan.levels[0].grid_dims,
            a_recon.into_iter().map(T::from_f64).collect(),
        );

        // Finer levels.
        let mut level_blocks: Vec<Vec<Vec<u8>>> = Vec::with_capacity(cfg.levels as usize - 1);
        for level in &plan.levels[1..] {
            let quant = LinearQuantizer::encoder(ebs[level.index as usize - 1], cfg.radius);
            // Only a level the next one predicts from assembles its grid: the
            // finest level's reconstruction is nobody's operand.
            let mut next = (level.index < cfg.levels).then(|| {
                let mut next = Field::<T>::zeros(level.grid_dims);
                upscatter(&grid, &mut next);
                next
            });
            let cbox = Region::full(grid.dims());

            let encoded = if parallel {
                let results: Vec<(Vec<u8>, Vec<Vec<T>>)> = level
                    .blocks
                    .par_iter()
                    .map(|block| {
                        let rows =
                            BlockRows::new(level.grid_dims, &cbox, block, &quant, cfg.interp);
                        let (payload, slabs) = {
                            let _stage = quantize_ns.span();
                            quantize_slabs(&rows, field, &grid, next.is_some())
                        };
                        let _stage = encode_ns.span();
                        (encode_block_payload(&payload, true), slabs)
                    })
                    .collect();
                let mut encoded = Vec::with_capacity(results.len());
                for (block, (bytes, slabs)) in level.blocks.iter().zip(results) {
                    if let Some(next) = &mut next {
                        place_slabs(next, block, &slabs);
                    }
                    encoded.push(bytes);
                }
                encoded
            } else {
                let mut payload = BlockPayload { symbols: Vec::new(), outliers: Vec::new() };
                let mut encoded = Vec::with_capacity(level.blocks.len());
                for block in &level.blocks {
                    let rows = BlockRows::new(level.grid_dims, &cbox, block, &quant, cfg.interp);
                    {
                        let _stage = quantize_ns.span();
                        quantize_in_place(&rows, field, &grid, next.as_mut(), &mut payload);
                    }
                    let _stage = encode_ns.span();
                    encoded.push(encode_block_payload(&payload, false));
                }
                encoded
            };
            level_blocks.push(encoded);
            if let Some(next) = next {
                grid = next;
            }
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

/// Scatter the coarse working grid into the even positions of the next (2×
/// finer) working grid, which an encoder then fills in block by block.
fn upscatter<T: Scalar>(coarse: &Field<T>, next: &mut Field<T>) {
    let (cd, nd) = (coarse.dims(), next.dims());
    debug_assert_eq!(nd.coarsened(2).as_array(), cd.as_array());
    let lane = stz_simd::active_lane();
    for (i, row) in coarse.as_slice().chunks_exact(cd.nx()).enumerate() {
        let (z, y) = (i / cd.ny(), i % cd.ny());
        T::simd_scatter2(lane, row, next.as_mut_slice(), nd.index(2 * z, 2 * y, 0));
    }
}

/// Quantize one sub-block against the previous level's grid, storing each
/// reconstructed row into the `next` one — where there is a next one — as it
/// is produced. `payload` is cleared first, so one can serve every block of
/// a level.
fn quantize_in_place<T: Scalar>(
    rows: &BlockRows<'_>,
    field: &Field<T>,
    prev: &Field<T>,
    mut next: Option<&mut Field<T>>,
    payload: &mut BlockPayload<T>,
) {
    payload.symbols.clear();
    payload.outliers.clear();
    payload.symbols.reserve(rows.nz * rows.by * rows.bx);
    let (src, prev) = (field.as_slice(), prev.as_slice());
    let (mut orig, mut row) = (vec![T::default(); rows.bx], vec![T::default(); rows.bx]);
    for z in 0..rows.nz {
        for y in 0..rows.by {
            let recon = next.is_some().then_some(&mut row[..]);
            let at = rows.quantize_row(src, prev, z, y, payload, &mut orig, recon);
            if let Some(next) = &mut next {
                T::simd_scatter2(rows.lane, &row, next.as_mut_slice(), at);
            }
        }
    }
}

/// [`quantize_in_place`] for the pool: z-slabs of the block run in parallel,
/// each into its own payload and — where the level `keeps` its
/// reconstruction — its own buffer of reconstructed rows (in slab order, for
/// [`place_slabs`]). The same rows in the same order, so the merged payload
/// is the serial one.
fn quantize_slabs<T: Scalar>(
    rows: &BlockRows<'_>,
    field: &Field<T>,
    prev: &Field<T>,
    keeps: bool,
) -> (BlockPayload<T>, Vec<Vec<T>>) {
    let parts: Vec<(BlockPayload<T>, Vec<T>)> = slab_ranges(rows.nz)
        .into_par_iter()
        .map(|slab| {
            let n = slab.len() * rows.by * rows.bx;
            let mut payload = BlockPayload { symbols: Vec::with_capacity(n), outliers: Vec::new() };
            let mut recon = vec![T::default(); if keeps { n } else { 0 }];
            let mut rows_out = recon.chunks_exact_mut(rows.bx);
            let mut orig = vec![T::default(); rows.bx];
            let (src, prev) = (field.as_slice(), prev.as_slice());
            for z in slab {
                for y in 0..rows.by {
                    rows.quantize_row(src, prev, z, y, &mut payload, &mut orig, rows_out.next());
                }
            }
            (payload, recon)
        })
        .collect();
    let mut merged = BlockPayload {
        symbols: Vec::with_capacity(parts.iter().map(|(p, _)| p.symbols.len()).sum()),
        outliers: Vec::with_capacity(parts.iter().map(|(p, _)| p.outliers.len()).sum()),
    };
    let mut slabs = Vec::with_capacity(parts.len());
    for (part, recon) in parts {
        merged.symbols.extend(part.symbols);
        merged.outliers.extend(part.outliers);
        slabs.push(recon);
    }
    (merged, slabs)
}

/// The z-slabs a block of `nz` planes is cut into for the pool: a few per
/// thread, whole planes each, so every slab starts on a row boundary.
fn slab_ranges(nz: usize) -> Vec<Range<usize>> {
    let threads = rayon::current_num_threads().max(1);
    let slab = (nz / (threads * 4)).max(1);
    (0..nz).step_by(slab).map(|z0| z0..(z0 + slab).min(nz)).collect()
}

/// Store the rows the pool reconstructed for `block` (slab after slab, row
/// after row) into their stride-2 places in the working grid.
fn place_slabs<T: Scalar>(grid: &mut Field<T>, block: &BlockSpec, slabs: &[Vec<T>]) {
    let (by, bx) = (block.lattice.dims().ny(), block.lattice.dims().nx());
    let (gny, gnx) = (grid.dims().ny(), grid.dims().nx());
    let [oz, oy, ox] = block.grid_lattice.offset();
    let lane = stz_simd::active_lane();
    let dst = grid.as_mut_slice();
    for (i, row) in slabs.iter().flat_map(|slab| slab.chunks_exact(bx)).enumerate() {
        let (z, y) = (i / by, i % by);
        T::simd_scatter2(lane, row, dst, ((oz + 2 * z) * gny + oy + 2 * y) * gnx + ox);
    }
}

/// Everything the rows of one sub-block share: its geometry, its stencils
/// over the previous level's grid, the quantizer and the lane. The two row
/// routines — [`BlockRows::quantize_row`] and [`BlockRows::reconstruct_row`]
/// — read the previous grid and write a row of `T` where the driver says;
/// where that row is stored afterwards is the driver's business, which is
/// what lets an encoder fill the next grid as it goes and a decoder assemble
/// it from the rows of two blocks at a time ([`LevelRows::assemble`]).
struct BlockRows<'a> {
    stencils: RowStencils,
    block: &'a BlockSpec,
    quant: &'a LinearQuantizer,
    interp: InterpKind,
    /// `Lane::Scalar` keeps the per-point walk as the byte-identity anchor;
    /// every other lane batches the span of each row its stencil is
    /// interior at.
    lane: Lane,
    /// Dims of the grid being refined.
    gdims: Dims,
    /// The box of the previous level's grid the rows read — all of it, or
    /// the share a region needs — and its extents.
    cbox: Region,
    cdims: Dims,
    /// Block extents.
    nz: usize,
    by: usize,
    bx: usize,
}

/// One row's resolved walk state.
struct RowWalk<'a> {
    rows: &'a BlockRows<'a>,
    /// Grid coordinates of the row's first point.
    gz: usize,
    gy: usize,
    gx0: usize,
    /// Flattened index of the row's first point in the grid being refined,
    /// and of the first point of its coarse row in the previous grid's box.
    at: usize,
    cbase: usize,
    /// The row's stencil and the block-local x span `[xa, xb)` it is
    /// interior at.
    stencil: &'a StencilOffsets,
    xa: usize,
    xb: usize,
}

impl<'a> BlockRows<'a> {
    fn new(
        gdims: Dims,
        cbox: &Region,
        block: &'a BlockSpec,
        quant: &'a LinearQuantizer,
        interp: InterpKind,
    ) -> BlockRows<'a> {
        let bdims = block.lattice.dims();
        let cdims = extents(cbox);
        BlockRows {
            stencils: RowStencils::new(gdims, cdims, &block.active_axes, interp),
            block,
            quant,
            interp,
            lane: stz_simd::active_lane(),
            gdims,
            cbox: cbox.clone(),
            cdims,
            nz: bdims.nz(),
            by: bdims.ny(),
            bx: bdims.nx(),
        }
    }

    fn row(&self, z: usize, y: usize) -> RowWalk<'_> {
        let (gz, gy, gx0) = self.block.grid_lattice.to_parent(z, y, 0);
        let (stencil, xa, xb) = self.stencils.of_row(gz, gy, gx0, self.bx);
        let (cz, cy) = ((gz >> 1) - self.cbox.z0, (gy >> 1) - self.cbox.y0);
        RowWalk {
            rows: self,
            gz,
            gy,
            gx0,
            at: (gz * self.gdims.ny() + gy) * self.gdims.nx() + gx0,
            cbase: (cz * self.cdims.ny() + cy) * self.cdims.nx(),
            stencil,
            xa,
            xb,
        }
    }

    /// Quantize row `(z, y)` of the block: gather its originals from `src`
    /// (the field being compressed) at the block's stride into `orig`,
    /// predict from the previous level's grid `prev`, append the row's
    /// symbols and outliers to `payload` and — where the caller keeps it —
    /// leave the reconstructed row in `recon`. Returns the flattened index of
    /// the row's first point in the grid being refined.
    #[allow(clippy::too_many_arguments)]
    fn quantize_row<T: Scalar>(
        &self,
        src: &[T],
        prev: &[T],
        z: usize,
        y: usize,
        payload: &mut BlockPayload<T>,
        orig: &mut [T],
        mut recon: Option<&mut [T]>,
    ) -> usize {
        let lattice = &self.block.lattice;
        let (pz, py, px) = lattice.to_parent(z, y, 0);
        let parent = lattice.parent_dims();
        let start = (pz * parent.ny() + py) * parent.nx() + px;
        match lattice.stride() {
            2 => T::simd_gather2(self.lane, src, start, orig),
            stride => {
                for (o, &v) in orig.iter_mut().zip(src[start..].iter().step_by(stride)) {
                    *o = v;
                }
            }
        }
        let walk = self.row(z, y);
        let (xa, xb) = walk.batch_range();
        let first = payload.symbols.len();
        payload.symbols.resize(first + self.bx, ESCAPE_SYMBOL);
        let symbols = &mut payload.symbols[first..];
        // The kernel span: originals to symbols in one fused pass.
        let mut escaped = self.quant.quantize_dense(
            self.lane,
            prev,
            walk.coarse(xa),
            &walk.stencil.as_simd(),
            &orig[xa..xb],
            &mut symbols[xa..xb],
            recon.as_deref_mut().map(|row| &mut row[xa..xb]),
        );
        for x in (0..xa).chain(xb..self.bx) {
            match quantize_scalar::<T>(self.quant, orig[x].to_f64(), walk.predict(prev, x)) {
                ScalarQuant::Code { symbol, recon: value } => {
                    symbols[x] = symbol;
                    if let Some(row) = &mut recon {
                        row[x] = T::from_f64(value);
                    }
                }
                ScalarQuant::Escape => {
                    symbols[x] = ESCAPE_SYMBOL;
                    escaped = true;
                }
            }
        }
        // Outliers in ascending x, as the stream orders them: a walk only
        // rows with an escape pay for.
        if escaped {
            for x in (0..self.bx).filter(|&x| symbols[x] == ESCAPE_SYMBOL) {
                payload.outliers.push(orig[x]);
                if let Some(row) = &mut recon {
                    row[x] = orig[x];
                }
            }
        }
        walk.at
    }

    /// Reconstruct the span `xs` of row `(z, y)` of the block from its
    /// `symbols` — one per point of the span — predicting from the previous
    /// level's grid `prev`, into `out`, one slot per point of the span: the
    /// whole row for a full decode, the target's share of it for a region.
    /// `cursor` is the rank of the span's first escape among the block's
    /// `outliers` and is advanced past the span's escapes.
    #[allow(clippy::too_many_arguments)]
    fn reconstruct_row<T: Scalar>(
        &self,
        prev: &[T],
        z: usize,
        y: usize,
        xs: Range<usize>,
        symbols: &[u32],
        outliers: &[T],
        cursor: &mut usize,
        out: &mut [T],
    ) {
        let walk = self.row(z, y);
        let (xa, xb) = walk.batch_range();
        let xa = xa.clamp(xs.start, xs.end);
        let xb = xb.clamp(xa, xs.end);
        let (symbols, out) = (&symbols[..xs.len()], &mut out[..xs.len()]);
        // The kernel span: symbols to `T` in one fused pass. An escape slot
        // gets a placeholder there — and nothing at all in the per-point
        // loop — that the stored outlier overwrites below, so it cannot
        // influence any output byte.
        let span = xa - xs.start..xb - xs.start;
        self.quant.reconstruct_dense(
            self.lane,
            prev,
            walk.coarse(xa),
            &walk.stencil.as_simd(),
            &symbols[span.clone()],
            &mut out[span],
        );
        for x in (xs.start..xa).chain(xb..xs.end) {
            let symbol = symbols[x - xs.start];
            if symbol != ESCAPE_SYMBOL {
                let value = reconstruct_scalar::<T>(self.quant, symbol, walk.predict(prev, x));
                out[x - xs.start] = T::from_f64(value);
            }
        }
        if !outliers.is_empty() {
            for (o, _) in out.iter_mut().zip(symbols).filter(|(_, &s)| s == ESCAPE_SYMBOL) {
                *o = outliers[*cursor];
                *cursor += 1;
            }
        }
    }
}

impl RowWalk<'_> {
    /// Index in the previous grid's box of the row's coarse point under
    /// block-local `x` (the tap at offset 0): every point a walk predicts
    /// lies inside the box, whose stencils reach it.
    #[inline(always)]
    fn coarse(&self, x: usize) -> usize {
        self.cbase + x - self.rows.cbox.x0
    }

    /// The block-local x span `[xa, xb)` the batch kernels take: the span
    /// the row's stencil is interior at, or nothing on the scalar lane.
    #[inline]
    fn batch_range(&self) -> (usize, usize) {
        if self.rows.lane == Lane::Scalar {
            (0, 0)
        } else {
            (self.xa, self.xb)
        }
    }

    /// The prediction of the row's point `x`, one point at a time: what the
    /// batch kernels must reproduce, and what takes the points they leave —
    /// through the row's stencil where it is interior, through the one
    /// per-point body everywhere else.
    #[inline(always)]
    fn predict<T: Scalar>(&self, prev: &[T], x: usize) -> f64 {
        let rows = self.rows;
        if (self.xa..self.xb).contains(&x) {
            return self.stencil.predict_interior(prev, self.coarse(x));
        }
        let p = [self.gz, self.gy, self.gx0 + 2 * x];
        let taps = dense_taps(prev, rows.cdims, [rows.cbox.z0, rows.cbox.y0, rows.cbox.x0]);
        predict_point(taps, rows.gdims, p, &rows.block.active_axes, 1, rows.interp)
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
    // Each chunk with its escape count: the coder's histogram has it.
    let encoded: Vec<(Vec<u8>, usize)> = if parallel && chunks.len() > 1 {
        chunks.par_iter().map(|c| huffman::encode_block_counting(c)).collect()
    } else {
        chunks.iter().map(|c| huffman::encode_block_counting(c)).collect()
    };
    let mut w = ByteWriter::with_capacity(n / 2 + 32);
    w.put_uvarint(encoded.len() as u64);
    w.put_uvarint(size as u64);
    // Per-chunk escape counts: a random-access reader can align its outlier
    // cursor without entropy-decoding skipped chunks (the paper's
    // "random-access Huffman decoding" future-work item).
    for (_, escapes) in &encoded {
        w.put_uvarint(*escapes as u64);
    }
    for (bytes, _) in &encoded {
        w.put_block(bytes);
    }
    stz_sz3::stream::write_outliers(&mut w, &payload.outliers);
    w.finish()
}

/// A sub-block stream, parsed: its Huffman chunks, what the stream declares
/// for each, and its outliers — nothing entropy-decoded yet.
struct BlockStream<'a, T> {
    chunks: Vec<&'a [u8]>,
    /// Escapes before each chunk, and in all of them.
    escapes_before: Vec<usize>,
    /// Symbols per chunk (the final chunk may hold fewer), and in the block.
    chunk_size: usize,
    total: usize,
    outliers: Vec<T>,
    /// The block's index in its level, for the trace.
    index: usize,
}

impl<'a, T: Scalar> BlockStream<'a, T> {
    /// Parse the stream of `block`, the `index`-th of its level, without
    /// decoding any symbols.
    fn parse(bytes: &'a [u8], block: &BlockSpec, index: usize) -> Result<Self> {
        let total = block.lattice.len();
        let mut r = ByteReader::new(bytes);
        let nchunks = r.get_uvarint()? as usize;
        if nchunks == 0 || nchunks > 64 {
            return Err(CodecError::corrupt(format!("invalid chunk count {nchunks}")));
        }
        let chunk_size = r.get_uvarint()? as usize;
        if chunk_size == 0
            || chunk_size.saturating_mul(nchunks) < total
            || (nchunks - 1).saturating_mul(chunk_size) >= total.max(1)
        {
            return Err(CodecError::corrupt("chunk size inconsistent with point count"));
        }
        let mut escapes_before = vec![0];
        for c in 0..nchunks {
            let e = r.get_uvarint()? as usize;
            if e > chunk_size {
                return Err(CodecError::corrupt("chunk escape count exceeds chunk size"));
            }
            escapes_before.push(escapes_before[c] + e);
        }
        let mut chunks = Vec::with_capacity(nchunks);
        for _ in 0..nchunks {
            chunks.push(r.get_block()?);
        }
        let outliers: Vec<T> = stz_sz3::stream::read_outliers(&mut r)?;
        if outliers.len() != escapes_before[nchunks] {
            return Err(CodecError::corrupt("outlier count does not match chunk escape counts"));
        }
        Ok(BlockStream { chunks, escapes_before, chunk_size, total, outliers, index })
    }

    /// Symbol count of chunk `c`.
    fn len_of(&self, c: usize) -> usize {
        self.chunk_size.min(self.total - c * self.chunk_size)
    }

    /// Escape count of chunk `c`.
    fn escapes_in(&self, c: usize) -> usize {
        self.escapes_before[c + 1] - self.escapes_before[c]
    }

    /// Entropy-decode chunk `c` into `out`, its `len_of(c)` slots of the
    /// block's stream, and hold it to what the stream declared for it: the
    /// number of symbols it coded and how many of them are escapes.
    fn decode_chunk(&self, c: usize, out: &mut [u32]) -> Result<()> {
        if huffman::decode_block_into_slice(self.chunks[c], out)? != self.len_of(c) {
            return Err(CodecError::corrupt("chunk symbol count mismatch"));
        }
        if out.iter().filter(|&&s| s == ESCAPE_SYMBOL).count() != self.escapes_in(c) {
            return Err(CodecError::corrupt("chunk escape count mismatch"));
        }
        Ok(())
    }
}

/// One value per block of a level, at the block's offset `oz·4 + oy·2 + ox`
/// in the level's grid: the row parity whose points the block holds.
type Slots<T> = [Option<T>; 8];

fn slot(block: &BlockSpec) -> usize {
    let [z, y, x] = block.grid_lattice.offset();
    (z << 2) | (y << 1) | x
}

/// Extents of a box, as the dims of a grid that holds just the box.
fn extents(b: &Region) -> Dims {
    Dims::d3(b.z1 - b.z0, b.y1 - b.y0, b.x1 - b.x0)
}

/// The rows of one level's blocks, and the walk that assembles the level's
/// grid from them — all of it or a box of it — writing every point once.
struct LevelRows<'a> {
    blocks: Slots<BlockRows<'a>>,
    /// The box of the previous level's grid the rows read.
    cbox: Region,
}

impl<'a> LevelRows<'a> {
    fn new(
        level: &'a LevelSpec,
        cbox: &Region,
        quant: &'a LinearQuantizer,
        interp: InterpKind,
    ) -> Self {
        let mut blocks = Slots::default();
        for block in &level.blocks {
            blocks[slot(block)] = Some(BlockRows::new(level.grid_dims, cbox, block, quant, interp));
        }
        LevelRows { blocks, cbox: cbox.clone() }
    }

    /// Assemble `obox`, a box of the level's grid, into `out` from `prev` —
    /// the previous grid's box — and the blocks' streams, plane by plane.
    /// Each row is built in L1 from two sources and stored once, at unit
    /// stride: its even-x points are the previous grid's row where z and y
    /// are even and block `(z&1, y&1, 0)`'s row elsewhere, its odd-x points
    /// block `(z&1, y&1, 1)`'s. Which blocks exist is the plan's business, so
    /// axes of extent 1 or 2 and odd x-extents take no case of their own.
    fn assemble<T: Scalar>(
        &self,
        prev: &[T],
        obox: &Region,
        out: &mut [T],
        windows: &mut Slots<ChunkWindow<'_, T>>,
    ) -> Result<()> {
        let (ny, nx) = (obox.y1 - obox.y0, obox.x1 - obox.x0);
        let (evens, odds) = (obox.x0.div_ceil(2)..obox.x1.div_ceil(2), obox.x0 / 2..obox.x1 / 2);
        let (mut even, mut odd) = (vec![T::default(); evens.len()], vec![T::default(); odds.len()]);
        let (c, cdims) = (&self.cbox, extents(&self.cbox));
        for (gz, plane) in (obox.z0..obox.z1).zip(out.chunks_exact_mut(ny * nx)) {
            for (gy, row) in (obox.y0..obox.y1).zip(plane.chunks_exact_mut(nx)) {
                let (s, z, y) = (((gz & 1) << 2) | ((gy & 1) << 1), gz >> 1, gy >> 1);
                let even = if s == 0 {
                    let at = cdims.index(z - c.z0, y - c.y0, evens.start - c.x0);
                    &prev[at..at + evens.len()]
                } else {
                    self.row(s, prev, (z, y), evens.clone(), windows, &mut even)?;
                    &even[..]
                };
                self.row(s | 1, prev, (z, y), odds.clone(), windows, &mut odd)?;
                interleave(even, &odd, obox.x0 % 2 == 1, row);
            }
        }
        Ok(())
    }

    /// Reconstruct the span `xs` of row `(z, y)` of the block in slot `s`
    /// into `out`.
    fn row<T: Scalar>(
        &self,
        s: usize,
        prev: &[T],
        (z, y): (usize, usize),
        xs: Range<usize>,
        windows: &mut Slots<ChunkWindow<'_, T>>,
        out: &mut [T],
    ) -> Result<()> {
        if xs.is_empty() {
            return Ok(());
        }
        let rows = self.blocks[s].as_ref().expect("the plan has a block for every row parity");
        let window = windows[s].as_mut().expect("a window is open on every block a box reads");
        let first = (z * rows.by + y) * rows.bx + xs.start;
        let (symbols, outliers, cursor) = window.row(first, xs.len())?;
        rows.reconstruct_row(prev, z, y, xs, symbols, outliers, cursor, out);
        Ok(())
    }
}

/// Store a row's points from its even-x and odd-x sources in turn; the row
/// starts at an odd x where `odd_first`.
fn interleave<T: Copy>(even: &[T], odd: &[T], odd_first: bool, out: &mut [T]) {
    let (odd, out) = if odd_first {
        out[0] = odd[0];
        (&odd[1..], &mut out[1..])
    } else {
        (odd, out)
    };
    let mut pairs = out.chunks_exact_mut(2);
    for ((pair, &e), &o) in (&mut pairs).zip(even).zip(odd) {
        pair[0] = e;
        pair[1] = o;
    }
    if let [last] = pairs.into_remainder() {
        *last = even[even.len() - 1];
    }
}

/// A walk's view of one block's stream: entropy-decoded a chunk at a time
/// when the walk reaches the chunk, into a window the chunk's size; a row
/// astride two chunks is copied out whole. A chunk no row touches is never
/// decoded. The escapes in what the walk passes over are counted from the
/// declared counts where it passes a whole chunk and from the symbols where
/// it passes part of one, so a box's rows — a region's, a z-slab's — find
/// their outliers as a whole-grid walk's do.
struct ChunkWindow<'a, T> {
    stream: &'a BlockStream<'a, T>,
    /// The decoded chunk, and which one it is.
    chunk: Vec<u32>,
    current: Option<usize>,
    /// A row astride chunks.
    row: Vec<u32>,
    /// How far into the stream the walk has read, and the escapes before.
    at: usize,
    rank: usize,
    /// Chunks decoded, and the seconds they took.
    tally: (usize, f64),
}

impl<'a, T: Scalar> ChunkWindow<'a, T> {
    fn new(stream: &'a BlockStream<'a, T>) -> Self {
        ChunkWindow {
            stream,
            chunk: Vec::new(),
            current: None,
            row: Vec::new(),
            at: 0,
            rank: 0,
            tally: (0, 0.0),
        }
    }

    /// Make chunk `c` the window.
    fn load(&mut self, c: usize) -> Result<()> {
        if self.current != Some(c) {
            let t = Instant::now();
            let mut span = stz_telemetry::trace::span("entropy");
            span.attr("block", self.stream.index);
            span.attr("chunk", c);
            self.chunk.resize(self.stream.len_of(c), 0);
            self.stream.decode_chunk(c, &mut self.chunk)?;
            self.current = Some(c);
            self.tally = (self.tally.0 + 1, self.tally.1 + t.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// The `len` symbols from stream index `first` on — past every row asked
    /// before — the block's outliers (none if no escape is left in the row's
    /// chunks) and the rank of the row's first escape, for the row to advance.
    fn row(&mut self, first: usize, len: usize) -> Result<(&[u32], &[T], &mut usize)> {
        let stream = self.stream;
        let size = stream.chunk_size;
        while self.at < first {
            let (c, start) = (self.at / size, self.at / size * size);
            let (end, to) = (start + stream.len_of(c), first.min(start + stream.len_of(c)));
            let escapes = match stream.escapes_in(c) {
                0 => 0,
                all if self.at == start && to == end => all,
                _ => {
                    self.load(c)?;
                    let passed = &self.chunk[self.at - start..to - start];
                    passed.iter().filter(|&&s| s == ESCAPE_SYMBOL).count()
                }
            };
            (self.rank, self.at) = (self.rank + escapes, to);
        }
        self.at = first + len;
        let (mut c, start) = (first / size, first / size * size);
        self.load(c)?;
        let within = first + len <= start + self.chunk.len();
        if !within {
            self.row.clear();
            self.row.extend_from_slice(&self.chunk[first - start..]);
            while self.row.len() < len {
                c += 1;
                self.load(c)?;
                let take = (len - self.row.len()).min(self.chunk.len());
                self.row.extend_from_slice(&self.chunk[..take]);
            }
        }
        let symbols = if within { &self.chunk[first - start..][..len] } else { &self.row[..] };
        let left = self.rank < stream.escapes_before[c + 1];
        Ok((symbols, if left { &stream.outliers } else { &[] }, &mut self.rank))
    }
}

/// Decompress levels `1..=upto` of an archive, returning the corresponding
/// preview field (`upto == levels` gives the full-resolution field): the
/// working grid of level `upto`, as it is.
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
    Ok(grid)
}

/// Decode level 1 (the SZ3 stream): it is its own working grid.
///
/// Also the element-type gate for every decode path: a source whose header
/// advertises a different scalar type than `T` is rejected here, before any
/// payload is interpreted.
pub(crate) fn decode_level1<T: Scalar, S: SectionSource + ?Sized>(
    source: &S,
    plan: &LevelPlan,
) -> Result<Field<T>> {
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
    Ok(Field::from_vec(expect, a.into_vec()))
}

/// Decode one finer level whole, given the previous level's working grid.
pub(crate) fn decode_level_grid<T: Scalar, S: SectionSource + ?Sized>(
    source: &S,
    plan: &LevelPlan,
    level_index: u8,
    prev: &Field<T>,
    parallel: bool,
) -> Result<Field<T>> {
    let level = &plan.levels[level_index as usize - 1];
    let (cbox, obox) = (Region::full(prev.dims()), Region::full(level.grid_dims));
    let (grid, _) = decode_box(source, level, prev.as_slice(), &cbox, &obox, parallel)?;
    Ok(Field::from_vec(level.grid_dims, grid))
}

/// Decode `obox`, a box of `level`'s grid — all of it, or a region's share
/// — from `prev`, the box `cbox` of the previous level's grid. The blocks a
/// row of the box falls in are fetched and parsed, then the box is assembled
/// with a [`ChunkWindow`] on each: one walk over the whole box on the calling
/// thread, or on the pool one walk per z-slab, side by side, straight into
/// place. Returns the box and the level's stage timings.
///
/// A walk meets the blocks' errors plane by plane. On any failure the level
/// is read again block by block ([`first_error`]), and the error returned is
/// the first one that order meets.
pub(crate) fn decode_box<T: Scalar, S: SectionSource + ?Sized>(
    source: &S,
    level: &LevelSpec,
    prev: &[T],
    cbox: &Region,
    obox: &Region,
    parallel: bool,
) -> Result<(Vec<T>, LevelTimes)> {
    let quant = LinearQuantizer::new(
        source.header().level_ebs()[level.index as usize - 1],
        source.header().radius,
    );
    let rows = LevelRows::new(level, cbox, &quant, source.header().interp);
    let targets: Vec<Option<Region>> = level
        .blocks
        .iter()
        .map(|b| obox.project_to_sublattice(b.grid_lattice.offset(), 2))
        .collect();
    let mut times = LevelTimes { level: level.index, ..LevelTimes::default() };
    let t = Instant::now();
    let mut out = vec![T::default(); obox.len()];
    times.reconstruct = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let fill = |streams: &Slots<BlockStream<'_, T>>| {
        let plane = (obox.y1 - obox.y0) * (obox.x1 - obox.x0);
        let planes = if parallel {
            2 * slab_planes(&rows, streams, cbox.z1 - cbox.z0)
        } else {
            obox.z1 - obox.z0
        };
        let slab = |(s, out): (usize, &mut [T])| -> Result<(usize, f64)> {
            let mut span = stz_telemetry::trace::span("reconstruct");
            span.attr("slab", s);
            let z0 = obox.z0 + s * planes;
            let slab = Region { z0, z1: z0 + out.len() / plane, ..obox.clone() };
            let mut windows = std::array::from_fn(|k| streams[k].as_ref().map(ChunkWindow::new));
            rows.assemble(prev, &slab, out, &mut windows)?;
            Ok(windows.iter().flatten().fold((0, 0.0), |(n, s), w| (n + w.tally.0, s + w.tally.1)))
        };
        let slabs = out.chunks_mut(planes * plane);
        let done: Vec<Result<_>> = if parallel {
            slabs.into_par_iter().enumerate().map(slab).collect()
        } else {
            slabs.enumerate().map(slab).collect()
        };
        done.into_iter().try_fold((0, 0.0), |(n, s), d| d.map(|(dn, ds)| (n + dn, s + ds)))
    };
    let ((decoded, entropy), chunks, opened) = match walk(source, level, &targets, fill) {
        Ok(walked) => walked,
        Err(e) => return Err(first_error::<T, S>(source, level, &targets).err().unwrap_or(e)),
    };
    times.decode = opened + entropy;
    times.predict = t.elapsed().as_secs_f64() - times.decode;
    times.decoded_blocks = targets.iter().flatten().count();
    times.skipped_blocks = targets.len() - times.decoded_blocks;
    times.decoded_chunks = decoded;
    times.skipped_chunks = chunks.saturating_sub(decoded);
    Ok((out, times))
}

/// Fetch and parse the stream of every block with a target, in block order,
/// and hand them to `fill`. Returns what `fill` returns, the chunks the
/// streams hold, and the seconds fetching and parsing took.
fn walk<T: Scalar, S: SectionSource + ?Sized, R>(
    source: &S,
    level: &LevelSpec,
    targets: &[Option<Region>],
    fill: impl FnOnce(&Slots<BlockStream<'_, T>>) -> Result<R>,
) -> Result<(R, usize, f64)> {
    let t = Instant::now();
    let mut bytes = Vec::with_capacity(targets.len());
    for (i, target) in targets.iter().enumerate() {
        bytes.push(target.as_ref().map(|_| source.block_bytes(level.index, i)).transpose()?);
    }
    let mut streams = Slots::default();
    for ((index, block), bytes) in level.blocks.iter().enumerate().zip(&bytes) {
        if let Some(bytes) = bytes {
            streams[slot(block)] = Some(BlockStream::parse(bytes, block, index)?);
        }
    }
    let opened = t.elapsed().as_secs_f64();
    let chunks = streams.iter().flatten().map(|s| s.chunks.len()).sum();
    Ok((fill(&streams)?, chunks, opened))
}

/// Previous-grid planes per z-slab of the pool: a few slabs per thread, and
/// no fewer planes than a Huffman chunk of any block spans, so that where
/// chunks are whole planes each is decoded by one slab.
fn slab_planes<T>(rows: &LevelRows<'_>, streams: &Slots<BlockStream<'_, T>>, cnz: usize) -> usize {
    let chunk_planes = rows.blocks.iter().zip(streams).filter_map(|(rows, stream)| {
        let (rows, stream) = (rows.as_ref()?, stream.as_ref()?);
        Some(stream.chunk_size.div_ceil(rows.by * rows.bx))
    });
    let threads = rayon::current_num_threads().max(1);
    chunk_planes.fold(cnz / (threads * 4), usize::max).max(1)
}

/// The first error a block-by-block decode of `level` meets — each block
/// with a target fetched, parsed and entropy-decoded over the target's rows,
/// one block after the other — or `Ok` if it meets none.
fn first_error<T: Scalar, S: SectionSource + ?Sized>(
    source: &S,
    level: &LevelSpec,
    targets: &[Option<Region>],
) -> Result<()> {
    for ((index, block), target) in level.blocks.iter().enumerate().zip(targets) {
        let Some(t) = target else { continue };
        let bytes = source.block_bytes(level.index, index)?;
        let stream = BlockStream::<T>::parse(&bytes, block, index)?;
        let mut window = ChunkWindow::new(&stream);
        let [_, by, bx] = block.lattice.dims().as_array();
        for (z, y) in (t.z0..t.z1).flat_map(|z| (t.y0..t.y1).map(move |y| (z, y))) {
            window.row((z * by + y) * bx + t.x0, t.x1 - t.x0)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stz_field::Dims;

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
    fn interleave_starts_at_either_parity() {
        let (even, odd) = ([0, 2, 4, 6], [1, 3, 5]);
        for (x0, x1) in [(0, 7), (0, 6), (1, 7), (1, 6), (1, 2), (2, 3), (5, 6)] {
            let mut out = vec![9; x1 - x0];
            let (evens, odds) = (x0.div_ceil(2)..x1.div_ceil(2), x0 / 2..x1 / 2);
            interleave(&even[evens], &odd[odds], x0 % 2 == 1, &mut out);
            assert_eq!(out, (x0..x1).collect::<Vec<_>>(), "x in {x0}..{x1}");
        }
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
