//! STZ compression and full/progressive decompression drivers.
//!
//! Compression proceeds level by level on *working grids* — successively
//! finer coarsenings of the original grid (see [`crate::level`]), held in
//! the field's own element type `T`. Every sub-block's points are predicted
//! with the multi-dimensional kernels one row at a time **from the previous
//! level's grid as it is**: every tap of every prediction is a point of it,
//! and a block row is unit stride in it ([`crate::kernels::RowStencils`]).
//! One fused kernel call takes a row from originals to symbols (or from
//! symbols to reconstructed `T`) with nothing row-sized in `f64` in between,
//! and the reconstructed row is stored once, straight into its stride-2
//! place in the next grid — beside the previous grid's points, scattered
//! into its even positions. Every value that enters a grid is already
//! `T`-representable — level 1 comes from SZ3 as `T`, every reconstruction
//! is rounded through `T`, every escape is the stored `T` — so widening the
//! taps at load gives the kernels the operands an `f64` grid would. On
//! decode the finest level's grid *is* the decoded field; on encode it does
//! not exist, because nothing predicts from it.
//!
//! Because finer-level points never depend on one another, both the blocks
//! of a level and the points within a block are embarrassingly parallel; the
//! `parallel` entry points run the same row routine over z-slabs on the
//! rayon thread pool — encode into per-slab buffers that are placed
//! afterwards, decode straight into each slab's own planes of the next grid —
//! and produce **bit-identical archives and fields** to the serial path.

use crate::archive::{build_bytes, ArchiveHeader, StzArchive};
use crate::config::StzConfig;
use crate::kernels::{dense_taps, predict_point, RowStencils, StencilOffsets};
use crate::level::{BlockSpec, LevelPlan};
use crate::source::SectionSource;
use rayon::prelude::*;
use std::ops::Range;
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
                upscatter(&grid, &mut next, &Region::full(grid.dims()));
                next
            });

            let encoded = if parallel {
                let results: Vec<(Vec<u8>, Vec<Vec<T>>)> = level
                    .blocks
                    .par_iter()
                    .map(|block| {
                        let rows =
                            BlockRows::new(level.grid_dims, grid.dims(), block, &quant, cfg.interp);
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
                    let rows =
                        BlockRows::new(level.grid_dims, grid.dims(), block, &quant, cfg.interp);
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

/// Scatter the `window` box of the coarse working grid into the even
/// positions of the next (2× finer) working grid. A full decode or encode
/// moves the whole grid up; a region decode only the box its stencils reach.
pub(crate) fn upscatter<T: Scalar>(coarse: &Field<T>, next: &mut Field<T>, window: &Region) {
    debug_assert_eq!(next.dims().coarsened(2).as_array(), coarse.dims().as_array());
    let ndims = next.dims();
    upscatter_into(coarse, window, ndims, next.as_mut_slice(), 0);
}

/// [`upscatter`] into `planes`, the stretch of a next grid of `ndims` that
/// starts at its flattened index `base` and holds every plane of the window.
fn upscatter_into<T: Scalar>(
    coarse: &Field<T>,
    window: &Region,
    ndims: Dims,
    planes: &mut [T],
    base: usize,
) {
    let cd = coarse.dims();
    let lane = stz_simd::active_lane();
    let width = window.x1 - window.x0;
    for z in window.z0..window.z1 {
        for y in window.y0..window.y1 {
            let start = cd.index(z, y, window.x0);
            let row = &coarse.as_slice()[start..start + width];
            T::simd_scatter2(lane, row, planes, ndims.index(2 * z, 2 * y, 2 * window.x0) - base);
        }
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
/// what lets a serial driver fill the next grid as it goes and a pool driver
/// work from shared borrows alone.
struct BlockRows<'a> {
    stencils: RowStencils,
    block: &'a BlockSpec,
    quant: &'a LinearQuantizer,
    interp: InterpKind,
    /// `Lane::Scalar` keeps the per-point walk as the byte-identity anchor;
    /// every other lane batches the span of each row its stencil is
    /// interior at.
    lane: Lane,
    /// Dims of the grid being refined and of the previous level's.
    gdims: Dims,
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
    /// and of its coarse index — block-local `x = 0` — in the previous one.
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
        cdims: Dims,
        block: &'a BlockSpec,
        quant: &'a LinearQuantizer,
        interp: InterpKind,
    ) -> BlockRows<'a> {
        let bdims = block.lattice.dims();
        BlockRows {
            stencils: RowStencils::new(gdims, cdims, &block.active_axes, interp),
            block,
            quant,
            interp,
            lane: stz_simd::active_lane(),
            gdims,
            cdims,
            nz: bdims.nz(),
            by: bdims.ny(),
            bx: bdims.nx(),
        }
    }

    fn row(&self, z: usize, y: usize) -> RowWalk<'_> {
        let (gz, gy, gx0) = self.block.grid_lattice.to_parent(z, y, 0);
        let (stencil, xa, xb) = self.stencils.of_row(gz, gy, gx0, self.bx);
        RowWalk {
            rows: self,
            gz,
            gy,
            gx0,
            at: (gz * self.gdims.ny() + gy) * self.gdims.nx() + gx0,
            cbase: ((gz >> 1) * self.cdims.ny() + (gy >> 1)) * self.cdims.nx(),
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
            walk.cbase + xa,
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
    /// `outliers` and is advanced past the span's escapes. Returns the
    /// flattened index the span starts at in the grid being refined.
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
    ) -> usize {
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
            walk.cbase + xa,
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
        walk.at + 2 * xs.start
    }
}

impl RowWalk<'_> {
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
            return self.stencil.predict_interior(prev, self.cbase + x);
        }
        let p = [self.gz, self.gy, self.gx0 + 2 * x];
        let taps = dense_taps(prev, rows.cdims);
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

    /// One slice of `symbols` — the block's stream — per chunk, in order.
    pub fn split<'s>(&self, mut symbols: &'s mut [u32]) -> Vec<&'s mut [u32]> {
        (0..self.chunks.len())
            .map(|c| {
                let (chunk, rest) = std::mem::take(&mut symbols).split_at_mut(self.len_of(c));
                symbols = rest;
                chunk
            })
            .collect()
    }

    /// Entropy-decode chunk `c` into `out`, its `len_of(c)` slots of the
    /// block's stream, and hold it to what the stream declared for it.
    pub fn decode_chunk(&self, c: usize, out: &mut [u32]) -> Result<()> {
        let count = huffman::decode_block_into_slice(self.chunks[c], out)?;
        self.check_chunk(c, count, out)
    }

    /// Hold chunk `c` as decoded to what the stream declared for it: the
    /// number of symbols it coded and how many of them are escapes.
    fn check_chunk(&self, c: usize, count: usize, decoded: &[u32]) -> Result<()> {
        if count != self.len_of(c) {
            return Err(CodecError::corrupt("chunk symbol count mismatch"));
        }
        let escapes = decoded.iter().filter(|&&s| s == ESCAPE_SYMBOL).count();
        if escapes != self.chunk_escapes[c] {
            return Err(CodecError::corrupt("chunk escape count mismatch"));
        }
        Ok(())
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

/// Entropy-decode a whole sub-block stream into `symbols` — one slot per
/// point of the block — validating symbol and outlier counts; returns the
/// outliers. Every chunk decodes straight into its own share of `symbols`,
/// one after the other or side by side on the pool.
pub(crate) fn decode_block_payload<T: Scalar>(
    bytes: &[u8],
    parallel: bool,
    symbols: &mut [u32],
) -> Result<Vec<T>> {
    let (meta, outliers) = parse_block_payload::<T>(bytes, symbols.len())?;
    let chunks = meta.split(symbols);
    if parallel && chunks.len() > 1 {
        let decoded: Vec<Result<()>> =
            chunks.into_par_iter().enumerate().map(|(c, out)| meta.decode_chunk(c, out)).collect();
        decoded.into_iter().collect::<Result<()>>()?;
    } else {
        for (c, out) in chunks.into_iter().enumerate() {
            meta.decode_chunk(c, out)?;
        }
    }
    Ok(outliers)
}

/// Lengthen entropy-decode scratch to at least `len` slots, reserving no more
/// than that. It keeps its length from block to block and level to level — a
/// decode overwrites every slot it hands on — so only growth is ever filled.
pub(crate) fn grow_symbols(symbols: &mut Vec<u32>, len: usize) {
    symbols.reserve_exact(len.saturating_sub(symbols.len()));
    symbols.resize(len.max(symbols.len()), 0);
}

/// A trace span of one stage of one sub-block's decode. Off-trace a span is
/// one thread-local read: no clock, no allocation.
pub(crate) fn block_span(name: &'static str, block: usize) -> stz_telemetry::trace::TraceSpan {
    let mut span = stz_telemetry::trace::span(name);
    span.attr("block", block);
    span
}

/// Reconstruct one sub-block from its decoded symbols and the previous
/// level's grid, storing each row into the `next` one as it is produced.
fn reconstruct_in_place<T: Scalar>(
    rows: &BlockRows<'_>,
    symbols: &[u32],
    outliers: &[T],
    prev: &Field<T>,
    next: &mut Field<T>,
) {
    let mut row = vec![T::default(); rows.bx];
    let mut cursor = 0;
    for (i, span) in symbols.chunks_exact(rows.bx).enumerate() {
        let (z, y, xs) = (i / rows.by, i % rows.by, 0..rows.bx);
        let at =
            rows.reconstruct_row(prev.as_slice(), z, y, xs, span, outliers, &mut cursor, &mut row);
        T::simd_scatter2(rows.lane, &row, next.as_mut_slice(), at);
    }
}

/// Reconstruct the `target` box of one sub-block (in block-local
/// coordinates) from the previous level's grid into the `next` one: the rows
/// of a full decode, each over the box's x-range only, so a region is a crop
/// of the full decode by construction. `decoded` is a stretch of the block's
/// stream that holds the box's rows, with the stream index of its first
/// symbol; `rank_before(i)` is the number of escapes before symbol `i`, asked
/// in ascending order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reconstruct_box<T: Scalar>(
    prev: &Field<T>,
    next: &mut Field<T>,
    block: &BlockSpec,
    quant: &LinearQuantizer,
    interp: InterpKind,
    target: &Region,
    (symbols, origin): (&[u32], usize),
    outliers: &[T],
    mut rank_before: impl FnMut(usize) -> usize,
) {
    let rows = BlockRows::new(next.dims(), prev.dims(), block, quant, interp);
    let xs = target.x0..target.x1;
    let mut row = vec![T::default(); xs.len()];
    for z in target.z0..target.z1 {
        for y in target.y0..target.y1 {
            let first = (z * rows.by + y) * rows.bx + xs.start;
            let mut cursor = rank_before(first);
            let at = rows.reconstruct_row(
                prev.as_slice(),
                z,
                y,
                xs.clone(),
                &symbols[first - origin..][..xs.len()],
                outliers,
                &mut cursor,
                &mut row,
            );
            T::simd_scatter2(rows.lane, &row, next.as_mut_slice(), at);
        }
    }
}

/// One sub-block as the entropy stage leaves it for the pool.
struct DecodedBlock<T> {
    symbols: Vec<u32>,
    outliers: Vec<T>,
    /// Rank among `outliers` of the first escape of each z-slab.
    cursors: Vec<usize>,
}

/// [`reconstruct_in_place`] for the pool, [`upscatter`] included. Rows read
/// the previous grid only, so the next one can be cut into z-`slabs` (in
/// previous-grid planes: two planes of the next grid each) that move their
/// share of the previous grid up and fill in their rows of every block side by
/// side, straight into place — and fault their own pages in.
fn reconstruct_slabs<T: Scalar>(
    blocks: &[(BlockRows<'_>, DecodedBlock<T>)],
    slabs: &[Range<usize>],
    coarse: &Field<T>,
    next: &mut Field<T>,
) {
    let (cdims, ndims) = (coarse.dims(), next.dims());
    let pair = 2 * ndims.ny() * ndims.nx();
    let prev = coarse.as_slice();
    // Every slab but the last is as long as the first.
    let chunks = next.as_mut_slice().chunks_mut(slabs[0].len() * pair);
    let fill = |(s, planes): (usize, &mut [T])| {
        let (slab, base) = (&slabs[s], slabs[s].start * pair);
        let mut span = stz_telemetry::trace::span("reconstruct");
        span.attr("slab", s);
        let window = Region::d3(slab.clone(), 0..cdims.ny(), 0..cdims.nx());
        upscatter_into(coarse, &window, ndims, planes, base);
        let mut row = Vec::new();
        for (rows, block) in blocks {
            row.resize(rows.bx, T::default());
            let mut cursor = block.cursors[s];
            for z in slab.start..slab.end.min(rows.nz) {
                for y in 0..rows.by {
                    let (xs, first) = (0..rows.bx, (z * rows.by + y) * rows.bx);
                    let symbols = &block.symbols[first..first + rows.bx];
                    let outliers = &block.outliers;
                    let at = rows.reconstruct_row(
                        prev,
                        z,
                        y,
                        xs,
                        symbols,
                        outliers,
                        &mut cursor,
                        &mut row,
                    );
                    T::simd_scatter2(rows.lane, &row, planes, at - base);
                }
            }
        }
    };
    let _: Vec<()> = chunks.into_par_iter().enumerate().map(fill).collect();
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
    let mut symbols = Vec::new();
    for level in &plan.levels[1..upto as usize] {
        let mut stage = stz_telemetry::trace::span("level_decode");
        stage.attr("level", level.index);
        grid =
            decode_level_grid::<T, S>(source, &plan, level.index, &grid, &mut symbols, parallel)?;
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

/// Decode one finer level, given the previous level's working grid.
///
/// `symbols` is entropy-decode scratch the serial path reuses for every
/// block (and the caller for every level); on the pool each block decodes
/// into a buffer of its own.
pub(crate) fn decode_level_grid<T: Scalar, S: SectionSource + ?Sized>(
    source: &S,
    plan: &LevelPlan,
    level_index: u8,
    prev_grid: &Field<T>,
    symbols: &mut Vec<u32>,
    parallel: bool,
) -> Result<Field<T>> {
    let level = &plan.levels[level_index as usize - 1];
    let ebs = source.header().level_ebs();
    let quant = LinearQuantizer::new(ebs[level_index as usize - 1], source.header().radius);
    let interp = source.header().interp;

    // A zeroed allocation costs nothing until its pages are touched, and
    // every page is touched exactly once per point stored.
    let mut next = Field::<T>::zeros(level.grid_dims);

    if parallel {
        // The entropy stage of every block side by side (and of every chunk
        // within one), then every z-slab of the grid side by side.
        let slabs = slab_ranges(prev_grid.dims().nz());
        let decode_one = |(i, block): (usize, &BlockSpec)| -> Result<_> {
            let bytes = source.block_bytes(level_index, i)?;
            // Fresh from the allocator, so zeroed without a fill pass.
            let mut symbols = vec![0u32; block.lattice.len()];
            let _stage = block_span("entropy", i);
            let outliers = decode_block_payload::<T>(&bytes, true, &mut symbols)?;
            let plane = block.lattice.dims().ny() * block.lattice.dims().nx();
            let mut rank = 0;
            let cursors = slabs
                .iter()
                .map(|slab| {
                    let (before, end) = (rank, symbols.len().min(slab.end * plane));
                    if !outliers.is_empty() && slab.start * plane < end {
                        let span = &symbols[slab.start * plane..end];
                        rank += span.iter().filter(|&&s| s == ESCAPE_SYMBOL).count();
                    }
                    before
                })
                .collect();
            Ok(DecodedBlock { symbols, outliers, cursors })
        };
        let decoded: Vec<Result<_>> = level.blocks.par_iter().enumerate().map(decode_one).collect();
        let mut blocks = Vec::with_capacity(decoded.len());
        for (block, decoded) in level.blocks.iter().zip(decoded) {
            let rows = BlockRows::new(next.dims(), prev_grid.dims(), block, &quant, interp);
            blocks.push((rows, decoded?));
        }
        reconstruct_slabs(&blocks, &slabs, prev_grid, &mut next);
    } else {
        upscatter(prev_grid, &mut next, &Region::full(prev_grid.dims()));
        // One buffer for the level's largest block.
        grow_symbols(symbols, level.blocks.iter().map(|b| b.lattice.len()).max().unwrap_or(0));
        for (i, block) in level.blocks.iter().enumerate() {
            let bytes = source.block_bytes(level_index, i)?;
            let symbols = &mut symbols[..block.lattice.len()];
            let outliers = {
                let _stage = block_span("entropy", i);
                decode_block_payload::<T>(&bytes, false, symbols)?
            };
            let _stage = block_span("reconstruct", i);
            let rows = BlockRows::new(next.dims(), prev_grid.dims(), block, &quant, interp);
            reconstruct_in_place(&rows, symbols, &outliers, prev_grid, &mut next);
        }
    }
    Ok(next)
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
