//! STZ compression, and the level decode [`crate::progressive`] steps.
//!
//! Compression proceeds level by level on *working grids* — successively
//! finer coarsenings of the original grid (see [`crate::level`]), held in
//! the field's own element type `T`. Every sub-block's points are predicted
//! with the multi-dimensional kernels one row at a time **from the previous
//! level's grid as it is**: every tap of every prediction is a point of it,
//! and a block row is unit stride in it ([`crate::kernels::RowStencils`]).
//! One fused kernel call takes a row from originals to symbols (or from
//! symbols to reconstructed `T`) with nothing row-sized in `f64` in between.
//! Both directions walk a level alike and write every point of the next grid
//! once (`LevelRows::assemble`): each row is assembled in L1 from two
//! sources — the previous grid's row or one block's, and another block's —
//! and stored at unit stride. A block row is made from originals on encode,
//! its symbols Huffman-coded a chunk at a time as the walk fills the chunk,
//! and from symbols on decode, entropy-decoded a chunk at a time as the walk
//! reaches it; a region's working grids are boxes of the levels', assembled
//! by the same walk. Every value that enters a grid is
//! already `T`-representable — level 1 comes from SZ3 as `T`, every
//! reconstruction is rounded through `T`, every escape is the stored `T` —
//! so widening the taps at load gives the kernels the operands an `f64` grid
//! would. On decode the finest level's grid *is* the decoded answer, stored
//! straight into the memory the caller hands the last step (`Points`: a
//! typed grid, or little-endian bytes); on encode it does not exist, because
//! nothing predicts from it.
//!
//! Because finer-level points never depend on one another, both the blocks
//! of a level and the points within a block are embarrassingly parallel, and
//! every walk runs on [`crate::pool`], each worker assembling its share in
//! place. A decode splits the box into *pieces*, one per row parity — four
//! in 3-D, two in 2-D: a row reads only the blocks of its parity, so a piece
//! owns its blocks' streams and every Huffman chunk is decoded once, by one
//! piece. An encode cuts the box into slabs — planes of the next grid, or
//! rows or spans where it is thin — as many as the pool's width calls for,
//! and stitches the chunks they share afterwards, in slab order. At width 1
//! the box is one piece or slab, which is what the serial entry points pin.
//! Archives and fields are **bit-identical** at every width.

use crate::archive::{build_bytes, ArchiveHeader, StzArchive};
use crate::config::StzConfig;
use crate::kernels::{dense_taps, predict_point, RowStencils, StencilOffsets};
use crate::level::{BlockSpec, LevelPlan, LevelSpec};
use crate::pool;
use crate::random_access::LevelTimes;
use crate::source::SectionSource;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stz_codec::{
    huffman, ByteReader, ByteWriter, CodecError, LinearQuantizer, Result, ESCAPE_SYMBOL,
};
use stz_field::{Dims, Field, Region, Scalar};
use stz_simd::Lane;
use stz_sz3::quant::{quantize_scalar, reconstruct_scalar, ScalarQuant};
use stz_sz3::{ErrorBound, InterpKind, Sz3Config};
use stz_telemetry::Histogram;

/// The STZ streaming compressor.
#[derive(Debug, Clone)]
pub struct StzCompressor {
    config: StzConfig,
}

impl StzCompressor {
    pub fn new(config: StzConfig) -> Self {
        StzCompressor { config }
    }

    pub fn config(&self) -> &StzConfig {
        &self.config
    }

    /// Compress serially: [`StzCompressor::compress_parallel`] at width 1.
    pub fn compress<T: Scalar>(&self, field: &Field<T>) -> Result<StzArchive<T>> {
        pool::with_threads(1, || self.compress_parallel(field))
    }

    /// Compress on the [`crate::pool`] threads. Produces bytes identical to
    /// [`StzCompressor::compress`].
    pub fn compress_parallel<T: Scalar>(&self, field: &Field<T>) -> Result<StzArchive<T>> {
        let cfg = &self.config;
        // Classify bad configurations up front (typed `ConfigError`) —
        // before the level planner or the quantizer can assert on them.
        cfg.validate()
            .map_err(|e| CodecError::unsupported(format!("invalid configuration: {e}")))?;
        let dims = field.dims();
        let plan = LevelPlan::new(dims, cfg.levels);
        let eb_abs = cfg.eb.absolute_for(field);
        // Catch the resolved values too: a *relative* bound over a constant
        // field can resolve to zero even when the configured ratio is valid,
        // and a tiny one leaves a coarser level's bound zero.
        let Some(ebs) = cfg.usable_level_ebs(eb_abs) else {
            return Err(CodecError::unsupported(format!(
                "invalid configuration: resolved error bound {eb_abs} must be positive and \
                 finite, and leave every level's bound nonzero"
            )));
        };

        // Per-stage wall-clock histograms (resolved once; the slab closures
        // record through the lock-free handles).
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
        let mut grid: Vec<T> = a_recon.into_iter().map(T::from_f64).collect();

        // Finer levels. Only a level the next one predicts from keeps its
        // grid: the finest level's reconstruction is nobody's operand.
        let mut level_blocks: Vec<Vec<Vec<u8>>> = Vec::with_capacity(cfg.levels as usize - 1);
        for level in &plan.levels[1..] {
            let quant = LinearQuantizer::encoder(ebs[level.index as usize - 1], cfg.radius);
            let rows =
                LevelRows::new(level, &Region::full(level.prev_grid_dims), &quant, cfg.interp);
            let keeps = level.index < cfg.levels;
            let (streams, next) = rows.encode(field, &grid, keeps, (&quantize_ns, &encode_ns))?;
            level_blocks.push(streams);
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

/// Everything the rows of one sub-block share: its geometry, its stencils
/// over the previous level's grid, the quantizer and the lane. The two row
/// routines — [`BlockRows::quantize_row`] and [`BlockRows::reconstruct_row`]
/// — read the previous grid and write a row of `T` where the walk says;
/// the walk assembles the next grid from the rows of two blocks at a time
/// ([`LevelRows::assemble`]), in either direction.
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
    /// Block extents along y and x.
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
    /// Index of the first point of the row's coarse row in the previous
    /// grid's box.
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
            cbase: (cz * self.cdims.ny() + cy) * self.cdims.nx(),
            stencil,
            xa,
            xb,
        }
    }

    /// Quantize the span `xs` of row `(z, y)` of the block: gather its
    /// originals from `src` (the field being compressed) at the block's
    /// stride into `orig`, predict from the previous level's grid `prev`,
    /// write the span's symbols and outliers to `sink` and — where the
    /// caller keeps it — leave the span reconstructed in `recon`, one slot
    /// per point of the span.
    #[allow(clippy::too_many_arguments)]
    fn quantize_row<T: Scalar>(
        &self,
        src: &[T],
        prev: &[T],
        (z, y): (usize, usize),
        xs: Range<usize>,
        orig: &mut [T],
        sink: &mut ChunkSink<'_, T>,
        mut recon: Option<&mut [T]>,
    ) {
        let lattice = &self.block.lattice;
        let (pz, py, px) = lattice.to_parent(z, y, xs.start);
        let parent = lattice.parent_dims();
        let start = (pz * parent.ny() + py) * parent.nx() + px;
        let orig = &mut orig[..xs.len()];
        match lattice.stride() {
            2 => T::simd_gather2(self.lane, src, start, orig),
            stride => {
                for (o, &v) in orig.iter_mut().zip(src[start..].iter().step_by(stride)) {
                    *o = v;
                }
            }
        }
        let walk = self.row(z, y);
        let (xa, xb) = walk.batch_range(&xs);
        let (symbols, outliers) = sink.row((z * self.by + y) * self.bx + xs.start, xs.len());
        // The kernel span: originals to symbols in one fused pass.
        let span = xa - xs.start..xb - xs.start;
        let mut escaped = self.quant.quantize_dense(
            self.lane,
            prev,
            walk.coarse(xa),
            &walk.stencil.as_simd(),
            &orig[span.clone()],
            &mut symbols[span.clone()],
            recon.as_deref_mut().map(|row| &mut row[span]),
        );
        for x in (xs.start..xa).chain(xb..xs.end) {
            let i = x - xs.start;
            match quantize_scalar::<T>(self.quant, orig[i].to_f64(), walk.predict(prev, x)) {
                ScalarQuant::Code { symbol, recon: value } => {
                    symbols[i] = symbol;
                    if let Some(row) = &mut recon {
                        row[i] = T::from_f64(value);
                    }
                }
                ScalarQuant::Escape => {
                    symbols[i] = ESCAPE_SYMBOL;
                    escaped = true;
                }
            }
        }
        // Outliers in ascending x, as the stream orders them: a walk only
        // spans with an escape pay for.
        if escaped {
            for i in (0..xs.len()).filter(|&i| symbols[i] == ESCAPE_SYMBOL) {
                outliers.push(orig[i]);
                if let Some(row) = &mut recon {
                    row[i] = orig[i];
                }
            }
        }
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
        let (xa, xb) = walk.batch_range(&xs);
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

    /// The block-local x span `[xa, xb)` the batch kernels take of `xs`: the
    /// part the row's stencil is interior at, or nothing on the scalar lane.
    #[inline]
    fn batch_range(&self, xs: &Range<usize>) -> (usize, usize) {
        let (xa, xb) = if self.rows.lane == Lane::Scalar { (0, 0) } else { (self.xa, self.xb) };
        let xa = xa.clamp(xs.start, xs.end);
        (xa, xb.clamp(xa, xs.end))
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

/// Symbols per chunk of a block of `n`: at most 64 chunks of about
/// [`HUFFMAN_CHUNK`] each, the last of which may hold fewer. The layout is
/// fixed by the point count before any symbol exists.
fn chunk_size(n: usize) -> usize {
    n.div_ceil(n.div_ceil(HUFFMAN_CHUNK).clamp(1, 64)).max(1)
}

/// A walk's sink for one block's symbols, the encode twin of
/// [`ChunkWindow`]: rows are quantised into the chunk being filled, which is
/// Huffman-coded as soon as it is full, so a block holds one chunk of
/// symbols, never the whole block. A slab's sink starts where its first row
/// does in the block's stream and codes only the chunks it fills from their
/// start; the piece of a chunk it starts inside (`head`) and of the one it
/// ends inside wait as symbols for [`ChunkSink::append`], which stitches the
/// slabs' sinks together in slab order.
struct ChunkSink<'a, T> {
    /// Symbols per chunk (the final chunk may hold fewer), and in the block.
    size: usize,
    total: usize,
    /// Stream index of `open`'s first symbol, and the symbols from there on.
    from: usize,
    open: Vec<u32>,
    /// The piece of the chunk the sink started inside, up to its end.
    head: Vec<u32>,
    /// The chunks coded, each with its escape count, and the outliers.
    coded: Vec<(Vec<u8>, usize)>,
    outliers: Vec<T>,
    encode_ns: &'a Arc<Histogram>,
}

impl<'a, T: Scalar> ChunkSink<'a, T> {
    /// A sink for a block of `total` symbols.
    fn new(total: usize, encode_ns: &'a Arc<Histogram>) -> Self {
        ChunkSink {
            size: chunk_size(total),
            total,
            from: 0,
            open: Vec::new(),
            head: Vec::new(),
            coded: Vec::new(),
            outliers: Vec::new(),
            encode_ns,
        }
    }

    /// `len` slots for the symbols of a row from stream index `first` on —
    /// where the sink's last row ended, or anywhere for its first — and the
    /// outliers the row's escapes go to.
    fn row(&mut self, first: usize, len: usize) -> (&mut [u32], &mut Vec<T>) {
        self.flush();
        if self.open.is_empty() {
            self.from = first;
        }
        debug_assert_eq!(self.from + self.open.len(), first);
        let n = self.open.len();
        if self.open.capacity() < n + len {
            self.open.reserve_exact(self.size + len - n);
        }
        self.open.resize(n + len, ESCAPE_SYMBOL);
        (&mut self.open[n..], &mut self.outliers)
    }

    /// Code every chunk `open` holds whole, and set aside as `head` the
    /// piece it holds of a chunk it did not start.
    fn flush(&mut self) {
        let mut done = 0;
        while done < self.open.len() {
            let start = self.from / self.size * self.size;
            let end = (start + self.size).min(self.total);
            if self.from + self.open.len() - done < end {
                break;
            }
            let piece = &self.open[done..done + end - self.from];
            if self.from == start {
                let _stage = self.encode_ns.span();
                self.coded.push(huffman::encode_block_counting(piece));
            } else {
                self.head = piece.to_vec();
            }
            (done, self.from) = (done + end - self.from, end);
        }
        self.open.drain(..done);
    }

    /// Stitch on `next`, the sink of the following slab: its head
    /// completes the chunk this one ends inside, its chunks follow, and the
    /// chunk it ends inside is the one this sink holds next.
    fn append(&mut self, next: ChunkSink<'_, T>) {
        self.open.extend_from_slice(&next.head);
        self.flush();
        debug_assert!(next.coded.is_empty() || self.open.is_empty());
        self.from = (self.from + next.coded.len() * self.size).min(self.total);
        self.coded.extend(next.coded);
        self.open.extend_from_slice(&next.open);
        self.outliers.extend(next.outliers);
    }

    /// The block's stream: Huffman-coded symbol chunks, each chunk's escape
    /// count ahead of them all, and the outliers bit-exact.
    fn into_stream(mut self) -> Vec<u8> {
        self.flush();
        debug_assert_eq!((self.from, self.head.len()), (self.total, 0));
        let chunks: usize = self.coded.iter().map(|(bytes, _)| bytes.len() + 20).sum();
        let mut w = ByteWriter::with_capacity(chunks + 30 + self.outliers.len() * T::BYTES);
        w.put_uvarint(self.coded.len() as u64);
        w.put_uvarint(self.size as u64);
        // Per-chunk escape counts: a random-access reader can align its outlier
        // cursor without entropy-decoding skipped chunks (the paper's
        // "random-access Huffman decoding" future-work item).
        for (_, escapes) in &self.coded {
            w.put_uvarint(*escapes as u64);
        }
        for (bytes, _) in &self.coded {
            w.put_block(bytes);
        }
        stz_sz3::stream::write_outliers(&mut w, &self.outliers);
        w.finish()
    }
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
    level: &'a LevelSpec,
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
        LevelRows { level, blocks, cbox: cbox.clone() }
    }

    /// Assemble `units`, boxes of the level's grid in turn, plane by plane
    /// from `prev` — the previous grid's box — and block rows, each into its
    /// memory unless that is empty: `row(rows, (z, y), xs, out)` makes the
    /// span `xs` of row `(z, y)` of the block `rows` into `out`. Each row is
    /// built in L1 from two sources and stored once, at unit stride: its
    /// even-x points are the previous grid's row where z and y are even and
    /// block `(z&1, y&1, 0)`'s row elsewhere, its odd-x points block
    /// `(z&1, y&1, 1)`'s. Which blocks exist is the plan's business, so axes
    /// of extent 1 or 2 and odd x-extents take no case of their own.
    fn assemble<T: Scalar, O: Points<T>>(
        &self,
        prev: &[T],
        units: impl IntoIterator<Item = (Region, O)>,
        mut row: impl FnMut(&BlockRows<'a>, (usize, usize), Range<usize>, &mut [T]) -> Result<()>,
    ) -> Result<()> {
        let (c, cdims) = (&self.cbox, extents(&self.cbox));
        let mut block_row = |s: usize, zy, xs: Range<usize>, out: &mut [T]| {
            if xs.is_empty() {
                return Ok(());
            }
            let rows = self.blocks[s].as_ref().expect("the plan has a block for every row parity");
            row(rows, zy, xs, out)
        };
        let (mut even, mut odd) = (Vec::new(), Vec::new());
        for (obox, mut out) in units {
            let (ny, nx, stores) = (obox.y1 - obox.y0, obox.x1 - obox.x0, out.points() > 0);
            let (evens, odds) =
                (obox.x0.div_ceil(2)..obox.x1.div_ceil(2), obox.x0 / 2..obox.x1 / 2);
            even.resize(evens.len(), T::default());
            odd.resize(odds.len(), T::default());
            for gz in obox.z0..obox.z1 {
                for gy in obox.y0..obox.y1 {
                    let (s, z, y) = (((gz & 1) << 2) | ((gy & 1) << 1), gz >> 1, gy >> 1);
                    let even = if s == 0 {
                        let at = cdims.index(z - c.z0, y - c.y0, evens.start - c.x0);
                        &prev[at..at + evens.len()]
                    } else {
                        block_row(s, (z, y), evens.clone(), &mut even)?;
                        &even[..]
                    };
                    block_row(s | 1, (z, y), odds.clone(), &mut odd)?;
                    if stores {
                        let at = ((gz - obox.z0) * ny + gy - obox.y0) * nx;
                        out.interleave(at..at + nx, even, &odd, obox.x0 % 2 == 1);
                    }
                }
            }
        }
        Ok(())
    }

    /// Encode the level from `prev`, the whole previous grid: quantise every
    /// block's rows of the originals in `field` as the walk reaches them, and
    /// return the blocks' streams in block order and — where the next level
    /// predicts from it (`keeps`) — the level's grid. The chunks slabs share
    /// are stitched together afterwards, in slab order.
    fn encode<T: Scalar>(
        &self,
        field: &Field<T>,
        prev: &[T],
        keeps: bool,
        (quantize_ns, encode_ns): (&Arc<Histogram>, &Arc<Histogram>),
    ) -> Result<(Vec<Vec<u8>>, Vec<T>)> {
        let obox = Region::full(self.level.grid_dims);
        let mut grid = vec![T::default(); if keeps { obox.len() } else { 0 }];
        let parts = self.slabs(&obox, &mut grid[..], |_, slab, out| {
            let _stage = quantize_ns.span();
            let mut sinks: Slots<ChunkSink<'_, T>> = std::array::from_fn(|k| {
                Some(ChunkSink::new(self.blocks[k].as_ref()?.block.lattice.len(), encode_ns))
            });
            let mut orig = vec![T::default(); slab.x1.div_ceil(2) - slab.x0 / 2];
            self.assemble(prev, [(slab, out)], |rows, zy, xs, recon| {
                let sink = sinks[slot(rows.block)].as_mut().expect("a sink on every block");
                let recon = keeps.then_some(recon);
                rows.quantize_row(field.as_slice(), prev, zy, xs, &mut orig, sink, recon);
                Ok(())
            })?;
            // What waits for the stitch is at most two pieces of a chunk.
            for sink in sinks.iter_mut().flatten() {
                sink.flush();
                sink.open.shrink_to_fit();
            }
            Ok::<_, CodecError>(sinks)
        });
        let mut parts = parts.into_iter();
        let mut blocks = parts.next().expect("a grid is one slab or more")?;
        for part in parts {
            for (block, part) in blocks.iter_mut().flatten().zip(part?.into_iter().flatten()) {
                block.append(part);
            }
        }
        let streams = self.level.blocks.iter().map(|b| blocks[slot(b)].take());
        let streams = streams.map(|sink| sink.expect("a sink on every block").into_stream());
        Ok((streams.collect(), grid))
    }

    /// Run `slab(s, box, out)` on each slab of `obox` — the `s`-th, its box,
    /// and its share of `out` (nothing, where `out` is empty) — and return
    /// what each returns, in slab order. The box is cut as [`LevelRows::cut`]
    /// says and the slabs run side by side on the pool. Every slab is
    /// contiguous in `obox`'s order.
    fn slabs<T, O: Points<T>, R: Send>(
        &self,
        obox: &Region,
        out: O,
        slab: impl Fn(usize, Region, O) -> R + Sync,
    ) -> Vec<R> {
        let (lo, hi) = ([obox.z0, obox.y0, obox.x0], [obox.z1, obox.y1, obox.x1]);
        let steps = self.cut(obox);
        let span =
            |a: usize| (lo[a]..hi[a]).step_by(steps[a]).map(move |i| (i, hi[a].min(i + steps[a])));
        let boxes = span(0).flat_map(|(z0, z1)| {
            span(1).flat_map(move |(y0, y1)| {
                span(2).map(move |(x0, x1)| Region { z0, z1, y0, y1, x0, x1 })
            })
        });
        let (mut parts, mut rest) = (Vec::new(), out);
        for (s, b) in boxes.enumerate() {
            let n = if rest.points() == 0 { 0 } else { b.len() };
            let (mine, tail) = rest.split_at(n);
            rest = tail;
            parts.push((s, b, mine));
        }
        pool::map(parts, |(s, b, out)| slab(s, b, out))
    }

    /// Run `piece(p, units)` on each piece a decode of `obox` splits into —
    /// the `p`-th and its units, boxes of `obox` each with its share of `out`
    /// — and return what each returns, in piece order. A row `(z, y)` reads
    /// block `(z&1, y&1, 1)` and either block `(z&1, y&1, 0)` or, where both
    /// are even, the previous grid. So on the pool a piece is the rows of one
    /// row parity, a unit each: it owns its blocks' streams, no chunk is
    /// decoded by two pieces, and the four pieces of a 3-D box hold one
    /// window on each block between them. That is four pieces in 3-D and two
    /// in 2-D at every width; a piece keeps just its rows' shares of `out`
    /// and makes their boxes as it walks. Where `obox` is a row thick, or at
    /// width 1, the pieces are the [`LevelRows::slabs`] of `obox`, whose
    /// boundaries may share a chunk.
    fn pieces<T, O: Points<T>, R: Send>(
        &self,
        obox: &Region,
        out: O,
        piece: impl Fn(usize, &mut dyn Iterator<Item = (Region, O)>) -> R + Sync,
    ) -> Vec<R> {
        let (zs, ys) = (obox.z0..obox.z1, obox.y0..obox.y1);
        if pool::threads() == 1 || zs.len() * ys.len() == 1 {
            return self.slabs(obox, out, |s, b, out| piece(s, &mut std::iter::once((b, out))));
        }
        let of_parity = |r: &Range<usize>, p: usize| r.clone().filter(move |i| i & 1 == p);
        let mut classes: [Vec<O>; 4] = std::array::from_fn(|c| {
            Vec::with_capacity(of_parity(&zs, c >> 1).count() * of_parity(&ys, c & 1).count())
        });
        let (mut rest, nx) = (out, obox.x1 - obox.x0);
        for z in zs.clone() {
            for y in ys.clone() {
                let (mine, tail) = rest.split_at(nx);
                rest = tail;
                classes[((z & 1) << 1) | (y & 1)].push(mine);
            }
        }
        let pieces = classes.into_iter().enumerate().filter(|(_, outs)| !outs.is_empty());
        let pieces: Vec<_> = pieces.enumerate().collect();
        pool::map(pieces, |(p, (c, outs))| {
            let boxes = of_parity(&zs, c >> 1).flat_map(|z0| {
                let row = move |y0| Region { z0, z1: z0 + 1, y0, y1: y0 + 1, ..obox.clone() };
                of_parity(&ys, c & 1).map(row)
            });
            piece(p, &mut boxes.zip(outs))
        })
    }

    /// How the pool cuts `obox`: grid units per slab along each axis; one
    /// slab at width 1. Else the cut axis is the outermost of planes, rows
    /// and points that gives a slab per thread, or past which slabs would be
    /// smaller than a chunk; along it a slab is a few per thread and no fewer
    /// units than a Huffman chunk of any block spans, so that where chunks
    /// are whole units each is coded or decoded by one slab. Across the axes
    /// outside it a slab is one unit, along those inside it all of `obox`.
    fn cut(&self, obox: &Region) -> [usize; 3] {
        let (threads, ext) = (pool::threads(), extents(obox).as_array());
        if threads == 1 {
            return ext;
        }
        let c = extents(&self.cbox).as_array();
        let mut axis = 0;
        let step = loop {
            let chunk = (self.blocks.iter().flatten())
                .map(|r| chunk_size(r.block.lattice.len()).div_ceil([r.by * r.bx, r.bx, 1][axis]))
                .fold(1, usize::max);
            let step = 2 * chunk.max(c[..=axis].iter().product::<usize>() / (threads * 4));
            let slabs = ext[..axis].iter().product::<usize>() * ext[axis].div_ceil(step);
            if slabs >= threads || chunk > 1 || axis == 2 {
                break step;
            }
            axis += 1;
        };
        std::array::from_fn(|a| match a.cmp(&axis) {
            Ordering::Less => 1,
            Ordering::Equal => step,
            Ordering::Greater => ext[a],
        })
    }
}

/// Memory a walk stores a box's points into, in the box's order: a typed
/// grid (`&mut [T]`), every intermediate level's and every field's, or the
/// little-endian bytes of one ([`LeBytes`]), a response's.
pub(crate) trait Points<T>: Sized + Send {
    /// Points it has room for.
    fn points(&self) -> usize;

    /// Its first `n` points, and the rest.
    fn split_at(self, n: usize) -> (Self, Self);

    /// Store the row of points `at` from its even-x and odd-x sources in
    /// turn; the row starts at an odd x where `odd_first`.
    fn interleave(&mut self, at: Range<usize>, even: &[T], odd: &[T], odd_first: bool);
}

impl<T: Copy + Send> Points<T> for &mut [T] {
    fn points(&self) -> usize {
        self.len()
    }

    fn split_at(self, n: usize) -> (Self, Self) {
        self.split_at_mut(n)
    }

    #[inline]
    fn interleave(&mut self, at: Range<usize>, even: &[T], odd: &[T], odd_first: bool) {
        let (odd, out) = if odd_first {
            self[at.start] = odd[0];
            (&odd[1..], &mut self[at.start + 1..at.end])
        } else {
            (odd, &mut self[at])
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
}

/// The little-endian bytes of a box's points, at any alignment.
pub(crate) struct LeBytes<'a>(pub &'a mut [u8]);

impl<T: Scalar> Points<T> for LeBytes<'_> {
    fn points(&self) -> usize {
        self.0.len() / T::BYTES
    }

    fn split_at(self, n: usize) -> (Self, Self) {
        let (head, tail) = self.0.split_at_mut(n * T::BYTES);
        (LeBytes(head), LeBytes(tail))
    }

    /// The typed interleave's stores, each as the point's little-endian
    /// bytes.
    #[inline]
    fn interleave(&mut self, at: Range<usize>, even: &[T], odd: &[T], odd_first: bool) {
        let out = &mut self.0[at.start * T::BYTES..at.end * T::BYTES];
        let (odd, out) = if odd_first {
            let (first, rest) = out.split_at_mut(T::BYTES);
            odd[0].store_le(first);
            (&odd[1..], rest)
        } else {
            (odd, out)
        };
        let mut pairs = out.chunks_exact_mut(2 * T::BYTES);
        for ((pair, &e), &o) in (&mut pairs).zip(even).zip(odd) {
            let (a, b) = pair.split_at_mut(T::BYTES);
            e.store_le(a);
            o.store_le(b);
        }
        let last = pairs.into_remainder();
        if !last.is_empty() {
            even[even.len() - 1].store_le(last);
        }
    }
}

/// A walk's view of one block's stream: entropy-decoded a chunk at a time
/// when the walk reaches the chunk, into a window the chunk's size; a row
/// astride two chunks is copied out whole. A chunk no row touches is never
/// decoded. The escapes in what the walk passes over are counted from the
/// declared counts where it passes a whole chunk and from the symbols where
/// it passes part of one, so a box's rows — a region's, a piece's — find
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
    /// Chunks decoded, and the time they took.
    tally: (usize, Duration),
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
            tally: (0, Duration::ZERO),
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
            self.tally = (self.tally.0 + 1, self.tally.1 + t.elapsed());
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

/// Decode level 1 (the SZ3 stream): it is its own working grid.
///
/// Also the element-type gate for every decode path: a source whose header
/// advertises a different scalar type than `T` is rejected here, before any
/// payload is interpreted.
pub(crate) fn decode_level1<T: Scalar, S: SectionSource + ?Sized>(
    source: &S,
    plan: &LevelPlan,
) -> Result<Vec<T>> {
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
    Ok(a.into_vec())
}

/// Decode `obox`, a box of `level`'s grid — all of it, or a region's share
/// — from `prev`, the box `cbox` of the previous level's grid, into `out`,
/// which has room for the box's points. The blocks a row of the box falls in
/// are fetched and parsed, then the box is assembled with a [`ChunkWindow`]
/// on each, one walk per piece of [`LevelRows::pieces`], side by side,
/// straight into place. Returns the level's stage timings, each the sum of
/// its seconds over the pieces.
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
    out: impl Points<T>,
) -> Result<LevelTimes> {
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
    assert_eq!(out.points(), obox.len(), "the output holds the box");
    let fill = |streams: &Slots<BlockStream<'_, T>>| {
        let done = rows.pieces::<T, _, _>(obox, out, |p, units| {
            let t = Instant::now();
            let mut span = stz_telemetry::trace::span("reconstruct");
            span.attr("slab", p);
            let mut windows: Slots<ChunkWindow<'_, T>> =
                std::array::from_fn(|k| streams[k].as_ref().map(ChunkWindow::new));
            rows.assemble(prev, units, |rows, (z, y), xs, out| {
                let window = windows[slot(rows.block)].as_mut();
                let window = window.expect("a window is open on every block a box reads");
                let (symbols, outliers, cursor) =
                    window.row((z * rows.by + y) * rows.bx + xs.start, xs.len())?;
                rows.reconstruct_row(prev, z, y, xs, symbols, outliers, cursor, out);
                Ok(())
            })?;
            let tally = |(n, e), w: &ChunkWindow<'_, T>| (n + w.tally.0, e + w.tally.1);
            let (chunks, entropy) = windows.iter().flatten().fold((0, Duration::ZERO), tally);
            // The piece's own time holds its windows' entropy time.
            let predict = t.elapsed() - entropy;
            Ok::<_, CodecError>((chunks, entropy.as_secs_f64(), predict.as_secs_f64()))
        });
        let sum = |(n, e, p), (dn, de, dp)| (n + dn, e + de, p + dp);
        done.into_iter().try_fold((0, 0.0, 0.0), |acc, d| d.map(|d| sum(acc, d)))
    };
    let ((decoded, entropy, predict), chunks, opened) = match walk(source, level, &targets, fill) {
        Ok(walked) => walked,
        Err(e) => return Err(first_error::<T, S>(source, level, &targets).err().unwrap_or(e)),
    };
    let decoded_blocks = targets.iter().flatten().count();
    Ok(LevelTimes {
        level: level.index,
        decode: opened + entropy,
        predict,
        decoded_blocks,
        skipped_blocks: targets.len() - decoded_blocks,
        decoded_chunks: decoded,
        skipped_chunks: chunks.saturating_sub(decoded),
        ..LevelTimes::default()
    })
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
    fn width_one_is_one_slab() {
        // Level-3 blocks of 64^3 points span four Huffman chunks, so any
        // wider cut gives the finest level several slabs.
        let f = wavy(Dims::d3(128, 128, 128));
        let c = StzCompressor::new(StzConfig::three_level(1e-3));
        let archive = c.compress(&f).unwrap();
        let one = pool::with_threads(1, || c.compress_parallel(&f)).unwrap();
        assert_eq!(one.as_bytes(), archive.as_bytes());
        let collector = Box::leak(Box::new(stz_telemetry::trace::TraceCollector::new(true)));
        let trace_id = {
            let root = collector.start("test", "request", None);
            pool::with_threads(1, || archive.decompress_parallel()).unwrap();
            root.trace_id().unwrap()
        };
        let t = collector.snapshot().into_iter().find(|t| t.trace_id == trace_id).unwrap();
        let named = |name: &'static str| t.spans.iter().filter(move |s| s.name == name);
        assert_eq!(named("level_decode").count(), 2);
        for level in named("level_decode") {
            let slabs = named("reconstruct").filter(|s| s.parent == level.id).count();
            assert_eq!(slabs, 1, "level {:?} at width 1", level.attrs);
        }
    }

    #[test]
    fn slab_sinks_stitched_in_order_code_the_stream_one_sink_does() {
        // Symbol 0 is the escape: each one brings an outlier along.
        let encode_ns =
            stz_telemetry::global().latency("stz_core_stage_ns", &[("stage", "encode")]);
        let total = 3 * HUFFMAN_CHUNK + 1234;
        let symbols: Vec<u32> = (0..total as u32).map(|i| (i * 7919 % 61) / 9).collect();
        let stream = |cuts: &[usize]| {
            let mut merged = ChunkSink::new(total, &encode_ns);
            for slab in cuts.windows(2) {
                let mut sink = ChunkSink::new(total, &encode_ns);
                for x0 in (slab[0]..slab[1]).step_by(1000) {
                    let xs = x0..(x0 + 1000).min(slab[1]);
                    let (slots, outliers) = sink.row(x0, xs.len());
                    slots.copy_from_slice(&symbols[xs.clone()]);
                    outliers.extend(xs.filter(|&x| symbols[x] == 0).map(|x| x as f32));
                }
                sink.flush();
                merged.append(sink);
            }
            merged.into_stream()
        };
        let whole = stream(&[0, total]);
        let size = chunk_size(total);
        assert_eq!(size, total.div_ceil(4));
        for cuts in [
            vec![0, 5, total],
            vec![0, size, 2 * size, total],
            vec![0, size - 1, size + 1, 2 * size + 7, 2 * size + 7, total],
            (0..total).step_by(size / 3).chain([total]).collect(),
            vec![0, 10, 20, 30, 3 * size + 1, total, total],
        ] {
            assert_eq!(stream(&cuts), whole, "cuts {cuts:?}");
        }
    }

    #[test]
    fn interleave_starts_at_either_parity() {
        let (even, odd) = ([0.0f64, 2.0, 4.0, 6.0], [1.0, 3.0, 5.0]);
        for (x0, x1) in [(0usize, 7usize), (0, 6), (1, 7), (1, 6), (1, 2), (2, 3), (5, 6)] {
            let n = x1 - x0;
            let (evens, odds) = (x0.div_ceil(2)..x1.div_ceil(2), x0 / 2..x1 / 2);
            let (even, odd) = (&even[evens], &odd[odds]);
            // A row one point into each memory; the bytes start at an odd
            // offset, so no f64 in them is aligned.
            let mut out = vec![9.0; n + 1];
            Points::interleave(&mut &mut out[..], 1..n + 1, even, odd, x0 % 2 == 1);
            let want: Vec<f64> = (x0..x1).map(|x| x as f64).collect();
            assert_eq!(out[1..], want, "x in {x0}..{x1}");
            let mut bytes = vec![0xEE; 1 + 8 * (n + 1)];
            let mut le = LeBytes(&mut bytes[1..]);
            Points::<f64>::interleave(&mut le, 1..n + 1, even, odd, x0 % 2 == 1);
            let mut expect = vec![0xEE; 9];
            f64::write_slice_exact(&want, &mut expect);
            assert_eq!(bytes, expect, "bytes of x in {x0}..{x1}");
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
