//! The one decode driver (paper §3.3, Fig. 13). [`ProgressiveDecoder`] walks
//! the hierarchy coarse-to-fine at the [`crate::pool`]'s width, holding the
//! working grid — or the box of it a region needs — between steps; full,
//! preview and ROI decodes are throw-away walks. A level's grid *is* its
//! preview: an intermediate step hands out a copy, the last the grid itself.
//! A walk ends one of two ways, through one level loop: as a typed field
//! ([`ProgressiveDecoder::decode_to`]), or with its last box stored straight
//! into little-endian bytes the caller owns
//! ([`ProgressiveDecoder::decode_to_le`]) — a server's response frame, a
//! fetch's buffer — so an answer on the wire is made once, not decoded and
//! then copied.
//!
//! Level 1 is the one grid every walk decodes whole. Whoever holds an entry
//! decodes it once and keeps it — an [`StzArchive`] in its handle, a
//! container reader one slot per entry — and their walks
//! [resume](ProgressiveDecoder::resume) from that memo: level 2 predicts
//! straight from it rather than from a fresh decode of the SZ3 stream (the
//! jxl-oxide `LfGroup` model: decode the coarse image once, refine each
//! region against it). A level-1 preview is a copy of it.

use crate::archive::StzArchive;
use crate::compressor::{decode_box, decode_level1, LeBytes, Points};
use crate::level::LevelPlan;
use crate::random_access::{needed_regions, AccessBreakdown};
use crate::source::SectionSource;
use std::borrow::Cow;
use std::sync::OnceLock;
use std::time::Instant;
use stz_codec::{CodecError, Result};
use stz_field::{Dims, Field, Region, Scalar};
use stz_telemetry::trace;

/// Stateful coarse-to-fine decoder over any [`SectionSource`] (an
/// [`StzArchive`] by default, or an out-of-core container entry). Each
/// refinement step fetches only that level's sub-block streams.
pub struct ProgressiveDecoder<'a, T: Scalar, S: SectionSource + ?Sized = StzArchive<T>> {
    source: &'a S,
    plan: LevelPlan,
    /// The box of each level's grid the walk assembles: all of it, or the
    /// share a region needs.
    boxes: Vec<Region>,
    /// The box of the last level decoded: level 1 borrowed from a memo, or
    /// a grid this walk owns.
    grid: Cow<'a, [T]>,
    /// The level-1 memo this walk resumes from, filling it if it is empty.
    memo: Option<&'a OnceLock<Vec<T>>>,
    /// Levels decoded so far (0 = none yet).
    decoded: u8,
    /// Stage timings of the levels decoded so far.
    breakdown: AccessBreakdown,
}

impl<'a, T: Scalar, S: SectionSource + ?Sized> ProgressiveDecoder<'a, T, S> {
    /// Start a progressive walk over `source` (nothing is read yet).
    pub fn new(source: &'a S) -> Self {
        let plan = source.plan();
        let boxes = plan.levels.iter().map(|l| Region::full(l.grid_dims)).collect();
        Self::over(source, plan, boxes)
    }

    /// A walk whose last step is `region` at full resolution: every finer
    /// level assembles only the box of `needed` its successor's stencils
    /// reach. Level 1 is one SZ3 stream, decoded whole (or, on a walk that
    /// [resumes](ProgressiveDecoder::resume), taken whole from the memo).
    pub fn region(source: &'a S, region: &Region) -> Result<Self> {
        let dims = source.header().dims;
        if !region.fits_in(dims) {
            return Err(CodecError::corrupt(format!("region {region:?} outside grid {dims}")));
        }
        let plan = source.plan();
        let mut boxes = needed_regions(&plan, region);
        boxes[0] = Region::full(plan.levels[0].grid_dims);
        Ok(Self::over(source, plan, boxes))
    }

    fn over(source: &'a S, plan: LevelPlan, boxes: Vec<Region>) -> Self {
        let breakdown = AccessBreakdown::default();
        let grid = Cow::Borrowed(&[][..]);
        ProgressiveDecoder { source, plan, boxes, grid, memo: None, decoded: 0, breakdown }
    }

    /// This walk, taking level 1 from `memo` rather than the SZ3 stream: its
    /// level-1 step borrows the grid `memo` holds, or decodes and stores it
    /// there if it holds none (a failed decode leaves it empty), and level 2
    /// predicts straight from the memo.
    ///
    /// # Panics
    /// On a walk that takes a grid from `memo` that is not level 1's size:
    /// a memo belongs to one source, and is trusted to hold its level 1.
    pub fn resume(mut self, memo: &'a OnceLock<Vec<T>>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Number of levels decoded so far.
    pub fn levels_decoded(&self) -> u8 {
        self.decoded
    }

    /// Whether the full resolution has been reached.
    pub fn is_complete(&self) -> bool {
        self.decoded as usize == self.boxes.len()
    }

    /// Dims of the preview the next call to [`ProgressiveDecoder::next_level`]
    /// will return, or `None` if complete.
    pub fn next_dims(&self) -> Option<Dims> {
        self.boxes.get(self.decoded as usize).map(|b| b.dims(self.source.header().dims.ndim()))
    }

    /// Additional archive bytes the next refinement needs to read.
    pub fn next_bytes(&self) -> usize {
        if self.is_complete() {
            0
        } else {
            self.source.bytes_through_level(self.decoded + 1)
                - self.source.bytes_through_level(self.decoded)
        }
    }

    /// Decode one more level and return the refined preview, or `None` if
    /// the full resolution was already reached.
    pub fn next_level(&mut self) -> Result<Option<Field<T>>> {
        if self.is_complete() {
            return Ok(None);
        }
        self.step()?;
        let grid = if self.is_complete() {
            std::mem::take(&mut self.grid).into_owned()
        } else {
            self.grid.to_vec()
        };
        Ok(Some(self.field(grid)))
    }

    /// Dims of what a walk that ends at level `k`, a level not decoded yet,
    /// hands out: the level-`k` preview, or on a region walk through its
    /// last level, the region.
    fn dims_to(&self, k: u8) -> Result<Dims> {
        let levels = self.boxes.len();
        if !(self.decoded as usize + 1..=levels).contains(&(k as usize)) {
            return Err(CodecError::corrupt(format!(
                "requested level {k} of a {levels}-level archive"
            )));
        }
        Ok(self.boxes[k as usize - 1].dims(self.source.header().dims.ndim()))
    }

    /// Decode through level `k`, a level not decoded yet, and hand out that
    /// preview itself: the walk ends here.
    pub fn decode_to(self, k: u8) -> Result<Field<T>> {
        self.decode_to_with_breakdown(k).map(|(field, _)| field)
    }

    /// [`ProgressiveDecoder::decode_to`], with the stage timings of every
    /// level decoded (the paper's Table 4 breakdown on a region walk) and,
    /// as `total`, the seconds this call took.
    pub fn decode_to_with_breakdown(mut self, k: u8) -> Result<(Field<T>, AccessBreakdown)> {
        let start = Instant::now();
        self.dims_to(k)?;
        while self.decoded < k {
            self.step()?;
        }
        let t = Instant::now();
        let grid = std::mem::take(&mut self.grid).into_owned();
        let field = self.field(grid);
        if let Some(last) = self.breakdown.levels.last_mut() {
            last.reconstruct += t.elapsed().as_secs_f64();
        }
        self.breakdown.total = start.elapsed().as_secs_f64();
        Ok((field, self.breakdown))
    }

    /// [`ProgressiveDecoder::decode_to`] with the answer stored straight
    /// into memory the caller owns, as little-endian scalars — the bytes
    /// `T::write_slice_exact` makes of the field, at any alignment, on any
    /// host — rather than into a field of its own: the last level's rows are
    /// assembled in it. Once the walk reaches level `k`, `out` is handed the
    /// answer's dims, which the plan fixes, and returns memory of `T::BYTES`
    /// a point for them; so the answer is not held while the coarser levels
    /// decode. An error from level `k` leaves that memory part-written.
    ///
    /// # Panics
    /// If the memory `out` returns is not the answer's size.
    pub fn decode_to_le<'o>(mut self, k: u8, out: impl FnOnce(Dims) -> &'o mut [u8]) -> Result<()> {
        let dims = self.dims_to(k)?;
        // Level 1 is a grid whole, from its SZ3 stream or the memo.
        while self.decoded + 1 < k.max(2) {
            self.step()?;
        }
        let out = out(dims);
        assert_eq!(out.len(), dims.len() * T::BYTES, "the output holds {} points", dims.len());
        if k == 1 {
            for (v, cell) in self.grid.iter().zip(out.chunks_exact_mut(T::BYTES)) {
                v.store_le(cell);
            }
            Ok(())
        } else {
            self.refine(LeBytes(out))
        }
    }

    /// Decode the next level's box from the last one's, into a grid of its
    /// own.
    fn step(&mut self) -> Result<()> {
        let (t, k) = (Instant::now(), self.decoded as usize);
        if k == 0 {
            let mut stage = trace::span("level1");
            let decode = || decode_level1::<T, S>(self.source, &self.plan);
            let (grid, decoded) = match self.memo {
                None => (Cow::Owned(decode()?), true),
                Some(memo) => {
                    let fill = memo.get().is_none();
                    stage.attr("memo", if fill { "fill" } else { "hit" });
                    if fill {
                        // First walks that race each decode the same grid;
                        // the memo keeps one of them.
                        let _ = memo.set(decode()?);
                    }
                    let grid = memo.get().expect("the memo is filled").as_slice();
                    assert_eq!(grid.len(), self.boxes[0].len(), "the memo holds another level 1");
                    (Cow::Borrowed(grid), fill)
                }
            };
            self.grid = grid;
            // A walk that resumes from a filled memo reads 0 here.
            if decoded {
                self.breakdown.l1_sz3 = t.elapsed().as_secs_f64();
            }
            self.decoded += 1;
        } else {
            let mut grid = vec![T::default(); self.boxes[k].len()];
            let allocated = t.elapsed().as_secs_f64();
            self.refine(&mut grid[..])?;
            self.grid = Cow::Owned(grid);
            self.breakdown.levels.last_mut().expect("a level was decoded").reconstruct = allocated;
        }
        Ok(())
    }

    /// Decode the next level's box, level 2 or finer, from the last one's
    /// into `out`.
    fn refine(&mut self, out: impl Points<T>) -> Result<()> {
        let k = self.decoded as usize;
        let level = &self.plan.levels[k];
        let mut stage = trace::span("level_decode");
        stage.attr("level", level.index);
        let (cbox, obox) = (&self.boxes[k - 1], &self.boxes[k]);
        let times = decode_box(self.source, level, &self.grid, cbox, obox, out)?;
        self.breakdown.levels.push(times);
        self.decoded += 1;
        Ok(())
    }

    /// `grid`, the box of the last level decoded, as a field.
    fn field(&self, grid: Vec<T>) -> Field<T> {
        let ndim = self.source.header().dims.ndim();
        Field::from_vec(self.boxes[self.decoded as usize - 1].dims(ndim), grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::with_threads;
    use crate::{StzCompressor, StzConfig};

    fn field() -> Field<f32> {
        Field::from_fn(Dims::d3(20, 24, 28), |z, y, x| {
            ((z as f32) * 0.2).sin() + ((y as f32) * 0.15).cos() * ((x as f32) * 0.1).sin()
        })
    }

    #[test]
    fn stepwise_matches_direct_levels() {
        let f = field();
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let mut dec = archive.progressive();
        for k in 1..=3u8 {
            assert_eq!(dec.next_dims(), Some(archive.plan().preview_dims(k)));
            let step = dec.next_level().unwrap().unwrap();
            let direct = archive.decompress_level(k).unwrap();
            assert_eq!(step, direct, "level {k}");
        }
        assert!(dec.is_complete());
        assert_eq!(dec.next_level().unwrap(), None);
    }

    #[test]
    fn decode_to_skips_intermediates() {
        let f = field();
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let p2 = archive.progressive().decode_to(2).unwrap();
        assert_eq!(p2, archive.decompress_level(2).unwrap());
        // From a decoder part-way down: the rest of the walk.
        let mut dec = archive.progressive();
        dec.next_level().unwrap();
        assert_eq!(dec.levels_decoded(), 1);
        assert_eq!(dec.decode_to(3).unwrap(), archive.decompress().unwrap());
    }

    #[test]
    fn decode_to_an_out_of_range_level_is_an_error() {
        let f = field();
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let text = |k, steps| {
            let mut dec = archive.progressive();
            for _ in 0..steps {
                dec.next_level().unwrap();
            }
            dec.decode_to(k).unwrap_err().to_string()
        };
        for (k, steps) in [(0, 0), (4, 0), (u8::MAX, 0), (0, 2), (1, 1), (2, 2), (3, 3), (4, 3)] {
            let want = format!("corrupt stream: requested level {k} of a 3-level archive");
            assert_eq!(text(k, steps), want, "level {k} after {steps} step(s)");
        }
        assert_eq!(archive.decompress_level(0).unwrap_err().to_string(), text(0, 0));
        assert_eq!(archive.decompress_level(4).unwrap_err().to_string(), text(4, 0));
    }

    #[test]
    fn next_bytes_accounts_for_level_streams() {
        let f = field();
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        let mut dec = archive.progressive();
        let mut total = 0usize;
        while !dec.is_complete() {
            total += dec.next_bytes();
            dec.next_level().unwrap();
        }
        assert_eq!(total, archive.bytes_through_level(3));
        // The coarsest level must be a small fraction of the stream.
        assert!(archive.bytes_through_level(1) < archive.compressed_len() / 4);
    }

    #[test]
    fn the_level1_span_says_whether_a_walk_filled_the_memo_or_resumed_from_it() {
        let collector = Box::leak(Box::new(trace::TraceCollector::new(true)));
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&field()).unwrap();
        let region = Region::d3(2..9, 3..20, 5..11);
        let memo = |walk: &dyn Fn()| {
            let id = {
                let root = collector.start("test", "request", None);
                walk();
                root.trace_id().unwrap()
            };
            let trace = collector.snapshot().into_iter().find(|t| t.trace_id == id).unwrap();
            let level1: Vec<_> = trace.spans.iter().filter(|s| s.name == "level1").collect();
            assert_eq!(level1.len(), 1, "one level-1 step per walk");
            level1[0].attrs.iter().find(|(k, _)| k == "memo").map(|(_, v)| v.clone())
        };
        let roi = || drop(archive.decompress_region(&region).unwrap());
        assert_eq!(memo(&roi).as_deref(), Some("fill"));
        assert_eq!(memo(&roi).as_deref(), Some("hit"));
        assert_eq!(
            memo(&|| drop(archive.progressive().next_level().unwrap())).as_deref(),
            Some("hit")
        );
        // The public constructor walks without a memo, as over any source.
        assert_eq!(
            memo(&|| drop(ProgressiveDecoder::<f32>::new(&archive).decode_to(3).unwrap())),
            None
        );
    }

    /// `walk` through level `k`, finished into bytes.
    fn into_bytes<T: Scalar>(walk: Result<ProgressiveDecoder<'_, T>>, k: u8) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        walk?.decode_to_le(k, |dims| {
            out = vec![0xA5; dims.len() * T::BYTES];
            &mut out
        })?;
        Ok(out)
    }

    /// Every answer of `archive` — the full field, each level, a region at
    /// odd offsets — into bytes equals its typed decode stored with
    /// `write_slice_exact`, at widths 1 and 4, on a fresh handle and on one
    /// that resumes from its level 1.
    fn check_into_bytes<T: Scalar>(archive: &StzArchive<T>, region: &Region) {
        let levels = archive.num_levels();
        let le = |field: Result<Field<T>>| {
            let mut out = Vec::new();
            T::write_slice_exact(field?.as_slice(), &mut out);
            Ok::<_, CodecError>(out)
        };
        let dims = archive.dims();
        for threads in [1, 4] {
            for handle in ["cold", "warm"] {
                let fresh = archive.clone();
                let a = if handle == "cold" { &fresh } else { archive };
                let on = |f: &dyn Fn() -> Result<Vec<u8>>| with_threads(threads, f);
                let what = format!("{dims} at width {threads} on a {handle} handle");
                let full = on(&|| into_bytes(Ok(a.progressive()), levels));
                assert_eq!(full.unwrap(), le(archive.decompress()).unwrap(), "full, {what}");
                for k in 1..=levels {
                    let level = on(&|| into_bytes(Ok(a.progressive()), k));
                    let want = le(archive.decompress_level(k)).unwrap();
                    assert_eq!(level.unwrap(), want, "level {k}, {what}");
                }
                let roi = on(&|| into_bytes(a.progressive_region(region), levels));
                let want = le(archive.decompress_region(region)).unwrap();
                assert_eq!(roi.unwrap(), want, "region {region:?}, {what}");
                let stepped = on(&|| {
                    let mut walk = a.progressive();
                    walk.next_level()?;
                    into_bytes(Ok(walk), levels)
                });
                assert_eq!(stepped.unwrap(), le(archive.decompress()).unwrap(), "{what}");
            }
        }
    }

    #[test]
    fn the_into_bytes_finish_stores_the_typed_answer_little_endian() {
        let wave = |z: usize, y: usize, x: usize| {
            (z as f64 * 0.31).sin() + (y as f64 * 0.17).cos() * (x as f64 * 0.23).sin()
        };
        for (dims, region) in [
            (Dims::d3(20, 24, 28), Region::d3(3..14, 5..20, 1..26)),
            (Dims::d3(17, 15, 13), Region::d3(1..16, 3..14, 5..12)),
            (Dims::d2(33, 29), Region::d2(7..30, 3..28)),
            (Dims::d1(301), Region::d1(31..250)),
        ] {
            let f32_field = Field::from_fn(dims, |z, y, x| wave(z, y, x) as f32);
            let f64_field = Field::from_fn(dims, wave);
            let compressor = StzCompressor::new(StzConfig::three_level(1e-3));
            check_into_bytes(&compressor.compress(&f32_field).unwrap(), &region);
            check_into_bytes(&compressor.compress(&f64_field).unwrap(), &region);
        }
    }

    #[test]
    fn the_into_bytes_finish_refuses_what_decode_to_refuses() {
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&field()).unwrap();
        for k in [0, 4] {
            let want = archive.progressive().decode_to(k).unwrap_err().to_string();
            let got = into_bytes(Ok(archive.progressive()), k).unwrap_err().to_string();
            assert_eq!(got, want, "level {k}");
        }
        let outside = Region::d3(0..21, 0..4, 0..4);
        let want = archive.decompress_region(&outside).unwrap_err().to_string();
        assert_eq!(
            into_bytes(archive.progressive_region(&outside), 3).unwrap_err().to_string(),
            want
        );
    }

    #[test]
    #[should_panic(expected = "the output holds")]
    fn the_into_bytes_finish_needs_room_for_exactly_its_answer() {
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&field()).unwrap();
        let mut out = Vec::new();
        let _ = archive.progressive().decode_to_le(2, |dims| {
            out = vec![0; dims.len() * 4 + 1];
            &mut out
        });
    }

    #[test]
    fn parallel_stepping_matches_serial() {
        let f = field();
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&f).unwrap();
        for threads in [1, 2, 8] {
            let (mut a, mut b) = (archive.progressive(), archive.progressive());
            while let Some(pa) = with_threads(1, || a.next_level()).unwrap() {
                let pb = with_threads(threads, || b.next_level()).unwrap().unwrap();
                assert_eq!(pa, pb, "{threads} thread(s)");
            }
            assert!(b.is_complete());
        }
    }
}
