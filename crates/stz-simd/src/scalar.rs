//! Portable reference implementation of every kernel.
//!
//! This module *defines* the semantics: each vector lane must reproduce
//! these exact operations, in this exact order, per output element. The
//! scalar kernels mirror the original per-point loops in `stz-core`
//! (`predict_point`; `StencilOffsets::predict_interior` is [`predict_one`]),
//! `stz-codec` (`LinearQuantizer::quantize`/`reconstruct`) and `stz-sz3`
//! (`quantize_scalar`/`reconstruct_scalar`) operation for operation, so
//! `STZ_SIMD=scalar` and the pre-SIMD code paths agree bit-for-bit too.

use crate::{Bound, GridElem, Stencil};

/// Predict the grid point at flattened index `gidx`.
///
/// The body of `StencilOffsets::predict_interior`: every tap is widened to
/// `f64` as it is loaded (exact), corner sums run in ascending bit order,
/// then `wi*si + wo*so` (cubic) or `s / corners` (linear). An `f32` grid
/// therefore predicts exactly what its widened `f64` copy would. The caller
/// guarantees every stencil tap of the point is in bounds.
#[inline(always)]
pub fn predict_one<S: GridElem>(buf: &[S], gidx: usize, st: &Stencil) -> f64 {
    let base = gidx as isize;
    if st.cubic {
        let mut si = 0.0;
        let mut so = 0.0;
        for bits in 0..st.corners {
            si += buf[(base + st.inner[bits]) as usize].widen();
            so += buf[(base + st.outer[bits]) as usize].widen();
        }
        st.wi * si + st.wo * so
    } else {
        let mut s = 0.0;
        for bits in 0..st.corners {
            s += buf[(base + st.inner[bits]) as usize].widen();
        }
        s / st.corners as f64
    }
}

/// Points per step of the portable dense kernels: long enough for the
/// compiler to vectorise the unit-stride tap loops at the target's width.
const BLOCK: usize = 8;

/// [`predict_one`] for the `n <= BLOCK` consecutive points from `at` of a
/// dense grid, one tap at a time across the points: every point still sums
/// its own taps in ascending bit order from `0.0`.
#[inline(always)]
fn predict_block<S: GridElem>(prev: &[S], at: usize, st: &Stencil, n: usize) -> [f64; BLOCK] {
    let sum = |offsets: &[isize]| {
        let mut s = [0.0; BLOCK];
        for &off in offsets {
            let taps = &prev[(at as isize + off) as usize..][..n];
            for (s, t) in s.iter_mut().zip(taps) {
                *s += t.widen();
            }
        }
        s
    };
    let mut pred = sum(&st.inner[..st.corners]);
    if st.cubic {
        let so = sum(&st.outer[..st.corners]);
        for (p, so) in pred.iter_mut().zip(so) {
            *p = st.wi * *p + st.wo * so;
        }
    } else {
        for p in &mut pred {
            *p /= st.corners as f64;
        }
    }
    pred
}

/// The signed code of a stream symbol as an `f64`: `symbol − 1`,
/// un-zigzagged. The code of a `u32` symbol always fits an `i32`, and
/// staying in 32 bits lets a lane convert with packed `i32 → f64`; symbol 0
/// (an escape) comes out as `i32::MIN`.
#[inline(always)]
pub fn code_of_symbol(symbol: u32) -> f64 {
    let u = symbol.wrapping_sub(1);
    (((u >> 1) as i32) ^ -((u & 1) as i32)) as f64
}

/// The stream symbol of a signed code: `zigzag(code) + 1`, exact in `u32`
/// for `|code| <= 2^30`.
#[inline(always)]
pub fn symbol_of_code(code: i32) -> u32 {
    (((code << 1) ^ (code >> 31)) as u32).wrapping_add(1)
}

/// Portable [`crate::predict_recon_dense`]:
/// `out[i] = (predict(base + i) + two_eb * code(symbols[i]))` rounded to `S`.
pub fn predict_recon_dense<S: GridElem>(
    prev: &[S],
    base: usize,
    st: &Stencil,
    symbols: &[u32],
    two_eb: f64,
    out: &mut [S],
) {
    for (b, (out, symbols)) in out.chunks_mut(BLOCK).zip(symbols.chunks(BLOCK)).enumerate() {
        let pred = predict_block(prev, base + b * BLOCK, st, out.len());
        for ((o, &s), p) in out.iter_mut().zip(symbols).zip(pred) {
            *o = S::narrow(p + two_eb * code_of_symbol(s));
        }
    }
}

/// Portable [`crate::predict_quantize_dense`]: [`quantize_one_f32`] /
/// [`quantize_one_f64`] (by `S`) of every point against its dense
/// prediction, the outcome stored as a symbol (0 = escape).
pub fn predict_quantize_dense<S: GridElem>(
    prev: &[S],
    base: usize,
    st: &Stencil,
    actuals: &[S],
    bound: &Bound,
    symbols: &mut [u32],
    mut recon: Option<&mut [S]>,
) -> bool {
    let quantize = if S::ROUND32 { quantize_one_f32 } else { quantize_one_f64 };
    let mut escaped = false;
    for (b, actuals) in actuals.chunks(BLOCK).enumerate() {
        let at = b * BLOCK;
        let pred = predict_block(prev, base + at, st, actuals.len());
        for (i, (a, p)) in actuals.iter().zip(pred).enumerate() {
            let (q, r, escape) = quantize(a.widen(), p, bound.eb, bound.two_eb, bound.radius);
            symbols[at + i] = if escape { 0 } else { symbol_of_code(q as i32) };
            if let Some(recon) = recon.as_deref_mut() {
                recon[at + i] = S::narrow(r);
            }
            escaped |= escape;
        }
    }
    escaped
}

/// `out[i] = preds[i] + two_eb * codes[i]` — the f64 reconstruction of
/// `LinearQuantizer::reconstruct` (the `T = f64` round-trip is identity).
pub fn recon_run_f64(preds: &[f64], codes: &[f64], two_eb: f64, out: &mut [f64]) {
    for i in 0..out.len() {
        out[i] = preds[i] + two_eb * codes[i];
    }
}

/// [`recon_run_f64`] rounded through `f32`, as `reconstruct_scalar::<f32>`
/// does (`T::from_f64(..).to_f64()` = `as f32 as f64`).
pub fn recon_run_f32(preds: &[f64], codes: &[f64], two_eb: f64, out: &mut [f64]) {
    for i in 0..out.len() {
        out[i] = (preds[i] + two_eb * codes[i]) as f32 as f64;
    }
}

/// Fused predict + f64 reconstruct over the stride-2 points of `buf`:
/// `out[i] = predict_one(buf, base + 2*i) + two_eb * codes[i]`.
pub fn predict_recon_run_f64<S: GridElem>(
    buf: &[S],
    base: usize,
    st: &Stencil,
    codes: &[f64],
    two_eb: f64,
    out: &mut [f64],
) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = predict_one(buf, base + 2 * i, st) + two_eb * codes[i];
    }
}

/// [`predict_recon_run_f64`] rounded through `f32`.
pub fn predict_recon_run_f32<S: GridElem>(
    buf: &[S],
    base: usize,
    st: &Stencil,
    codes: &[f64],
    two_eb: f64,
    out: &mut [f64],
) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = (predict_one(buf, base + 2 * i, st) + two_eb * codes[i]) as f32 as f64;
    }
}

/// One point of the f64 linear quantizer:
/// `(q, reconstruction, escape)`. Mirrors `LinearQuantizer::quantize`
/// exactly; `q + 0.0` reproduces the original's `q as i64 as f64`
/// round-trip (which only normalizes `-0.0` for in-radius codes).
#[inline(always)]
pub fn quantize_one_f64(
    actual: f64,
    pred: f64,
    eb: f64,
    two_eb: f64,
    radius_f: f64,
) -> (f64, f64, bool) {
    if !actual.is_finite() || !pred.is_finite() {
        return (0.0, 0.0, true);
    }
    let diff = actual - pred;
    let q = (diff / two_eb).round();
    if q.abs() > radius_f {
        return (0.0, 0.0, true);
    }
    let q = q + 0.0;
    let reconstructed = pred + two_eb * q;
    if (reconstructed - actual).abs() > eb {
        return (q, reconstructed, true);
    }
    (q, reconstructed, false)
}

/// One point of the f32-rounded quantizer (`quantize_scalar::<f32>`): the
/// f64 outcome, re-rounded through `f32` and re-checked against the bound.
#[inline(always)]
pub fn quantize_one_f32(
    actual: f64,
    pred: f64,
    eb: f64,
    two_eb: f64,
    radius_f: f64,
) -> (f64, f64, bool) {
    let (q, reconstructed, escape) = quantize_one_f64(actual, pred, eb, two_eb, radius_f);
    if escape {
        return (q, reconstructed, true);
    }
    let rounded = reconstructed as f32 as f64;
    if (rounded - actual).abs() > eb {
        return (q, rounded, true);
    }
    (q, rounded, false)
}

/// Batch [`quantize_one_f64`]: fills `q_out`, `recon_out` and
/// `escape_out` (0 = coded, 1 = escape) for each `actuals[i]`/`preds[i]`.
#[allow(clippy::too_many_arguments)]
pub fn quantize_run_f64(
    actuals: &[f64],
    preds: &[f64],
    eb: f64,
    two_eb: f64,
    radius_f: f64,
    q_out: &mut [f64],
    recon_out: &mut [f64],
    escape_out: &mut [u8],
) {
    for i in 0..actuals.len() {
        let (q, r, e) = quantize_one_f64(actuals[i], preds[i], eb, two_eb, radius_f);
        q_out[i] = q;
        recon_out[i] = r;
        escape_out[i] = e as u8;
    }
}

/// Batch [`quantize_one_f32`].
#[allow(clippy::too_many_arguments)]
pub fn quantize_run_f32(
    actuals: &[f64],
    preds: &[f64],
    eb: f64,
    two_eb: f64,
    radius_f: f64,
    q_out: &mut [f64],
    recon_out: &mut [f64],
    escape_out: &mut [u8],
) {
    for i in 0..actuals.len() {
        let (q, r, e) = quantize_one_f32(actuals[i], preds[i], eb, two_eb, radius_f);
        q_out[i] = q;
        recon_out[i] = r;
        escape_out[i] = e as u8;
    }
}

/// `out[i] = src[start + 2*i]` (stride-2 gather along x).
pub fn gather2_f64(src: &[f64], start: usize, out: &mut [f64]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = src[start + 2 * i];
    }
}

/// `out[i] = src[start + 2*i]`.
pub fn gather2_f32(src: &[f32], start: usize, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = src[start + 2 * i];
    }
}

/// `dst[start + 2*i] = src[i]` (stride-2 scatter along x).
pub fn scatter2_f64(src: &[f64], dst: &mut [f64], start: usize) {
    for (i, &v) in src.iter().enumerate() {
        dst[start + 2 * i] = v;
    }
}

/// `dst[start + 2*i] = src[i]`.
pub fn scatter2_f32(src: &[f32], dst: &mut [f32], start: usize) {
    for (i, &v) in src.iter().enumerate() {
        dst[start + 2 * i] = v;
    }
}

/// `out[i] = src[i] as f32` (IEEE round-to-nearest-even narrowing).
pub fn narrow_run(src: &[f64], out: &mut [f32]) {
    for i in 0..src.len() {
        out[i] = src[i] as f32;
    }
}

/// `out[i] = src[i] as f64` (exact widening).
pub fn widen_run(src: &[f32], out: &mut [f64]) {
    for i in 0..src.len() {
        out[i] = src[i] as f64;
    }
}

/// Reflected CRC-32/IEEE polynomial.
pub(crate) const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing tables: `CRC_TABLES[0]` is the classic byte-at-a-time table and
/// `CRC_TABLES[k][b]` is the register after byte `b` followed by `k` zero
/// bytes, so sixteen input bytes fold into the register with sixteen
/// independent lookups instead of a sixteen-deep dependency chain.
const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

/// Fold `bytes` into a CRC-32/IEEE register (slicing-by-16).
///
/// `state` is the raw shift register, not a finished checksum: a fresh
/// stream starts from `0xFFFF_FFFF` and the checksum of everything folded so
/// far is `state ^ 0xFFFF_FFFF`. Integer-only, so every lane that falls back
/// here agrees bit for bit by construction.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = state;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let w = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let (w0, w1, w2, w3) = (w(0) ^ c, w(4), w(8), w(12));
        let fold = |w: u32, hi: usize| {
            t[hi][(w & 0xFF) as usize]
                ^ t[hi - 1][((w >> 8) & 0xFF) as usize]
                ^ t[hi - 2][((w >> 16) & 0xFF) as usize]
                ^ t[hi - 3][(w >> 24) as usize]
        };
        c = fold(w0, 15) ^ fold(w1, 11) ^ fold(w2, 7) ^ fold(w3, 3);
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}
