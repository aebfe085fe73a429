//! x86_64 lanes: SSE2 (baseline) and AVX2 (runtime-detected).
//!
//! Byte-identity notes (see the crate docs for the general contract):
//!
//! * Packed `add/sub/mul/div/cmp` round exactly like their scalar
//!   counterparts, and no FMA is ever emitted (`fma` is a separate target
//!   feature and these functions only enable `avx2`).
//! * `f64::round` (round half away from zero) has no packed instruction;
//!   [`round_away_pd`] emulates it exactly from truncation: the fraction
//!   `x - trunc(x)` is exact by Sterbenz's lemma, so comparing it against
//!   0.5 reproduces the scalar tie-away decision bit-for-bit.
//! * SSE2 has neither `roundpd` nor a packed f64 truncation, so the
//!   quantizer and scatter stay scalar under SSE2; the remaining kernels
//!   (predict, reconstruct, gather, narrow, widen) vectorize 2-wide.
//! * `cvtpd2ps`/`cvtps2pd` are the packed forms of the same conversions
//!   rustc emits for scalar `as` casts (`cvtsd2ss`/`cvtss2sd`).
//!
//! The codec's rows run through the *dense* kernels
//! ([`predict_recon_dense_avx2`], [`predict_quantize_dense_avx2`]): every
//! tap of a run of points is a run of the previous level's grid, so a tap
//! for four points is one unit-stride load — `vcvtps2pd (mem)` from an `f32`
//! grid, a plain load from an `f64` one — with no shuffle and no permute,
//! and a vector reads exactly what its four points would. A run that is no
//! multiple of four ends on a vector that overlaps the one before it; runs
//! shorter than four go to the portable kernel, which is also what SSE2
//! runs (unit stride is what the compiler vectorises by itself). Symbols
//! come in and go out as `u32`, the reconstruction leaves as the grid's
//! element: the store is the rounding.
//!
//! The stride-2 kernels the codec used before stay, over `f64` grids, for
//! their benchmark entry points. Their loads read *pairs* (evens and the odd
//! elements between them), so a full-width vector may touch one element
//! past the last even index; [`vec_points`] bounds the vector portion and
//! the scalar reference finishes the run.
//!
//! The dense kernels are generic over the grid's element ([`GridElem`]), and
//! every add, multiply and divide sees the operands the `f64` grid would
//! supply.
//!
//! Every function that executes a 256-bit instruction must leave the upper
//! halves of the YMM registers clean: LLVM inserts `vzeroupper` before the
//! returns of a function that names a YMM *register*, but not when every
//! 256-bit operation takes its operand from memory (`vcvtpd2ps (mem), %xmm`),
//! and the CPU then runs all later legacy-SSE code — libm, for one — many
//! times slower. [`narrow_run_avx2`] is that case and issues its own; the
//! dense kernels keep their sums and masks in registers, and the test that
//! reads `XGETBV` after every kernel holds them to it.

#![allow(unsafe_op_in_unsafe_fn)]

use crate::kernels::{vec_points, Bound, GridElem, Stencil};
use crate::scalar;
use std::arch::x86_64::*;

const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;

/// `[p[0], p[2]]`.
///
/// # Safety
/// `p[0..4]` must be readable.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn load_evens_sse2(p: *const f64) -> __m128d {
    _mm_shuffle_pd::<0b00>(_mm_loadu_pd(p), _mm_loadu_pd(p.add(2)))
}

/// `[p[0], p[4], p[2], p[6]]`: the four even elements in the mixed order
/// [`fix_evens_pd`] straightens out.
///
/// # Safety
/// `p[0..8]` must be readable and the CPU must support AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_evens_mixed_avx2(p: *const f64) -> __m256d {
    // One in-lane shuffle, no cross-lane permute:
    // [v0_0, v1_0, v0_2, v1_2] = [e0, e2, e1, e3].
    _mm256_shuffle_pd::<0b0000>(_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)))
}

/// Load `[p[0], p[2], p[4], p[6]]`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_evens_pd(p: *const f64) -> __m256d {
    fix_evens_pd(load_evens_mixed_avx2(p))
}

/// Swap the middle pair of a [`load_evens_mixed_avx2`] vector:
/// `[e0, e2, e1, e3]` -> `[e0, e1, e2, e3]`.
///
/// A pure element rearrangement, so it commutes with elementwise add/mul:
/// stencil kernels sum several mixed vectors, apply the weights, and permute
/// **once** at the end instead of per tap (the cross-lane permute is the
/// port-5 bottleneck of the stride-2 stencil loop). The deferred computation
/// is bit-identical — each output element sees exactly the same scalar
/// operations.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fix_evens_pd(v: __m256d) -> __m256d {
    _mm256_permute4x64_pd::<0xD8>(v)
}

/// The dense loads and stores of one grid element type: the part of
/// [`GridElem`] that only this module can write. Public in a private module,
/// which also seals `GridElem` to `f32` and `f64`.
pub trait Loads: Sized {
    /// `p[0..4]`, widened to `f64`.
    ///
    /// # Safety
    /// `p[0..4]` must be readable and the CPU must support AVX2.
    unsafe fn load4_avx2(p: *const Self) -> __m256d;

    /// Round `v` to this type into `p[0..4]`.
    ///
    /// # Safety
    /// `p[0..4]` must be writable and the CPU must support AVX2.
    unsafe fn store4_avx2(p: *mut Self, v: __m256d);
}

impl Loads for f64 {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4_avx2(p: *const f64) -> __m256d {
        _mm256_loadu_pd(p)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4_avx2(p: *mut f64, v: __m256d) {
        _mm256_storeu_pd(p, v)
    }
}

impl Loads for f32 {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4_avx2(p: *const f32) -> __m256d {
        _mm256_cvtps_pd(_mm_loadu_ps(p))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4_avx2(p: *mut f32, v: __m256d) {
        _mm_storeu_ps(p, _mm256_cvtpd_ps(v))
    }
}

/// # Safety
/// Every stencil tap of every point must lie inside `buf`,
/// `codes.len() == out.len()` (the dispatching wrapper asserts both) and the
/// CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn predict_recon_run_avx2(
    buf: &[f64],
    base: usize,
    st: &Stencil,
    codes: &[f64],
    two_eb: f64,
    out: &mut [f64],
    round32: bool,
) {
    const W: usize = 4;
    let (_, hi) = st.offset_range();
    let v = vec_points(base, hi, buf.len(), out.len(), W);
    let p = buf.as_ptr();
    let cp = codes.as_ptr();
    let o = out.as_mut_ptr();
    let v2eb = _mm256_set1_pd(two_eb);
    if st.cubic {
        let wi = _mm256_set1_pd(st.wi);
        let wo = _mm256_set1_pd(st.wo);
        let mut i = 0;
        if st.corners == 2 {
            // 1D cubic (the decode hot path): fixed trip count lets the
            // compiler schedule the four tap loads together. The leading
            // `0.0 +` of the accumulator is kept so the operation sequence
            // (and signed zeros) match the generic loop exactly.
            let z = _mm256_setzero_pd();
            let (i0, i1) = (st.inner[0], st.inner[1]);
            let (o0, o1) = (st.outer[0], st.outer[1]);
            while i < v {
                let c = p.add(base + 2 * i);
                let si = _mm256_add_pd(
                    _mm256_add_pd(z, load_evens_mixed_avx2(c.offset(i0))),
                    load_evens_mixed_avx2(c.offset(i1)),
                );
                let so = _mm256_add_pd(
                    _mm256_add_pd(z, load_evens_mixed_avx2(c.offset(o0))),
                    load_evens_mixed_avx2(c.offset(o1)),
                );
                let pred =
                    fix_evens_pd(_mm256_add_pd(_mm256_mul_pd(wi, si), _mm256_mul_pd(wo, so)));
                let mut r = _mm256_add_pd(pred, _mm256_mul_pd(v2eb, _mm256_loadu_pd(cp.add(i))));
                if round32 {
                    r = _mm256_cvtps_pd(_mm256_cvtpd_ps(r));
                }
                _mm256_storeu_pd(o.add(i), r);
                i += W;
            }
        }
        while i < v {
            let c = p.add(base + 2 * i);
            let mut si = _mm256_setzero_pd();
            let mut so = _mm256_setzero_pd();
            for bits in 0..st.corners {
                si = _mm256_add_pd(si, load_evens_mixed_avx2(c.offset(st.inner[bits])));
                so = _mm256_add_pd(so, load_evens_mixed_avx2(c.offset(st.outer[bits])));
            }
            let pred = fix_evens_pd(_mm256_add_pd(_mm256_mul_pd(wi, si), _mm256_mul_pd(wo, so)));
            let mut r = _mm256_add_pd(pred, _mm256_mul_pd(v2eb, _mm256_loadu_pd(cp.add(i))));
            if round32 {
                r = _mm256_cvtps_pd(_mm256_cvtpd_ps(r));
            }
            _mm256_storeu_pd(o.add(i), r);
            i += W;
        }
    } else {
        let div = _mm256_set1_pd(st.corners as f64);
        let mut i = 0;
        while i < v {
            let c = p.add(base + 2 * i);
            let mut s = _mm256_setzero_pd();
            for bits in 0..st.corners {
                s = _mm256_add_pd(s, load_evens_mixed_avx2(c.offset(st.inner[bits])));
            }
            let pred = fix_evens_pd(_mm256_div_pd(s, div));
            let mut r = _mm256_add_pd(pred, _mm256_mul_pd(v2eb, _mm256_loadu_pd(cp.add(i))));
            if round32 {
                r = _mm256_cvtps_pd(_mm256_cvtpd_ps(r));
            }
            _mm256_storeu_pd(o.add(i), r);
            i += W;
        }
    }
    if round32 {
        scalar::predict_recon_run_f32(buf, base + 2 * v, st, &codes[v..], two_eb, &mut out[v..]);
    } else {
        scalar::predict_recon_run_f64(buf, base + 2 * v, st, &codes[v..], two_eb, &mut out[v..]);
    }
}

/// # Safety
/// Every stencil tap of every point must lie inside `buf` and
/// `codes.len() == out.len()` (the dispatching wrapper asserts both).
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn predict_recon_run_sse2(
    buf: &[f64],
    base: usize,
    st: &Stencil,
    codes: &[f64],
    two_eb: f64,
    out: &mut [f64],
    round32: bool,
) {
    const W: usize = 2;
    let (_, hi) = st.offset_range();
    let v = vec_points(base, hi, buf.len(), out.len(), W);
    let p = buf.as_ptr();
    let cp = codes.as_ptr();
    let o = out.as_mut_ptr();
    let v2eb = _mm_set1_pd(two_eb);
    if st.cubic {
        let wi = _mm_set1_pd(st.wi);
        let wo = _mm_set1_pd(st.wo);
        let mut i = 0;
        while i < v {
            let c = p.add(base + 2 * i);
            let mut si = _mm_setzero_pd();
            let mut so = _mm_setzero_pd();
            for bits in 0..st.corners {
                si = _mm_add_pd(si, load_evens_sse2(c.offset(st.inner[bits])));
                so = _mm_add_pd(so, load_evens_sse2(c.offset(st.outer[bits])));
            }
            let pred = _mm_add_pd(_mm_mul_pd(wi, si), _mm_mul_pd(wo, so));
            let mut r = _mm_add_pd(pred, _mm_mul_pd(v2eb, _mm_loadu_pd(cp.add(i))));
            if round32 {
                r = _mm_cvtps_pd(_mm_cvtpd_ps(r));
            }
            _mm_storeu_pd(o.add(i), r);
            i += W;
        }
    } else {
        let div = _mm_set1_pd(st.corners as f64);
        let mut i = 0;
        while i < v {
            let c = p.add(base + 2 * i);
            let mut s = _mm_setzero_pd();
            for bits in 0..st.corners {
                s = _mm_add_pd(s, load_evens_sse2(c.offset(st.inner[bits])));
            }
            let pred = _mm_div_pd(s, div);
            let mut r = _mm_add_pd(pred, _mm_mul_pd(v2eb, _mm_loadu_pd(cp.add(i))));
            if round32 {
                r = _mm_cvtps_pd(_mm_cvtpd_ps(r));
            }
            _mm_storeu_pd(o.add(i), r);
            i += W;
        }
    }
    if round32 {
        scalar::predict_recon_run_f32(buf, base + 2 * v, st, &codes[v..], two_eb, &mut out[v..]);
    } else {
        scalar::predict_recon_run_f64(buf, base + 2 * v, st, &codes[v..], two_eb, &mut out[v..]);
    }
}

/// Exact `f64::round` (half away from zero): `t = trunc(x)` and the
/// fraction `x − t` is exact (Sterbenz), so `|fraction| ≥ 0.5` decides
/// the away-step. Matches the scalar result for every input, including
/// ±0.5, the nextafter(0.5) neighbors, values ≥ 2^52, ±0, NaN and ±inf.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn round_away_pd(x: __m256d) -> __m256d {
    let sign = _mm256_set1_pd(-0.0);
    let t = _mm256_round_pd::<TRUNC>(x);
    let f = _mm256_sub_pd(x, t);
    let absf = _mm256_andnot_pd(sign, f);
    let away = _mm256_cmp_pd::<_CMP_GE_OQ>(absf, _mm256_set1_pd(0.5));
    let one_signed = _mm256_or_pd(_mm256_and_pd(sign, x), _mm256_set1_pd(1.0));
    _mm256_add_pd(t, _mm256_and_pd(away, one_signed))
}

/// Four points of the quantizer, [`scalar::quantize_one_f64`] (or `_f32`
/// with `round32`) on each: the code as an `f64`, the reconstruction and the
/// escape mask. The first two mean nothing where the mask is set.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn quantize4(
    a: __m256d,
    p: __m256d,
    veb: __m256d,
    v2eb: __m256d,
    vrad: __m256d,
    round32: bool,
) -> (__m256d, __m256d, __m256d) {
    let sign = _mm256_set1_pd(-0.0);
    let inf = _mm256_set1_pd(f64::INFINITY);
    // Escape on non-finite input: |x| NLT inf is true for ±inf and NaN.
    let nf_a = _mm256_cmp_pd::<_CMP_NLT_UQ>(_mm256_andnot_pd(sign, a), inf);
    let nf_p = _mm256_cmp_pd::<_CMP_NLT_UQ>(_mm256_andnot_pd(sign, p), inf);
    let mut esc = _mm256_or_pd(nf_a, nf_p);
    let diff = _mm256_sub_pd(a, p);
    let q = round_away_pd(_mm256_div_pd(diff, v2eb));
    let absq = _mm256_andnot_pd(sign, q);
    esc = _mm256_or_pd(esc, _mm256_cmp_pd::<_CMP_GT_OQ>(absq, vrad));
    // q + 0.0 reproduces the scalar `q as i64 as f64` round-trip
    // (normalizing -0.0); LLVM cannot fold it away without fast-math.
    let qn = _mm256_add_pd(q, _mm256_setzero_pd());
    let recon = _mm256_add_pd(p, _mm256_mul_pd(v2eb, qn));
    let err = _mm256_andnot_pd(sign, _mm256_sub_pd(recon, a));
    esc = _mm256_or_pd(esc, _mm256_cmp_pd::<_CMP_GT_OQ>(err, veb));
    if !round32 {
        return (qn, recon, esc);
    }
    let r32 = _mm256_cvtps_pd(_mm256_cvtpd_ps(recon));
    let err32 = _mm256_andnot_pd(sign, _mm256_sub_pd(r32, a));
    (qn, r32, _mm256_or_pd(esc, _mm256_cmp_pd::<_CMP_GT_OQ>(err32, veb)))
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn quantize_run_avx2(
    actuals: &[f64],
    preds: &[f64],
    eb: f64,
    two_eb: f64,
    radius_f: f64,
    q_out: &mut [f64],
    recon_out: &mut [f64],
    escape_out: &mut [u8],
    round32: bool,
) {
    let n = actuals.len();
    let veb = _mm256_set1_pd(eb);
    let v2eb = _mm256_set1_pd(two_eb);
    let vrad = _mm256_set1_pd(radius_f);
    let mut i = 0;
    while i + 4 <= n {
        let a = _mm256_loadu_pd(actuals.as_ptr().add(i));
        let p = _mm256_loadu_pd(preds.as_ptr().add(i));
        let (qn, r, esc) = quantize4(a, p, veb, v2eb, vrad, round32);
        _mm256_storeu_pd(q_out.as_mut_ptr().add(i), qn);
        _mm256_storeu_pd(recon_out.as_mut_ptr().add(i), r);
        let m = _mm256_movemask_pd(esc) as u32;
        for j in 0..4 {
            *escape_out.get_unchecked_mut(i + j) = ((m >> j) & 1) as u8;
        }
        i += 4;
    }
    if round32 {
        scalar::quantize_run_f32(
            &actuals[i..],
            &preds[i..],
            eb,
            two_eb,
            radius_f,
            &mut q_out[i..],
            &mut recon_out[i..],
            &mut escape_out[i..],
        );
    } else {
        scalar::quantize_run_f64(
            &actuals[i..],
            &preds[i..],
            eb,
            two_eb,
            radius_f,
            &mut q_out[i..],
            &mut recon_out[i..],
            &mut escape_out[i..],
        );
    }
}

/// The sum of the first `K` `offsets` taps of each of the four dense-grid
/// points at `c`, ascending from `0.0` as [`scalar::predict_one`] sums them.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sum_taps4<S: GridElem, const K: usize>(c: *const S, offsets: &[isize; 8]) -> __m256d {
    let mut s = _mm256_setzero_pd();
    for &off in &offsets[..K] {
        s = _mm256_add_pd(s, S::load4_avx2(c.offset(off)));
    }
    s
}

/// [`scalar::predict_one`] of the four dense-grid points at `c`, for a
/// stencil of `K` corners: one unit-stride load per tap, no rearrangement.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn predict4<S: GridElem, const K: usize>(c: *const S, st: &Stencil) -> __m256d {
    let si = sum_taps4::<S, K>(c, &st.inner);
    if st.cubic {
        let so = sum_taps4::<S, K>(c, &st.outer);
        _mm256_add_pd(
            _mm256_mul_pd(_mm256_set1_pd(st.wi), si),
            _mm256_mul_pd(_mm256_set1_pd(st.wo), so),
        )
    } else {
        _mm256_div_pd(si, _mm256_set1_pd(K as f64))
    }
}

/// The next chunk of a dense run of `n >= 4` points after the one at `i`,
/// if any. A run that is no multiple of four ends on a chunk that overlaps
/// the one before it: input and output are different buffers, so it stores
/// again the values it stored the first time.
#[inline(always)]
fn next_chunk(i: usize, n: usize) -> Option<usize> {
    (i + 4 < n).then(|| (i + 4).min(n - 4))
}

/// # Safety
/// Every stencil tap of every point must lie inside `prev`,
/// `symbols.len() == out.len()` (the dispatching wrapper asserts both) and
/// the CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn predict_recon_dense_avx2<S: GridElem>(
    prev: &[S],
    base: usize,
    st: &Stencil,
    symbols: &[u32],
    two_eb: f64,
    out: &mut [S],
) {
    match st.corners {
        _ if out.len() < 4 => scalar::predict_recon_dense(prev, base, st, symbols, two_eb, out),
        2 => predict_recon_dense_k::<S, 2>(prev, base, st, symbols, two_eb, out),
        4 => predict_recon_dense_k::<S, 4>(prev, base, st, symbols, two_eb, out),
        8 => predict_recon_dense_k::<S, 8>(prev, base, st, symbols, two_eb, out),
        _ => scalar::predict_recon_dense(prev, base, st, symbols, two_eb, out),
    }
}

/// # Safety
/// As [`predict_recon_dense_avx2`], with `st.corners == K` and at least four
/// points.
#[target_feature(enable = "avx2")]
unsafe fn predict_recon_dense_k<S: GridElem, const K: usize>(
    prev: &[S],
    base: usize,
    st: &Stencil,
    symbols: &[u32],
    two_eb: f64,
    out: &mut [S],
) {
    let st = *st;
    let n = out.len();
    let p = prev.as_ptr().add(base);
    let sp = symbols.as_ptr();
    let o = out.as_mut_ptr();
    let v2eb = _mm256_set1_pd(two_eb);
    let one = _mm_set1_epi32(1);
    let mut chunk = Some(0);
    while let Some(i) = chunk {
        let pred = predict4::<S, K>(p.add(i), &st);
        // `scalar::code_of_symbol` on four symbols.
        let u = _mm_sub_epi32(_mm_loadu_si128(sp.add(i) as *const __m128i), one);
        let odd = _mm_sub_epi32(_mm_setzero_si128(), _mm_and_si128(u, one));
        let code = _mm256_cvtepi32_pd(_mm_xor_si128(_mm_srli_epi32::<1>(u), odd));
        // The store rounds to `S`: the narrowing the row would get anyway.
        S::store4_avx2(o.add(i), _mm256_add_pd(pred, _mm256_mul_pd(v2eb, code)));
        chunk = next_chunk(i, n);
    }
}

/// # Safety
/// Every stencil tap of every point must lie inside `prev`, `actuals`,
/// `symbols` and `recon` must have one length (the dispatching wrapper
/// asserts both) and the CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn predict_quantize_dense_avx2<S: GridElem>(
    prev: &[S],
    base: usize,
    st: &Stencil,
    actuals: &[S],
    bound: &Bound,
    symbols: &mut [u32],
    recon: Option<&mut [S]>,
) -> bool {
    match st.corners {
        _ if actuals.len() < 4 => {
            scalar::predict_quantize_dense(prev, base, st, actuals, bound, symbols, recon)
        }
        2 => predict_quantize_dense_k::<S, 2>(prev, base, st, actuals, bound, symbols, recon),
        4 => predict_quantize_dense_k::<S, 4>(prev, base, st, actuals, bound, symbols, recon),
        8 => predict_quantize_dense_k::<S, 8>(prev, base, st, actuals, bound, symbols, recon),
        _ => scalar::predict_quantize_dense(prev, base, st, actuals, bound, symbols, recon),
    }
}

/// # Safety
/// As [`predict_quantize_dense_avx2`], with `st.corners == K` and at least
/// four points.
#[target_feature(enable = "avx2")]
unsafe fn predict_quantize_dense_k<S: GridElem, const K: usize>(
    prev: &[S],
    base: usize,
    st: &Stencil,
    actuals: &[S],
    bound: &Bound,
    symbols: &mut [u32],
    recon: Option<&mut [S]>,
) -> bool {
    let st = *st;
    let n = actuals.len();
    let p = prev.as_ptr().add(base);
    let ap = actuals.as_ptr();
    let sp = symbols.as_mut_ptr();
    let rp = recon.map(|r| r.as_mut_ptr());
    let veb = _mm256_set1_pd(bound.eb);
    let v2eb = _mm256_set1_pd(bound.two_eb);
    let vrad = _mm256_set1_pd(bound.radius);
    let one = _mm_set1_epi32(1);
    let mut escaped = _mm256_setzero_pd();
    let mut chunk = Some(0);
    while let Some(i) = chunk {
        let pred = predict4::<S, K>(p.add(i), &st);
        let (q, r, esc) = quantize4(S::load4_avx2(ap.add(i)), pred, veb, v2eb, vrad, S::ROUND32);
        // `scalar::symbol_of_code` on four codes (exact: the radius is at
        // most 2^30), zeroed where the point escapes. The low halves of the
        // four 64-bit masks make the 32-bit one.
        let code = _mm256_cvttpd_epi32(q);
        let zigzag = _mm_xor_si128(_mm_slli_epi32::<1>(code), _mm_srai_epi32::<31>(code));
        let esc32 = _mm_castps_si128(_mm_shuffle_ps::<0b10_00_10_00>(
            _mm256_castps256_ps128(_mm256_castpd_ps(esc)),
            _mm256_extractf128_ps::<1>(_mm256_castpd_ps(esc)),
        ));
        let symbol = _mm_andnot_si128(esc32, _mm_add_epi32(zigzag, one));
        _mm_storeu_si128(sp.add(i) as *mut __m128i, symbol);
        if let Some(rp) = rp {
            S::store4_avx2(rp.add(i), r);
        }
        escaped = _mm256_or_pd(escaped, esc);
        chunk = next_chunk(i, n);
    }
    _mm256_movemask_pd(escaped) != 0
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gather2_f64_avx2(src: &[f64], start: usize, out: &mut [f64]) {
    const W: usize = 4;
    let v = vec_points(start, 0, src.len(), out.len(), W);
    let p = src.as_ptr();
    let mut i = 0;
    while i < v {
        _mm256_storeu_pd(out.as_mut_ptr().add(i), load_evens_pd(p.add(start + 2 * i)));
        i += W;
    }
    scalar::gather2_f64(src, start + 2 * v, &mut out[v..]);
}

pub(crate) unsafe fn gather2_f64_sse2(src: &[f64], start: usize, out: &mut [f64]) {
    const W: usize = 2;
    let v = vec_points(start, 0, src.len(), out.len(), W);
    let p = src.as_ptr();
    let mut i = 0;
    while i < v {
        _mm_storeu_pd(out.as_mut_ptr().add(i), load_evens_sse2(p.add(start + 2 * i)));
        i += W;
    }
    scalar::gather2_f64(src, start + 2 * v, &mut out[v..]);
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gather2_f32_avx2(src: &[f32], start: usize, out: &mut [f32]) {
    const W: usize = 8;
    let v = vec_points(start, 0, src.len(), out.len(), W);
    let p = src.as_ptr();
    let mut i = 0;
    while i < v {
        let v0 = _mm256_loadu_ps(p.add(start + 2 * i));
        let v1 = _mm256_loadu_ps(p.add(start + 2 * i + 8));
        // Per 128-bit half: evens of v0 then evens of v1 → pairs land as
        // [e0 e1 e4 e5 | e2 e3 e6 e7]; permuting 64-bit pairs fixes order.
        let s = _mm256_shuffle_ps::<0b10_00_10_00>(v0, v1);
        let r = _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(s)));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
        i += W;
    }
    scalar::gather2_f32(src, start + 2 * v, &mut out[v..]);
}

pub(crate) unsafe fn gather2_f32_sse2(src: &[f32], start: usize, out: &mut [f32]) {
    const W: usize = 4;
    let v = vec_points(start, 0, src.len(), out.len(), W);
    let p = src.as_ptr();
    let mut i = 0;
    while i < v {
        let v0 = _mm_loadu_ps(p.add(start + 2 * i));
        let v1 = _mm_loadu_ps(p.add(start + 2 * i + 4));
        _mm_storeu_ps(out.as_mut_ptr().add(i), _mm_shuffle_ps::<0b10_00_10_00>(v0, v1));
        i += W;
    }
    scalar::gather2_f32(src, start + 2 * v, &mut out[v..]);
}

/// The scatters store their even elements with masked stores and never read
/// the destination. A load-blend-store would move the same bytes, but its
/// load is the *first* touch of every page of a freshly zeroed grid: the
/// kernel maps the shared zero page for the read and then takes a second,
/// copy-on-write fault for the store — twice the page faults of a decode.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn scatter2_f64_avx2(src: &[f64], dst: &mut [f64], start: usize) {
    const W: usize = 4;
    let v = vec_points(start, 0, dst.len(), src.len(), W);
    let evens = _mm256_setr_epi64x(-1, 0, -1, 0);
    let mut i = 0;
    while i < v {
        let s = _mm256_loadu_pd(src.as_ptr().add(i));
        // [x0 x0 x1 x1] / [x2 x2 x3 x3]: the evens of the two dst vectors.
        let lo = _mm256_permute4x64_pd::<0x50>(s);
        let hi = _mm256_permute4x64_pd::<0xFA>(s);
        let d = dst.as_mut_ptr().add(start + 2 * i);
        _mm256_maskstore_pd(d, evens, lo);
        _mm256_maskstore_pd(d.add(4), evens, hi);
        i += W;
    }
    scalar::scatter2_f64(&src[v..], dst, start + 2 * v);
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn scatter2_f32_avx2(src: &[f32], dst: &mut [f32], start: usize) {
    const W: usize = 8;
    let v = vec_points(start, 0, dst.len(), src.len(), W);
    let evens = _mm256_setr_epi32(-1, 0, -1, 0, -1, 0, -1, 0);
    let mut i = 0;
    while i < v {
        let s = _mm256_loadu_ps(src.as_ptr().add(i));
        let dup_lo = _mm256_unpacklo_ps(s, s); // [x0 x0 x1 x1 | x4 x4 x5 x5]
        let dup_hi = _mm256_unpackhi_ps(s, s); // [x2 x2 x3 x3 | x6 x6 x7 x7]
        let lo = _mm256_permute2f128_ps::<0x20>(dup_lo, dup_hi);
        let hi = _mm256_permute2f128_ps::<0x31>(dup_lo, dup_hi);
        let d = dst.as_mut_ptr().add(start + 2 * i);
        _mm256_maskstore_ps(d, evens, lo);
        _mm256_maskstore_ps(d.add(8), evens, hi);
        i += W;
    }
    scalar::scatter2_f32(&src[v..], dst, start + 2 * v);
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn narrow_run_avx2(src: &[f64], out: &mut [f32]) {
    let n = src.len();
    let mut i = 0;
    while i + 4 <= n {
        let x = _mm256_loadu_pd(src.as_ptr().add(i));
        _mm_storeu_ps(out.as_mut_ptr().add(i), _mm256_cvtpd_ps(x));
        i += 4;
    }
    // The loop compiles to `vcvtpd2ps (mem), %xmm`: 256 bits wide, no YMM
    // register named, so LLVM adds no `vzeroupper` of its own (module docs).
    _mm256_zeroupper();
    scalar::narrow_run(&src[i..], &mut out[i..]);
}

pub(crate) unsafe fn narrow_run_sse2(src: &[f64], out: &mut [f32]) {
    let n = src.len();
    let mut i = 0;
    while i + 2 <= n {
        let x = _mm_loadu_pd(src.as_ptr().add(i));
        // Two f32 results in the low 64 bits; movsd stores them unaligned.
        _mm_store_sd(out.as_mut_ptr().add(i) as *mut f64, _mm_castps_pd(_mm_cvtpd_ps(x)));
        i += 2;
    }
    scalar::narrow_run(&src[i..], &mut out[i..]);
}

#[target_feature(enable = "avx2")]
pub(crate) unsafe fn widen_run_avx2(src: &[f32], out: &mut [f64]) {
    let n = src.len();
    let mut i = 0;
    while i + 4 <= n {
        let x = _mm_loadu_ps(src.as_ptr().add(i));
        _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_cvtps_pd(x));
        i += 4;
    }
    scalar::widen_run(&src[i..], &mut out[i..]);
}

pub(crate) unsafe fn widen_run_sse2(src: &[f32], out: &mut [f64]) {
    let n = src.len();
    let mut i = 0;
    while i + 2 <= n {
        let x = _mm_load_sd(src.as_ptr().add(i) as *const f64);
        _mm_storeu_pd(out.as_mut_ptr().add(i), _mm_cvtps_pd(_mm_castpd_ps(x)));
        i += 2;
    }
    scalar::widen_run(&src[i..], &mut out[i..]);
}

/// `x^n mod P` for the CRC-32/IEEE polynomial, in the bit-reflected form
/// PCLMULQDQ folding multiplies by: shifted up one bit, because the
/// carry-less product of two reflected operands comes out one bit low.
const fn crc_fold_constant(n: u32) -> i64 {
    let mut v: u32 = 0x8000_0000; // x^0
    let mut i = 0;
    while i < n {
        v = if v & 1 != 0 { (v >> 1) ^ scalar::CRC_POLY } else { v >> 1 };
        i += 1;
    }
    ((v as u64) << 1) as i64
}

/// Multipliers that carry a 128-bit accumulator `bits` further down the
/// message: its low qword (the earlier bytes) by `x^(bits+32)`, its high
/// qword by `x^(bits-32)`.
const fn crc_fold_pair(bits: u32) -> [i64; 2] {
    [crc_fold_constant(bits + 32), crc_fold_constant(bits - 32)]
}

const CRC_FOLD_512: [i64; 2] = crc_fold_pair(512);
const CRC_FOLD_128: [i64; 2] = crc_fold_pair(128);

/// `acc * x^distance + next` modulo the CRC polynomial, `k` holding the
/// [`crc_fold_pair`] of that distance.
#[inline]
#[target_feature(enable = "avx,pclmulqdq")]
unsafe fn crc_fold(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
    let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// CRC-32/IEEE by carry-less folding (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ"): four 128-bit accumulators
/// each absorb every fourth 16-byte block, so the multiplies of one 64-byte
/// step are independent. The folded 128 bits are congruent to the whole
/// prefix, so the portable kernel reduces them (from a zero register) and
/// finishes the sub-16-byte tail. Integer-only: bit-identical to
/// [`scalar::crc32_update`].
///
/// VEX-encoded (`avx`), so it does not pay the dirty-upper-state penalty
/// legacy SSE code pays after a 256-bit kernel ran on the thread.
///
/// # Panics
/// If `bytes` is shorter than one 64-byte step.
///
/// # Safety
/// The CPU must support `avx` and `pclmulqdq`.
#[target_feature(enable = "avx,pclmulqdq")]
pub(crate) unsafe fn crc32_update_pclmul(state: u32, bytes: &[u8]) -> u32 {
    let load = |block: &[u8]| _mm_loadu_si128(block.as_ptr() as *const __m128i);
    let k512 = _mm_set_epi64x(CRC_FOLD_512[1], CRC_FOLD_512[0]);
    let k128 = _mm_set_epi64x(CRC_FOLD_128[1], CRC_FOLD_128[0]);
    // The register enters as the coefficient of the message's first 32 bits.
    let mut x0 = _mm_xor_si128(load(&bytes[..16]), _mm_cvtsi32_si128(state as i32));
    let mut x1 = load(&bytes[16..32]);
    let mut x2 = load(&bytes[32..48]);
    let mut x3 = load(&bytes[48..64]);
    let mut steps = bytes[64..].chunks_exact(64);
    for step in &mut steps {
        x0 = crc_fold(x0, k512, load(&step[..16]));
        x1 = crc_fold(x1, k512, load(&step[16..32]));
        x2 = crc_fold(x2, k512, load(&step[32..48]));
        x3 = crc_fold(x3, k512, load(&step[48..]));
    }
    let mut acc = crc_fold(x0, k128, x1);
    acc = crc_fold(acc, k128, x2);
    acc = crc_fold(acc, k128, x3);
    let mut blocks = steps.remainder().chunks_exact(16);
    for block in &mut blocks {
        acc = crc_fold(acc, k128, load(block));
    }
    let mut folded = [0u8; 16];
    _mm_storeu_si128(folded.as_mut_ptr() as *mut __m128i, acc);
    scalar::crc32_update(scalar::crc32_update(0, &folded), blocks.remainder())
}
