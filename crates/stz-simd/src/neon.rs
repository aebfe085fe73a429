//! aarch64 NEON lane (2×f64 / 4×f32, baseline on aarch64).
//!
//! Byte-identity notes: NEON packed `fadd/fsub/fmul/fdiv/fcvt` round
//! exactly like the scalar instructions, `vrndaq_f64` (FRINTA, round to
//! nearest with ties away from zero) *is* `f64::round`, and no FMA is
//! emitted (`vfmaq` is never used). Interleaved `vld2`/`vst2` implement
//! the stride-2 gather/scatter; the scatter rewrites odd elements with
//! their current values, which the exclusive `&mut` borrow makes safe.
//! Like the x86 lanes, full-width stride-2 loads may touch one element
//! past the last even index, so [`vec_points`] bounds the vector portion
//! and the scalar reference finishes the run.

#![allow(unsafe_op_in_unsafe_fn)]

use crate::kernels::{vec_points, Stencil};
use crate::scalar;
use std::arch::aarch64::*;

#[inline]
unsafe fn not_u64(x: uint64x2_t) -> uint64x2_t {
    veorq_u64(x, vdupq_n_u64(!0))
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn predict_recon_run(
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
    let v2eb = vdupq_n_f64(two_eb);
    if st.cubic {
        let wi = vdupq_n_f64(st.wi);
        let wo = vdupq_n_f64(st.wo);
        let mut i = 0;
        while i < v {
            let c = p.add(base + 2 * i);
            let mut si = vdupq_n_f64(0.0);
            let mut so = vdupq_n_f64(0.0);
            for bits in 0..st.corners {
                si = vaddq_f64(si, vld2q_f64(c.offset(st.inner[bits])).0);
                so = vaddq_f64(so, vld2q_f64(c.offset(st.outer[bits])).0);
            }
            let pred = vaddq_f64(vmulq_f64(wi, si), vmulq_f64(wo, so));
            let mut r = vaddq_f64(pred, vmulq_f64(v2eb, vld1q_f64(cp.add(i))));
            if round32 {
                r = vcvt_f64_f32(vcvt_f32_f64(r));
            }
            vst1q_f64(o.add(i), r);
            i += W;
        }
    } else {
        let div = vdupq_n_f64(st.corners as f64);
        let mut i = 0;
        while i < v {
            let c = p.add(base + 2 * i);
            let mut s = vdupq_n_f64(0.0);
            for bits in 0..st.corners {
                s = vaddq_f64(s, vld2q_f64(c.offset(st.inner[bits])).0);
            }
            let pred = vdivq_f64(s, div);
            let mut r = vaddq_f64(pred, vmulq_f64(v2eb, vld1q_f64(cp.add(i))));
            if round32 {
                r = vcvt_f64_f32(vcvt_f32_f64(r));
            }
            vst1q_f64(o.add(i), r);
            i += W;
        }
    }
    if round32 {
        scalar::predict_recon_run_f32(buf, base + 2 * v, st, &codes[v..], two_eb, &mut out[v..]);
    } else {
        scalar::predict_recon_run_f64(buf, base + 2 * v, st, &codes[v..], two_eb, &mut out[v..]);
    }
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "neon")]
pub(crate) unsafe fn quantize_run(
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
    let inf = vdupq_n_f64(f64::INFINITY);
    let veb = vdupq_n_f64(eb);
    let v2eb = vdupq_n_f64(two_eb);
    let vrad = vdupq_n_f64(radius_f);
    let zero = vdupq_n_f64(0.0);
    let mut i = 0;
    while i + 2 <= n {
        let a = vld1q_f64(actuals.as_ptr().add(i));
        let p = vld1q_f64(preds.as_ptr().add(i));
        // Non-finite escape: NOT(|x| < inf) is true for ±inf and NaN.
        let nf_a = not_u64(vcltq_f64(vabsq_f64(a), inf));
        let nf_p = not_u64(vcltq_f64(vabsq_f64(p), inf));
        let mut esc = vorrq_u64(nf_a, nf_p);
        let diff = vsubq_f64(a, p);
        // FRINTA is exactly f64::round (nearest, ties away from zero).
        let q = vrndaq_f64(vdivq_f64(diff, v2eb));
        esc = vorrq_u64(esc, vcgtq_f64(vabsq_f64(q), vrad));
        // q + 0.0 reproduces the scalar `q as i64 as f64` round-trip.
        let qn = vaddq_f64(q, zero);
        let recon = vaddq_f64(p, vmulq_f64(v2eb, qn));
        esc = vorrq_u64(esc, vcgtq_f64(vabsq_f64(vsubq_f64(recon, a)), veb));
        let r = if round32 {
            let r32 = vcvt_f64_f32(vcvt_f32_f64(recon));
            esc = vorrq_u64(esc, vcgtq_f64(vabsq_f64(vsubq_f64(r32, a)), veb));
            r32
        } else {
            recon
        };
        vst1q_f64(q_out.as_mut_ptr().add(i), qn);
        vst1q_f64(recon_out.as_mut_ptr().add(i), r);
        *escape_out.get_unchecked_mut(i) = (vgetq_lane_u64::<0>(esc) & 1) as u8;
        *escape_out.get_unchecked_mut(i + 1) = (vgetq_lane_u64::<1>(esc) & 1) as u8;
        i += 2;
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

#[target_feature(enable = "neon")]
pub(crate) unsafe fn gather2_f64(src: &[f64], start: usize, out: &mut [f64]) {
    const W: usize = 2;
    let v = vec_points(start, 0, src.len(), out.len(), W);
    let p = src.as_ptr();
    let mut i = 0;
    while i < v {
        vst1q_f64(out.as_mut_ptr().add(i), vld2q_f64(p.add(start + 2 * i)).0);
        i += W;
    }
    scalar::gather2_f64(src, start + 2 * v, &mut out[v..]);
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn gather2_f32(src: &[f32], start: usize, out: &mut [f32]) {
    const W: usize = 4;
    let v = vec_points(start, 0, src.len(), out.len(), W);
    let p = src.as_ptr();
    let mut i = 0;
    while i < v {
        vst1q_f32(out.as_mut_ptr().add(i), vld2q_f32(p.add(start + 2 * i)).0);
        i += W;
    }
    scalar::gather2_f32(src, start + 2 * v, &mut out[v..]);
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn scatter2_f64(src: &[f64], dst: &mut [f64], start: usize) {
    const W: usize = 2;
    let v = vec_points(start, 0, dst.len(), src.len(), W);
    let mut i = 0;
    while i < v {
        let d = dst.as_mut_ptr().add(start + 2 * i);
        let cur = vld2q_f64(d);
        vst2q_f64(d, float64x2x2_t(vld1q_f64(src.as_ptr().add(i)), cur.1));
        i += W;
    }
    scalar::scatter2_f64(&src[v..], dst, start + 2 * v);
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn scatter2_f32(src: &[f32], dst: &mut [f32], start: usize) {
    const W: usize = 4;
    let v = vec_points(start, 0, dst.len(), src.len(), W);
    let mut i = 0;
    while i < v {
        let d = dst.as_mut_ptr().add(start + 2 * i);
        let cur = vld2q_f32(d);
        vst2q_f32(d, float32x4x2_t(vld1q_f32(src.as_ptr().add(i)), cur.1));
        i += W;
    }
    scalar::scatter2_f32(&src[v..], dst, start + 2 * v);
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn narrow_run(src: &[f64], out: &mut [f32]) {
    let n = src.len();
    let mut i = 0;
    while i + 2 <= n {
        let x = vld1q_f64(src.as_ptr().add(i));
        vst1_f32(out.as_mut_ptr().add(i), vcvt_f32_f64(x));
        i += 2;
    }
    scalar::narrow_run(&src[i..], &mut out[i..]);
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn widen_run(src: &[f32], out: &mut [f64]) {
    let n = src.len();
    let mut i = 0;
    while i + 2 <= n {
        let x = vld1_f32(src.as_ptr().add(i));
        vst1q_f64(out.as_mut_ptr().add(i), vcvt_f64_f32(x));
        i += 2;
    }
    scalar::widen_run(&src[i..], &mut out[i..]);
}
