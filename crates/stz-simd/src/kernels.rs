//! Dispatched batch kernels: bounds-checked safe wrappers that route each
//! call to the selected lane's implementation, with scalar tails.
//!
//! Every wrapper validates the *scalar* access pattern up front (each
//! output element's loads/stores are in bounds) and then lets the lane
//! implementation decide how many points it can process with full-width
//! vector loads — a vector covering the last few stride-2 points may read
//! one element past the last even index, so the implementations finish
//! with the scalar reference for the unsafe remainder. The dense kernels
//! ([`predict_recon_dense`], [`predict_quantize_dense`]) read at unit
//! stride, so a vector of points loads exactly what its points would.

use crate::{scalar, Lane};

/// Interpolation stencil in flattened-grid form: `corners = 2^k`
/// linear-index offsets for the inner and outer diagonal rings, plus the
/// cubic weights. Mirrors `stz_core::kernels::StencilOffsets`, whose
/// constructors give the offsets of either reading: taps at ±1/±3 strides
/// around a point of the grid being refined (the stride-2 kernels), or at
/// 0, +1 / −1, +2 strides in the previous level's dense grid (the dense
/// kernels). A clamped multilinear stencil repeats the minus corner's offset
/// on the axis that has no plus corner.
#[derive(Debug, Clone, Copy)]
pub struct Stencil {
    /// Cubic (inner + outer ring) or multilinear (inner ring only).
    pub cubic: bool,
    /// Number of diagonal corners, `2^k` for `k` active axes.
    pub corners: usize,
    /// Inner-ring offsets, `corners` of them used.
    pub inner: [isize; 8],
    /// Outer-ring offsets (cubic only).
    pub outer: [isize; 8],
    /// Inner-ring weight.
    pub wi: f64,
    /// Outer-ring weight.
    pub wo: f64,
    /// Cached tap-offset bounds (kernels consult them on every row, so
    /// they are computed once at construction rather than per call).
    lo: isize,
    hi: isize,
}

impl Stencil {
    /// Build a stencil, caching the tap-offset bounds.
    pub fn new(
        cubic: bool,
        corners: usize,
        inner: [isize; 8],
        outer: [isize; 8],
        wi: f64,
        wo: f64,
    ) -> Stencil {
        let (mut lo, mut hi) = (0isize, 0isize);
        for &o in &inner[..corners] {
            lo = lo.min(o);
            hi = hi.max(o);
        }
        if cubic {
            for &o in &outer[..corners] {
                lo = lo.min(o);
                hi = hi.max(o);
            }
        }
        Stencil { cubic, corners, inner, outer, wi, wo, lo, hi }
    }

    /// Most negative / most positive offset any tap uses.
    #[inline(always)]
    pub(crate) fn offset_range(&self) -> (isize, isize) {
        (self.lo, self.hi)
    }
}

#[cfg(target_arch = "x86_64")]
use crate::x86::Loads as LaneLoads;

/// Nothing to add where no lane loads a grid element itself.
#[cfg(not(target_arch = "x86_64"))]
mod portable {
    pub trait LaneLoads {}
    impl LaneLoads for f32 {}
    impl LaneLoads for f64 {}
}
#[cfg(not(target_arch = "x86_64"))]
use portable::LaneLoads;

/// Element type of a working grid the predict kernels read: `f32` or `f64`
/// (sealed by its private supertrait).
///
/// Every tap is widened to `f64` as it is loaded, which is exact, so a
/// kernel over an `f32` grid performs the `f64` operations of the same
/// kernel over that grid's widened copy, in the same order: same bits out.
pub trait GridElem: Copy + LaneLoads {
    /// Whether a value reconstructed into a grid of this type is rounded
    /// through `f32` first.
    const ROUND32: bool;

    /// Exact widening to `f64`.
    fn widen(self) -> f64;

    /// Rounding to this type (`as` cast semantics; the identity for `f64`).
    fn narrow(v: f64) -> Self;
}

impl GridElem for f32 {
    const ROUND32: bool = true;

    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn narrow(v: f64) -> f32 {
        v as f32
    }
}

impl GridElem for f64 {
    const ROUND32: bool = false;

    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }

    #[inline(always)]
    fn narrow(v: f64) -> f64 {
        v
    }
}

/// Largest multiple of `w` (≤ `n`) such that processing that many stride-2
/// points `w` at a time, starting at `base` with tap reach `max_off`, stays
/// inside a buffer of `len` elements.
///
/// The chunk of points `i..i + w` loads, per tap offset `off`, the `2w`
/// consecutive elements from `base + 2i + off`: its `w` even elements and
/// the odd one after each, as two `w`-wide vectors; so do the `2w`-wide
/// gather loads and scatter stores of either element type. The last chunk
/// therefore touches index `base + 2(v - 1) + max_off + 1`, one past the
/// last even element.
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "aarch64")), allow(dead_code))]
pub(crate) fn vec_points(base: usize, max_off: isize, len: usize, n: usize, w: usize) -> usize {
    let mut v = n - n % w;
    while v > 0 {
        // Highest index touched by the last chunk's widest load.
        let hi = base as isize + 2 * (v as isize - 1) + max_off + 1;
        if (hi as usize) < len {
            break;
        }
        v -= w;
    }
    v
}

/// The scalar access pattern of a predict kernel, checked once per run: the
/// lowest tap of the first point and the highest tap of the last, `step`
/// elements apart (2 in the grid being refined, 1 in the dense one).
fn assert_taps_in_bounds(len: usize, base: usize, st: &Stencil, points: usize, step: usize) {
    let (lo, hi) = st.offset_range();
    let last = base + step * (points - 1);
    assert!(base as isize + lo >= 0, "stencil underruns the grid");
    assert!(
        (last as isize + hi) >= 0 && ((last as isize + hi) as usize) < len,
        "stencil overruns the grid"
    );
}

/// Fused predict + reconstruct from the previous level's dense grid, decode
/// side: `out[i]` is the prediction from the taps `prev[base + i + offset]`
/// plus `two_eb` times the signed code of `symbols[i]` (`symbol − 1`,
/// un-zigzagged), rounded to `S` — the value that belongs in the grid. A
/// zero symbol (an escape) decodes to the code `i32::MIN`: a finite
/// placeholder result the caller overwrites with the stored value.
///
/// `Avx2` runs four points a step; every other lane runs the portable
/// kernel ([`scalar::predict_recon_dense`]), whose unit-stride blocks the
/// compiler vectorises for the target's baseline.
///
/// # Panics
/// If any stencil tap of any point falls outside `prev`, or
/// `symbols.len() != out.len()`.
pub fn predict_recon_dense<S: GridElem>(
    lane: Lane,
    prev: &[S],
    base: usize,
    st: &Stencil,
    symbols: &[u32],
    two_eb: f64,
    out: &mut [S],
) {
    if out.is_empty() {
        return;
    }
    assert!(symbols.len() == out.len());
    assert_taps_in_bounds(prev.len(), base, st, out.len(), 1);
    match lane {
        // SAFETY: the assertions above put every tap of every point inside
        // `prev` and matched `symbols` to `out`, which is all the kernel
        // reads and writes; `Lane::Avx2` is only ever selected on a CPU
        // that has it.
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe {
            crate::x86::predict_recon_dense_avx2(prev, base, st, symbols, two_eb, out)
        },
        _ => scalar::predict_recon_dense(prev, base, st, symbols, two_eb, out),
    }
}

/// The error bound of the fused quantizer: `eb`, twice it, and the largest
/// code magnitude that is not an escape.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// Absolute error bound.
    pub eb: f64,
    /// `2.0 * eb`, the quantization step.
    pub two_eb: f64,
    /// Quantizer radius, at most [`Bound::MAX_RADIUS`].
    pub radius: f64,
}

impl Bound {
    /// Largest radius whose symbols (`zigzag(code) + 1`) fit the `u32` the
    /// kernels compute them in.
    pub const MAX_RADIUS: i64 = 1 << 30;
}

/// Fused predict + quantize from the previous level's dense grid, encode
/// side: point `i` is predicted from the taps `prev[base + i + offset]`,
/// `actuals[i]` is quantized against it exactly as `quantize_run_f32` /
/// `_f64` (by `S`) would, and `symbols[i]` receives `zigzag(code) + 1` — or 0
/// where the point escapes. `recon`, where a caller wants it, receives the
/// reconstruction rounded to `S` (meaningless at an escape). Returns whether
/// any point escaped, so the caller's walk for outliers can skip a run that
/// has none.
///
/// Lanes as for [`predict_recon_dense`].
///
/// # Panics
/// If any stencil tap of any point falls outside `prev`, the slices differ
/// in length, or `bound.radius` exceeds [`Bound::MAX_RADIUS`].
#[allow(clippy::too_many_arguments)]
pub fn predict_quantize_dense<S: GridElem>(
    lane: Lane,
    prev: &[S],
    base: usize,
    st: &Stencil,
    actuals: &[S],
    bound: &Bound,
    symbols: &mut [u32],
    recon: Option<&mut [S]>,
) -> bool {
    let n = actuals.len();
    if n == 0 {
        return false;
    }
    assert!(symbols.len() == n && recon.as_deref().map_or(true, |r| r.len() == n));
    assert!(bound.radius <= Bound::MAX_RADIUS as f64, "radius too large for u32 symbols");
    assert_taps_in_bounds(prev.len(), base, st, n, 1);
    match lane {
        // SAFETY: the assertions above put every tap of every point inside
        // `prev` and gave `actuals`, `symbols` and `recon` one length, which
        // is all the kernel reads and writes; `Lane::Avx2` is only ever
        // selected on a CPU that has it.
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe {
            crate::x86::predict_quantize_dense_avx2(prev, base, st, actuals, bound, symbols, recon)
        },
        _ => scalar::predict_quantize_dense(prev, base, st, actuals, bound, symbols, recon),
    }
}

/// Fused predict + f64 reconstruct:
/// `out[i] = predict(base + 2*i) + two_eb * codes[i]`, the prediction read
/// at stride 2 from the grid being refined — what the codec did before its
/// rows read the previous level's grid ([`predict_recon_dense`]).
///
/// # Panics
/// If any stencil tap of any point falls outside `buf`, or
/// `codes.len() != out.len()`.
pub fn predict_recon_run_f64(
    lane: Lane,
    buf: &[f64],
    base: usize,
    st: &Stencil,
    codes: &[f64],
    two_eb: f64,
    out: &mut [f64],
) {
    predict_recon_run(lane, buf, base, st, codes, two_eb, out, false)
}

/// [`predict_recon_run_f64`] rounded through `f32` (the `T = f32` mirror).
pub fn predict_recon_run_f32(
    lane: Lane,
    buf: &[f64],
    base: usize,
    st: &Stencil,
    codes: &[f64],
    two_eb: f64,
    out: &mut [f64],
) {
    predict_recon_run(lane, buf, base, st, codes, two_eb, out, true)
}

#[allow(clippy::too_many_arguments)]
fn predict_recon_run(
    lane: Lane,
    buf: &[f64],
    base: usize,
    st: &Stencil,
    codes: &[f64],
    two_eb: f64,
    out: &mut [f64],
    round32: bool,
) {
    if out.is_empty() {
        return;
    }
    assert!(codes.len() == out.len());
    assert_taps_in_bounds(buf.len(), base, st, out.len(), 2);
    match lane {
        // SAFETY (every lane arm): the assertions above put every tap of
        // every point inside `buf` and matched `codes` to `out`; SSE2 is the
        // x86_64 baseline, and `Lane::Avx2` / `Lane::Neon` are only ever
        // selected on a CPU that has them.
        #[cfg(target_arch = "x86_64")]
        Lane::Sse2 => unsafe {
            crate::x86::predict_recon_run_sse2(buf, base, st, codes, two_eb, out, round32)
        },
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe {
            crate::x86::predict_recon_run_avx2(buf, base, st, codes, two_eb, out, round32)
        },
        #[cfg(target_arch = "aarch64")]
        Lane::Neon => unsafe {
            crate::neon::predict_recon_run(buf, base, st, codes, two_eb, out, round32)
        },
        _ if round32 => scalar::predict_recon_run_f32(buf, base, st, codes, two_eb, out),
        _ => scalar::predict_recon_run_f64(buf, base, st, codes, two_eb, out),
    }
}

/// Batch f64 quantization; see [`scalar::quantize_run_f64`].
///
/// SSE2 lacks exact packed round-away-from-zero, so it uses the scalar
/// reference (the other kernels still vectorize under SSE2).
#[allow(clippy::too_many_arguments)]
pub fn quantize_run_f64(
    lane: Lane,
    actuals: &[f64],
    preds: &[f64],
    eb: f64,
    two_eb: f64,
    radius_f: f64,
    q_out: &mut [f64],
    recon_out: &mut [f64],
    escape_out: &mut [u8],
) {
    let n = actuals.len();
    assert!(preds.len() == n && q_out.len() == n && recon_out.len() == n && escape_out.len() == n);
    match lane {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe {
            crate::x86::quantize_run_avx2(
                actuals, preds, eb, two_eb, radius_f, q_out, recon_out, escape_out, false,
            )
        },
        #[cfg(target_arch = "aarch64")]
        Lane::Neon => unsafe {
            crate::neon::quantize_run(
                actuals, preds, eb, two_eb, radius_f, q_out, recon_out, escape_out, false,
            )
        },
        _ => scalar::quantize_run_f64(
            actuals, preds, eb, two_eb, radius_f, q_out, recon_out, escape_out,
        ),
    }
}

/// Batch f32-rounded quantization; see [`scalar::quantize_run_f32`].
#[allow(clippy::too_many_arguments)]
pub fn quantize_run_f32(
    lane: Lane,
    actuals: &[f64],
    preds: &[f64],
    eb: f64,
    two_eb: f64,
    radius_f: f64,
    q_out: &mut [f64],
    recon_out: &mut [f64],
    escape_out: &mut [u8],
) {
    let n = actuals.len();
    assert!(preds.len() == n && q_out.len() == n && recon_out.len() == n && escape_out.len() == n);
    match lane {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe {
            crate::x86::quantize_run_avx2(
                actuals, preds, eb, two_eb, radius_f, q_out, recon_out, escape_out, true,
            )
        },
        #[cfg(target_arch = "aarch64")]
        Lane::Neon => unsafe {
            crate::neon::quantize_run(
                actuals, preds, eb, two_eb, radius_f, q_out, recon_out, escape_out, true,
            )
        },
        _ => scalar::quantize_run_f32(
            actuals, preds, eb, two_eb, radius_f, q_out, recon_out, escape_out,
        ),
    }
}

/// Stride-2 gather: `out[i] = src[start + 2*i]`.
///
/// # Panics
/// If `start + 2*(out.len()-1)` is out of bounds.
pub fn gather2_f64(lane: Lane, src: &[f64], start: usize, out: &mut [f64]) {
    if out.is_empty() {
        return;
    }
    assert!(start + 2 * (out.len() - 1) < src.len(), "gather overruns the source");
    match lane {
        #[cfg(target_arch = "x86_64")]
        Lane::Sse2 => unsafe { crate::x86::gather2_f64_sse2(src, start, out) },
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe { crate::x86::gather2_f64_avx2(src, start, out) },
        #[cfg(target_arch = "aarch64")]
        Lane::Neon => unsafe { crate::neon::gather2_f64(src, start, out) },
        _ => scalar::gather2_f64(src, start, out),
    }
}

/// Stride-2 gather: `out[i] = src[start + 2*i]`.
pub fn gather2_f32(lane: Lane, src: &[f32], start: usize, out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    assert!(start + 2 * (out.len() - 1) < src.len(), "gather overruns the source");
    match lane {
        #[cfg(target_arch = "x86_64")]
        Lane::Sse2 => unsafe { crate::x86::gather2_f32_sse2(src, start, out) },
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe { crate::x86::gather2_f32_avx2(src, start, out) },
        #[cfg(target_arch = "aarch64")]
        Lane::Neon => unsafe { crate::neon::gather2_f32(src, start, out) },
        _ => scalar::gather2_f32(src, start, out),
    }
}

/// Stride-2 scatter: `dst[start + 2*i] = src[i]`. Intermediate odd
/// elements are left untouched, and on x86_64 not even read (masked
/// stores): storing into a freshly zeroed grid write-faults each page once
/// instead of read-faulting it first.
pub fn scatter2_f64(lane: Lane, src: &[f64], dst: &mut [f64], start: usize) {
    if src.is_empty() {
        return;
    }
    assert!(start + 2 * (src.len() - 1) < dst.len(), "scatter overruns the destination");
    match lane {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe { crate::x86::scatter2_f64_avx2(src, dst, start) },
        #[cfg(target_arch = "aarch64")]
        Lane::Neon => unsafe { crate::neon::scatter2_f64(src, dst, start) },
        _ => scalar::scatter2_f64(src, dst, start),
    }
}

/// Stride-2 scatter: `dst[start + 2*i] = src[i]`.
pub fn scatter2_f32(lane: Lane, src: &[f32], dst: &mut [f32], start: usize) {
    if src.is_empty() {
        return;
    }
    assert!(start + 2 * (src.len() - 1) < dst.len(), "scatter overruns the destination");
    match lane {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe { crate::x86::scatter2_f32_avx2(src, dst, start) },
        #[cfg(target_arch = "aarch64")]
        Lane::Neon => unsafe { crate::neon::scatter2_f32(src, dst, start) },
        _ => scalar::scatter2_f32(src, dst, start),
    }
}

/// Narrow f64 → f32 (`as` cast semantics, round-to-nearest-even).
pub fn narrow_run(lane: Lane, src: &[f64], out: &mut [f32]) {
    assert_eq!(src.len(), out.len());
    match lane {
        #[cfg(target_arch = "x86_64")]
        Lane::Sse2 => unsafe { crate::x86::narrow_run_sse2(src, out) },
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe { crate::x86::narrow_run_avx2(src, out) },
        #[cfg(target_arch = "aarch64")]
        Lane::Neon => unsafe { crate::neon::narrow_run(src, out) },
        _ => scalar::narrow_run(src, out),
    }
}

/// Widen f32 → f64 (exact).
pub fn widen_run(lane: Lane, src: &[f32], out: &mut [f64]) {
    assert_eq!(src.len(), out.len());
    match lane {
        #[cfg(target_arch = "x86_64")]
        Lane::Sse2 => unsafe { crate::x86::widen_run_sse2(src, out) },
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => unsafe { crate::x86::widen_run_avx2(src, out) },
        #[cfg(target_arch = "aarch64")]
        Lane::Neon => unsafe { crate::neon::widen_run(src, out) },
        _ => scalar::widen_run(src, out),
    }
}

/// Fold `bytes` into a CRC-32/IEEE register; see [`scalar::crc32_update`]
/// for the register convention.
///
/// `Avx2` folds with PCLMULQDQ where the CPU has it (inputs of at least one
/// 64-byte step); every other lane, and `STZ_SIMD=scalar` in particular,
/// runs the portable slicing-by-16 kernel.
pub fn crc32_update(lane: Lane, state: u32, bytes: &[u8]) -> u32 {
    match lane {
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2
            if bytes.len() >= 64
                && std::arch::is_x86_feature_detected!("avx")
                && std::arch::is_x86_feature_detected!("pclmulqdq") =>
        {
            // SAFETY: `avx` and `pclmulqdq`, the two features the function
            // enables, were both detected on this CPU by the guard above.
            unsafe { crate::x86::crc32_update_pclmul(state, bytes) }
        }
        _ => scalar::crc32_update(state, bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::available_lanes;

    /// Deterministic value stream with adversarial cases sprinkled in:
    /// exact halves, -0.0, NaN, infinities, subnormals, huge magnitudes.
    fn test_values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        (0..n)
            .map(|i| match i % 16 {
                0 => 0.5 * (next() % 41) as f64 - 10.0, // exact halves incl. ±0.5
                1 => -0.0,
                2 if i % 64 == 2 => f64::NAN,
                3 if i % 64 == 3 => f64::INFINITY,
                4 if i % 64 == 4 => f64::NEG_INFINITY,
                5 => f64::MIN_POSITIVE / 2.0, // subnormal
                6 => 1e300,
                7 => 0.49999999999999994, // nextafter(0.5, 0)
                _ => {
                    let u = next();
                    ((u >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 8.0
                }
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x:?} vs {y:?}");
        }
    }

    /// Synthetic diagonal stencil over `k` axes of strides 1, 7 and 64.
    fn synthetic_stencil(k: usize, cubic: bool) -> Stencil {
        let corners = 1usize << k;
        let mut inner = [0isize; 8];
        let mut outer = [0isize; 8];
        for bits in 0..corners {
            let (mut di, mut do_) = (0isize, 0isize);
            for j in 0..k {
                let s = [1isize, 7, 64][j];
                let sign = if bits >> j & 1 == 1 { 1 } else { -1 };
                di += sign * s;
                do_ += sign * 3 * s;
            }
            inner[bits] = di;
            outer[bits] = do_;
        }
        Stencil::new(cubic, corners, inner, outer, 9.0 / 16.0, -1.0 / 16.0)
    }

    #[test]
    fn predict_matches_scalar_on_every_lane() {
        // Every lane against the portable kernel for runs of 0..=40 points
        // (a few vector widths and every remainder) whose last tap is the
        // grid's last element — the tightest bound `vec_points` must
        // respect — with both fused stride-2 kernels. The largest synthetic
        // stencil reach is 3*(1+7+64) = 216 either side.
        let grid = test_values(600, 7);
        for (k, cubic) in [(1, false), (1, true), (2, false), (2, true), (3, false), (3, true)] {
            let st = synthetic_stencil(k, cubic);
            let (lo, hi) = st.offset_range();
            let base = (-lo) as usize + 1;
            for n in 0..=40usize {
                let len = if n == 0 { 0 } else { base + 2 * (n - 1) + hi as usize + 1 };
                let buf = &grid[..len];
                let codes: Vec<f64> = (0..n).map(|i| (i as i64 % 9 - 4) as f64).collect();
                let mut want = [vec![0.0; n], vec![0.0; n]];
                crate::scalar::predict_recon_run_f64(buf, base, &st, &codes, 2e-3, &mut want[0]);
                crate::scalar::predict_recon_run_f32(buf, base, &st, &codes, 2e-3, &mut want[1]);
                for lane in available_lanes() {
                    let mut got = [vec![1.0; n], vec![1.0; n]];
                    predict_recon_run(lane, buf, base, &st, &codes, 2e-3, &mut got[0], false);
                    predict_recon_run(lane, buf, base, &st, &codes, 2e-3, &mut got[1], true);
                    for (kernel, (g, w)) in got.iter().zip(&want).enumerate() {
                        let what = format!("kernel {kernel} k={k} cubic={cubic} n={n} {lane}");
                        assert_bits_eq(g, w, &what);
                    }
                }
            }
        }
    }

    /// Dense stencil over `k` axes of strides 1, 7 and 64 — taps at 0, +1
    /// (inner) and −1, +2 (outer) strides — of one of the three kinds the
    /// codec builds: cubic, multilinear, or multilinear with the axes of
    /// `clamped` folded onto their minus corner.
    fn dense_stencil(k: usize, cubic: bool, clamped: usize) -> Stencil {
        let corners = 1usize << k;
        let mut inner = [0isize; 8];
        let mut outer = [0isize; 8];
        for bits in 0..corners {
            for j in 0..k {
                let s = [1isize, 7, 64][j];
                let plus = bits >> j & 1 == 1;
                if clamped >> j & 1 == 0 {
                    inner[bits] += if plus { s } else { 0 };
                }
                outer[bits] += if plus { 2 * s } else { -s };
            }
        }
        Stencil::new(cubic, corners, inner, outer, 9.0 / 16.0, -1.0 / 16.0)
    }

    fn dense_stencils() -> Vec<(String, Stencil)> {
        let mut all = Vec::new();
        for k in 1..=3 {
            all.push((format!("k={k} cubic"), dense_stencil(k, true, 0)));
            for clamped in 0..1usize << k {
                all.push((
                    format!("k={k} linear clamp={clamped:03b}"),
                    dense_stencil(k, false, clamped),
                ));
            }
        }
        all
    }

    /// The bits of a grid element, every NaN alike. Which NaN comes out of an
    /// addition of two is the one thing a compiler may change by commuting
    /// the operands, and no NaN prediction ever reaches a decoded field: the
    /// encoder escapes the point, and the decoder stores the escape.
    fn elem_bits<S: GridElem>(v: S) -> u64 {
        let wide = v.widen();
        if wide.is_nan() {
            f64::NAN.to_bits()
        } else {
            wide.to_bits()
        }
    }

    /// Both dense kernels on every lane against the portable ones, for runs
    /// of 0..=40 points whose last tap is the grid's last element: decode from
    /// symbols that include escapes and the alphabet's ends, encode of
    /// originals that are codable, far off (radius escapes) and non-finite.
    fn assert_dense_lanes_match<S: GridElem + PartialEq + std::fmt::Debug>(
        grid: &[S],
        actuals: &[S],
        what: &str,
    ) {
        let bounds = [
            Bound { eb: 1e-3, two_eb: 2e-3, radius: 32768.0 },
            Bound { eb: 0.25, two_eb: 0.5, radius: (1u64 << 30) as f64 },
            Bound { eb: 1e-9, two_eb: 2e-9, radius: 4.0 },
        ];
        for (kind, st) in dense_stencils() {
            let (lo, hi) = st.offset_range();
            let base = (-lo) as usize + 1;
            for n in 0..=40usize {
                let len = if n == 0 { 0 } else { base + n - 1 + hi as usize + 1 };
                let prev = &grid[..len];
                let symbols: Vec<u32> = (0..n as u32)
                    .map(|i| match i % 7 {
                        0 => 0,
                        1 => u32::MAX - i,
                        _ => i.wrapping_mul(2654435761) % 19 + 1,
                    })
                    .collect();
                let mut want = vec![S::narrow(0.0); n];
                crate::scalar::predict_recon_dense(prev, base, &st, &symbols, 2e-3, &mut want);
                // Originals near the prediction, so most points code.
                let near: Vec<S> = (0..n)
                    .map(|i| match i % 5 {
                        0 => actuals[i],
                        _ => S::narrow(want[i].widen() + (i as f64 - 20.0) * 1.7e-3),
                    })
                    .collect();
                for lane in available_lanes() {
                    let what = format!("{what} {kind} n={n} {lane}");
                    let mut got = vec![S::narrow(1.0); n];
                    predict_recon_dense(lane, prev, base, &st, &symbols, 2e-3, &mut got);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(elem_bits(*g), elem_bits(*w), "recon {what}");
                    }
                    for bound in &bounds {
                        let (mut ws, mut wr) = (vec![9u32; n], vec![S::narrow(9.0); n]);
                        let (mut gs, mut gr) = (vec![7u32; n], vec![S::narrow(7.0); n]);
                        let we = crate::scalar::predict_quantize_dense(
                            prev,
                            base,
                            &st,
                            &near,
                            bound,
                            &mut ws,
                            Some(&mut wr),
                        );
                        let ge = predict_quantize_dense(
                            lane,
                            prev,
                            base,
                            &st,
                            &near,
                            bound,
                            &mut gs,
                            Some(&mut gr),
                        );
                        assert_eq!(gs, ws, "symbols {what} eb={}", bound.eb);
                        assert_eq!(ge, we, "escaped {what}");
                        assert_eq!(we, ws.contains(&0), "escape flag {what}");
                        for i in (0..n).filter(|&i| ws[i] != 0) {
                            assert_eq!(elem_bits(gr[i]), elem_bits(wr[i]), "recon[{i}] {what}");
                        }
                        // Without a reconstruction asked for: the same symbols.
                        let mut gs2 = vec![5u32; n];
                        let ge2 = predict_quantize_dense(
                            lane, prev, base, &st, &near, bound, &mut gs2, None,
                        );
                        assert_eq!((gs2, ge2), (ws.clone(), we), "no recon {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn dense_kernels_match_portable_on_every_lane() {
        // Largest dense stencil reach is 2*(1+7+64) = 144 above the point.
        let wide = test_values(400, 7);
        let actuals = test_values(40, 19);
        assert_dense_lanes_match(&wide, &actuals, "f64 grid");
        let narrow: Vec<f32> = wide.iter().map(|&v| v as f32).collect();
        let actuals: Vec<f32> = actuals.iter().map(|&v| v as f32).collect();
        assert_dense_lanes_match(&narrow, &actuals, "f32 grid");
    }

    #[test]
    fn dense_portable_kernels_are_the_per_point_definitions() {
        // The blocked portable kernels against the one-point functions they
        // are defined by, and the decode against the encode: a coded point
        // reconstructs to what the quantizer said it would.
        let grid: Vec<f32> = (0..400).map(|i| (i as f32 * 0.37).sin()).collect();
        let bound = Bound { eb: 1e-3, two_eb: 2e-3, radius: 32768.0 };
        for (kind, st) in dense_stencils() {
            let (lo, hi) = st.offset_range();
            let base = (-lo) as usize + 1;
            let n = grid.len() - base - hi as usize;
            let actuals: Vec<f32> = (0..n)
                .map(|i| (i as f32 * 0.37 + 0.2).sin() + (i % 11 == 3) as u8 as f32 * 1e9)
                .collect();
            let (mut symbols, mut recon) = (vec![0u32; n], vec![0.0f32; n]);
            let escaped = crate::scalar::predict_quantize_dense(
                &grid,
                base,
                &st,
                &actuals,
                &bound,
                &mut symbols,
                Some(&mut recon),
            );
            assert!(escaped, "{kind}: the planted outliers escape");
            let mut decoded = vec![0.0f32; n];
            crate::scalar::predict_recon_dense(
                &grid,
                base,
                &st,
                &symbols,
                bound.two_eb,
                &mut decoded,
            );
            for i in 0..n {
                let pred = crate::scalar::predict_one(&grid, base + i, &st);
                let (q, r, e) = crate::scalar::quantize_one_f32(
                    actuals[i] as f64,
                    pred,
                    bound.eb,
                    bound.two_eb,
                    bound.radius,
                );
                if e {
                    assert_eq!(symbols[i], 0, "{kind} [{i}]");
                    continue;
                }
                assert_eq!(crate::scalar::code_of_symbol(symbols[i]), q, "{kind} code[{i}]");
                assert_eq!(recon[i].to_bits(), (r as f32).to_bits(), "{kind} recon[{i}]");
                assert_eq!(decoded[i].to_bits(), recon[i].to_bits(), "{kind} decode[{i}]");
                assert!((decoded[i] as f64 - actuals[i] as f64).abs() <= bound.eb);
            }
        }
    }

    #[test]
    fn symbols_and_codes_invert_each_other_to_the_radius_cap() {
        use crate::scalar::{code_of_symbol, symbol_of_code};
        let cap = Bound::MAX_RADIUS as i32;
        for code in [0, 1, -1, 2, -2, 77, -32768, 32768, cap - 1, 1 - cap, cap, -cap] {
            let symbol = symbol_of_code(code);
            assert_ne!(symbol, 0, "code {code} must not look like an escape");
            assert_eq!(code_of_symbol(symbol), code as f64, "code {code}");
            // `zigzag + 1`, as `stz-codec` defines the alphabet.
            let zigzag = ((code as i64) << 1) ^ ((code as i64) >> 63);
            assert_eq!(symbol as i64, zigzag + 1, "code {code}");
        }
        assert_eq!(code_of_symbol(0), i32::MIN as f64);
    }

    /// XINUSE[AVX] — whether the upper halves of the YMM registers are in
    /// use — or `None` where `XGETBV` with `ECX = 1` does not exist.
    #[cfg(target_arch = "x86_64")]
    fn avx_upper_state_in_use() -> Option<bool> {
        use std::arch::x86_64::{__cpuid_count, _xgetbv};
        // CPUID.(EAX=0Dh, ECX=1):EAX bit 2 is XGETBV-with-ECX=1 support.
        // SAFETY: `cpuid` exists on every x86_64 CPU (which is why newer
        // toolchains declare the intrinsic safe; the MSRV does not).
        #[allow(unused_unsafe)]
        let xgetbv1 = unsafe { __cpuid_count(0xD, 1) }.eax & 0b100 != 0;
        if !(std::arch::is_x86_feature_detected!("xsave") && xgetbv1) {
            return None;
        }
        // SAFETY: `xsave` and the ECX = 1 form were both detected above.
        Some(unsafe { _xgetbv(1) } & 0b100 != 0)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_leave_the_upper_ymm_state_clean() {
        // A kernel that returns with the upper YMM halves dirty makes every
        // later legacy-SSE instruction on the thread (libm, the scalar lane)
        // pay a state-transition penalty: a 27x slowdown when it was found.
        if !available_lanes().contains(&Lane::Avx2) || avx_upper_state_in_use().is_none() {
            return;
        }
        let n = 64;
        let wide = test_values(2048, 5);
        let narrow: Vec<f32> = wide.iter().map(|&v| v as f32).collect();
        let st = synthetic_stencil(3, true);
        let base = 300;
        let codes = vec![1.0; n];
        let (mut o64, mut q, mut esc) = (vec![0.0f64; n], vec![0.0f64; n], vec![0u8; n]);
        let mut o32 = vec![0.0f32; n];
        let (mut d64, mut d32) = (vec![0.0f64; 2 * n], vec![0.0f32; 2 * n]);
        let bytes = vec![0xA5u8; 4096];
        let lane = Lane::Avx2;
        let check = |name: &str, kernel: &mut dyn FnMut()| {
            // SAFETY: AVX2 (hence AVX) was detected above.
            unsafe { std::arch::x86_64::_mm256_zeroupper() };
            assert_eq!(avx_upper_state_in_use(), Some(false), "before {name}");
            kernel();
            assert_eq!(avx_upper_state_in_use(), Some(false), "after {name}");
        };
        check("predict_recon_run_f64", &mut || {
            predict_recon_run_f64(lane, &wide, base, &st, &codes, 2e-3, &mut o64)
        });
        check("predict_recon_run_f32", &mut || {
            predict_recon_run_f32(lane, &wide, base, &st, &codes, 2e-3, &mut o64)
        });
        // The dense kernels: an `f32` grid's loads fold into `vcvtps2pd (mem)`
        // and its stores into `vcvtpd2ps`, the case the `x86` module doc
        // warns of.
        let symbols = vec![3u32; n];
        let bound = Bound { eb: 1e-3, two_eb: 2e-3, radius: 32768.0 };
        let mut s32 = vec![0u32; n];
        for (kind, st) in dense_stencils() {
            check(&format!("predict_recon_dense f64 {kind}"), &mut || {
                predict_recon_dense(lane, &wide, base, &st, &symbols, 2e-3, &mut o64)
            });
            check(&format!("predict_recon_dense f32 {kind}"), &mut || {
                predict_recon_dense(lane, &narrow, base, &st, &symbols, 2e-3, &mut o32)
            });
            check(&format!("predict_quantize_dense f64 {kind}"), &mut || {
                let a = &wide[..n];
                predict_quantize_dense(lane, &wide, base, &st, a, &bound, &mut s32, Some(&mut q));
                predict_quantize_dense(lane, &wide, base, &st, a, &bound, &mut s32, None);
            });
            check(&format!("predict_quantize_dense f32 {kind}"), &mut || {
                let a = &narrow[..n];
                let r = Some(&mut d32[..n]);
                predict_quantize_dense(lane, &narrow, base, &st, a, &bound, &mut s32, r);
                predict_quantize_dense(lane, &narrow, base, &st, a, &bound, &mut s32, None);
            });
        }
        check("quantize_run_f64", &mut || {
            let (a, p) = (&wide[..n], &wide[n..2 * n]);
            quantize_run_f64(lane, a, p, 1e-3, 2e-3, 32768.0, &mut q, &mut o64, &mut esc)
        });
        check("quantize_run_f32", &mut || {
            let (a, p) = (&wide[..n], &wide[n..2 * n]);
            quantize_run_f32(lane, a, p, 1e-3, 2e-3, 32768.0, &mut q, &mut o64, &mut esc)
        });
        check("gather2_f64", &mut || gather2_f64(lane, &wide, 1, &mut o64));
        check("gather2_f32", &mut || gather2_f32(lane, &narrow, 1, &mut o32));
        check("scatter2_f64", &mut || scatter2_f64(lane, &wide[..n], &mut d64, 0));
        check("scatter2_f32", &mut || scatter2_f32(lane, &narrow[..n], &mut d32, 0));
        check("narrow_run", &mut || narrow_run(lane, &wide[..n], &mut o32));
        check("widen_run", &mut || widen_run(lane, &narrow[..n], &mut o64));
        check("crc32_update", &mut || {
            std::hint::black_box(crc32_update(lane, 0xFFFF_FFFF, &bytes));
        });
    }

    #[test]
    fn quantize_matches_scalar_on_every_lane() {
        let n = 257;
        let actuals = test_values(n, 11);
        let preds = test_values(n, 23);
        for (eb, radius) in [(1e-3, (1i64 << 15) as f64), (1e-9, 4.0), (0.25, 1e18)] {
            let two_eb = 2.0 * eb;
            let mut wq = vec![0.0; n];
            let mut wr = vec![0.0; n];
            let mut we = vec![0u8; n];
            for f32_mode in [false, true] {
                let runner = if f32_mode { quantize_run_f32 } else { quantize_run_f64 };
                let sc = if f32_mode {
                    crate::scalar::quantize_run_f32
                } else {
                    crate::scalar::quantize_run_f64
                };
                sc(&actuals, &preds, eb, two_eb, radius, &mut wq, &mut wr, &mut we);
                for lane in available_lanes() {
                    let mut gq = vec![9.0; n];
                    let mut gr = vec![9.0; n];
                    let mut ge = vec![7u8; n];
                    runner(lane, &actuals, &preds, eb, two_eb, radius, &mut gq, &mut gr, &mut ge);
                    for i in 0..n {
                        assert_eq!(
                            ge[i], we[i],
                            "escape[{i}] lane={lane} f32={f32_mode} eb={eb} a={} p={}",
                            actuals[i], preds[i]
                        );
                        if we[i] == 0 {
                            assert_eq!(gq[i].to_bits(), wq[i].to_bits(), "q[{i}] lane={lane}");
                            assert_eq!(gr[i].to_bits(), wr[i].to_bits(), "recon[{i}] lane={lane}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gather_scatter_match_scalar_on_every_lane() {
        // Exercise the tight-bound case: the last gathered even element is
        // the final element of the source, so vector over-read must clip.
        for n in [1usize, 2, 3, 7, 8, 9, 31, 64, 65] {
            for start in [0usize, 1, 5] {
                let src = test_values(start + 2 * n - 1, n as u64);
                let mut want = vec![0.0; n];
                crate::scalar::gather2_f64(&src, start, &mut want);
                for lane in available_lanes() {
                    let mut got = vec![1.0; n];
                    gather2_f64(lane, &src, start, &mut got);
                    assert_bits_eq(&got, &want, &format!("gather2_f64 n={n} start={start} {lane}"));
                    let mut dst_w = src.clone();
                    let mut dst_g = src.clone();
                    crate::scalar::scatter2_f64(&want, &mut dst_w, start);
                    scatter2_f64(lane, &want, &mut dst_g, start);
                    assert_bits_eq(&dst_g, &dst_w, &format!("scatter2_f64 n={n} {lane}"));

                    let src32: Vec<f32> = src.iter().map(|&v| v as f32).collect();
                    let mut want32 = vec![0.0f32; n];
                    crate::scalar::gather2_f32(&src32, start, &mut want32);
                    let mut got32 = vec![1.0f32; n];
                    gather2_f32(lane, &src32, start, &mut got32);
                    for i in 0..n {
                        assert_eq!(got32[i].to_bits(), want32[i].to_bits(), "gather2_f32[{i}]");
                    }
                    let mut d32w = src32.clone();
                    let mut d32g = src32.clone();
                    crate::scalar::scatter2_f32(&want32, &mut d32w, start);
                    scatter2_f32(lane, &want32, &mut d32g, start);
                    for i in 0..d32w.len() {
                        assert_eq!(d32g[i].to_bits(), d32w[i].to_bits(), "scatter2_f32[{i}]");
                    }
                }
            }
        }
    }

    #[test]
    fn narrow_widen_match_scalar_on_every_lane() {
        let n = 97;
        let src = test_values(n, 31);
        let mut want = vec![0.0f32; n];
        crate::scalar::narrow_run(&src, &mut want);
        for lane in available_lanes() {
            let mut got = vec![1.0f32; n];
            narrow_run(lane, &src, &mut got);
            for i in 0..n {
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "narrow[{i}] {lane}");
            }
            let mut back_w = vec![0.0f64; n];
            let mut back_g = vec![1.0f64; n];
            crate::scalar::widen_run(&want, &mut back_w);
            widen_run(lane, &want, &mut back_g);
            assert_bits_eq(&back_g, &back_w, &format!("widen {lane}"));
        }
    }

    /// Byte-at-a-time CRC-32/IEEE, one table lookup per byte: the oracle
    /// every lane of [`crc32_update`] is held to.
    fn crc32_oracle(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |c, &b| {
            let mut t = (c ^ b as u32) & 0xFF;
            for _ in 0..8 {
                t = if t & 1 != 0 { scalar::CRC_POLY ^ (t >> 1) } else { t >> 1 };
            }
            t ^ (c >> 8)
        })
    }

    fn lcg_next(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state
    }

    fn crc_test_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..n).map(|_| (lcg_next(&mut state) >> 56) as u8).collect()
    }

    #[test]
    fn crc32_matches_oracle_on_every_lane() {
        // Every length around the 16-byte slice, the 64-byte fold step and
        // a page, at every start alignment a 16-byte load can see.
        let data = crc_test_bytes(4097 + 16, 17);
        let lens = (0..=300usize).chain([4095, 4096, 4097]);
        for len in lens {
            for align in 0..16 {
                let bytes = &data[align..align + len];
                for state in [0xFFFF_FFFF, 0x1234_5678] {
                    let want = crc32_oracle(state, bytes);
                    for lane in available_lanes() {
                        let got = crc32_update(lane, state, bytes);
                        assert_eq!(got, want, "len={len} align={align} state={state:#x} {lane}");
                    }
                }
            }
        }
    }

    #[test]
    fn crc32_streaming_equals_oneshot_on_every_lane() {
        let data = crc_test_bytes(3 << 20, 29);
        let want = crc32_oracle(0xFFFF_FFFF, &data);
        let mut state = 41u64;
        let splits: Vec<usize> = [0, 1, 63, 64, 65, data.len() - 1, data.len()]
            .into_iter()
            .chain(std::iter::repeat_with(|| (lcg_next(&mut state) >> 33) as usize % data.len()))
            .take(64)
            .collect();
        for lane in available_lanes() {
            assert_eq!(crc32_update(lane, 0xFFFF_FFFF, &data), want, "one-shot {lane}");
            for &at in &splits {
                let head = crc32_update(lane, 0xFFFF_FFFF, &data[..at]);
                assert_eq!(crc32_update(lane, head, &data[at..]), want, "split at {at} {lane}");
            }
        }
    }

    #[test]
    fn crc32_known_answers_on_every_lane() {
        // zlib's `crc32` of the same 8 MiB (the payload pattern of the
        // benchmark's framing micro-measurement).
        const PATTERN_8MIB_CRC: u32 = 0x1AAE_21DF;
        let pattern: Vec<u8> = (0..8usize << 20).map(|i| ((i * 31) >> 3) as u8).collect();
        let vectors: [(&[u8], u32); 4] = [
            (b"", 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&pattern, PATTERN_8MIB_CRC),
        ];
        for lane in available_lanes() {
            for (bytes, want) in vectors {
                let got = crc32_update(lane, 0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF;
                assert_eq!(got, want, "{} bytes on {lane}", bytes.len());
            }
        }
    }

    #[test]
    fn quantize_round_edge_cases_match_f64_round() {
        // The vector round emulation must agree with f64::round via the
        // quantizer: with two_eb = 1 and pred = 0, q == round(actual).
        let edge = [
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            0.5000000000000001,
            -0.3,
            0.3,
            4503599627370495.5,
            4503599627370496.0,
            -1e200,
            0.0,
            -0.0,
            1e-320,
        ];
        let preds = vec![0.0; edge.len()];
        // The production radius is an i64 cast to f64, so use one in range;
        // codes beyond it escape instead of being compared.
        let radius = 1e18;
        for lane in available_lanes() {
            let mut q = vec![0.0; edge.len()];
            let mut r = vec![0.0; edge.len()];
            let mut e = vec![0u8; edge.len()];
            quantize_run_f64(lane, &edge, &preds, 0.5, 1.0, radius, &mut q, &mut r, &mut e);
            for (i, &x) in edge.iter().enumerate() {
                let rounded = x.round();
                if rounded.abs() > radius {
                    assert_eq!(e[i], 1, "expected radius escape at {x} on {lane}");
                    continue;
                }
                assert_eq!(e[i], 0, "unexpected escape at {x} on {lane}");
                let want = (rounded as i64) as f64;
                assert_eq!(q[i].to_bits(), want.to_bits(), "round({x}) on {lane}");
            }
        }
    }
}
