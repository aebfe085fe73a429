//! Multi-dimensional interpolation kernels (paper §3.1, Eqs. 3–8, Fig. 7).
//!
//! A finer-level point at parent coordinate `p` is displaced by the
//! prediction unit `u` along `k = |active_axes|` axes from the coarse
//! lattice. The kernel is selected by `k`:
//!
//! * `k = 1` — 1-D interpolation along the axis (Eq. 3 linear / Eq. 6 cubic),
//! * `k = 2` — diagonal 2-D interpolation (Eq. 4 bilinear / Eq. 7 bicubic),
//! * `k = 3` — diagonal 3-D interpolation (Eq. 5 trilinear / Eq. 8 tricubic).
//!
//! The cubic kernels combine an inner ring of `2^k` corners at `±u` with an
//! outer ring at `±3u`; weights are `+9 / (16·2^(k-1))` and
//! `−1 / (16·2^(k-1))` respectively, which reduce exactly to the paper's
//! Eqs. 6, 7 and 8. Near boundaries the kernel degrades (cubic →
//! multilinear → clamped), mirroring the paper's "boundary points are
//! predicted directly from available data".

use stz_field::{Dims, Scalar};
use stz_sz3::InterpKind;

/// Inner/outer diagonal-cubic weights for a `k`-axis kernel.
#[inline]
pub fn diag_weights(k: usize) -> (f64, f64) {
    debug_assert!((1..=3).contains(&k));
    let denom = (16 << (k - 1)) as f64;
    (9.0 / denom, -1.0 / denom)
}

/// Predict the value at parent coordinate `p` from the reconstructed coarse
/// lattice stored (at parent positions) in `buf`, a grid of either element
/// type: every tap is widened to `f64` as it is loaded (exact), so an `f32`
/// grid predicts exactly what its widened copy would.
///
/// `active` lists the axes along which `p` is `u` away from coarse points;
/// along inactive axes `p` already lies on the coarse lattice. All coarse
/// source positions read by the kernel are guaranteed to be coarse-lattice
/// points because active coordinates are odd multiples of `u` (offset `u`
/// plus a multiple of `2u`).
#[inline]
pub fn predict_point<S: Scalar>(
    buf: &[S],
    dims: Dims,
    p: [usize; 3],
    active: &[usize],
    u: usize,
    kind: InterpKind,
) -> f64 {
    let n = dims.as_array();
    let k = active.len();
    debug_assert!(k >= 1, "inactive points are coarse-lattice points");

    // Availability of the far (+u) and outer (±3u) stencil points.
    let mut hi_ok = true;
    let mut outer_ok = true;
    for &d in active {
        debug_assert!(p[d] >= u && p[d] % (2 * u) == u % (2 * u));
        if p[d] + u >= n[d] {
            hi_ok = false;
        }
        if p[d] < 3 * u || p[d] + 3 * u >= n[d] {
            outer_ok = false;
        }
    }

    if kind == InterpKind::Cubic && hi_ok && outer_ok {
        let (wi, wo) = diag_weights(k);
        let mut inner = 0.0;
        let mut outer = 0.0;
        for bits in 0..(1usize << k) {
            let mut ci = p;
            let mut co = p;
            for (j, &d) in active.iter().enumerate() {
                if bits >> j & 1 == 1 {
                    ci[d] = p[d] + u;
                    co[d] = p[d] + 3 * u;
                } else {
                    ci[d] = p[d] - u;
                    co[d] = p[d] - 3 * u;
                }
            }
            inner += buf[dims.index(ci[0], ci[1], ci[2])].to_f64();
            outer += buf[dims.index(co[0], co[1], co[2])].to_f64();
        }
        return wi * inner + wo * outer;
    }

    // Multilinear over the inner diagonal corners; out-of-range high corners
    // clamp to the low corner (degenerating to lower-order prediction).
    let mut sum = 0.0;
    for bits in 0..(1usize << k) {
        let mut c = p;
        for (j, &d) in active.iter().enumerate() {
            c[d] = if bits >> j & 1 == 1 && p[d] + u < n[d] { p[d] + u } else { p[d] - u };
        }
        sum += buf[dims.index(c[0], c[1], c[2])].to_f64();
    }
    sum / (1usize << k) as f64
}

/// Precomputed stencil for the interior fast path of one sub-block.
///
/// In working-grid coordinates the prediction unit is always 1, so the
/// stencil's corner positions are fixed *linear-index offsets* from the
/// target: ±1/±3 along each active axis map to ±stride(axis)/±3·stride(axis)
/// in the flattened grid. Interior points (where the whole stencil is in
/// bounds) are predicted with pure pointer arithmetic — no per-point
/// coordinate math, no branches. This is the cache-friendly sequential
/// access pattern the paper credits for STZ's speed advantage over SZ3's
/// long-range strided interpolation (§4.4).
#[derive(Debug, Clone)]
pub struct StencilOffsets {
    k: usize,
    cubic: bool,
    inner: [isize; 8],
    outer: [isize; 8],
    wi: f64,
    wo: f64,
}

impl StencilOffsets {
    /// Build the stencil for a block with the given active axes.
    pub fn new(gdims: Dims, active: &[usize], kind: InterpKind) -> Self {
        let k = active.len();
        debug_assert!((1..=3).contains(&k));
        let strides = [(gdims.ny() * gdims.nx()) as isize, gdims.nx() as isize, 1isize];
        let mut inner = [0isize; 8];
        let mut outer = [0isize; 8];
        for bits in 0..(1usize << k) {
            let (mut di, mut do_) = (0isize, 0isize);
            for (j, &d) in active.iter().enumerate() {
                let sign = if bits >> j & 1 == 1 { 1 } else { -1 };
                di += sign * strides[d];
                do_ += sign * 3 * strides[d];
            }
            inner[bits] = di;
            outer[bits] = do_;
        }
        let (wi, wo) = diag_weights(k);
        StencilOffsets { k, cubic: kind == InterpKind::Cubic, inner, outer, wi, wo }
    }

    /// Number of corners (2^k).
    #[inline]
    pub fn corners(&self) -> usize {
        1 << self.k
    }

    /// Predict at flattened grid index `gidx`; the caller guarantees the
    /// whole stencil is in bounds (see [`StencilOffsets::interior_coord`]).
    #[inline(always)]
    pub fn predict_interior<S: Scalar>(&self, buf: &[S], gidx: usize) -> f64 {
        let base = gidx as isize;
        if self.cubic {
            let mut si = 0.0;
            let mut so = 0.0;
            for bits in 0..self.corners() {
                si += buf[(base + self.inner[bits]) as usize].to_f64();
                so += buf[(base + self.outer[bits]) as usize].to_f64();
            }
            self.wi * si + self.wo * so
        } else {
            let mut s = 0.0;
            for bits in 0..self.corners() {
                s += buf[(base + self.inner[bits]) as usize].to_f64();
            }
            s / self.corners() as f64
        }
    }

    /// This stencil in `stz-simd` batch-kernel form (the fields mirror each
    /// other one-to-one; `stz_simd::predict_run_typed` reproduces
    /// [`predict_interior`](Self::predict_interior) bit-for-bit).
    #[inline]
    pub fn as_simd(&self) -> stz_simd::Stencil {
        stz_simd::Stencil::new(self.cubic, self.corners(), self.inner, self.outer, self.wi, self.wo)
    }

    /// Whether coordinate `p` along an *active* axis of extent `n` keeps the
    /// whole stencil in bounds for this interpolation order.
    #[inline]
    pub fn interior_coord(&self, p: usize, n: usize) -> bool {
        if self.cubic {
            p >= 3 && p + 3 < n
        } else {
            p + 1 < n
        }
    }

    /// The sub-range `[xa, xb)` of block-local x indices whose grid
    /// x-coordinate `ox + 2·x` is interior (all of `0..bx` when the x axis
    /// is not active).
    pub fn interior_x_range(
        &self,
        x_active: bool,
        ox: usize,
        gnx: usize,
        bx: usize,
    ) -> (usize, usize) {
        if !x_active {
            return (0, bx);
        }
        let (need_lo, need_hi) = if self.cubic { (3usize, 3usize) } else { (0, 1) };
        // ox + 2·x >= need_lo  →  x >= ceil((need_lo - ox) / 2)
        let xa = need_lo.saturating_sub(ox).div_ceil(2);
        // ox + 2·x + need_hi < gnx  →  x <= (gnx - 1 - need_hi - ox) / 2
        let xb = match (gnx.saturating_sub(1 + need_hi)).checked_sub(ox) {
            Some(v) => (v / 2 + 1).min(bx),
            None => 0,
        };
        (xa.min(bx), xb.max(xa.min(bx)))
    }
}

/// Direct prediction (paper §3.1, optimization 1 / Eq. 1): copy the coarse
/// point at the low corner. Used only by the `DirectPred` ablation variant.
#[inline]
pub fn predict_direct<S: Scalar>(
    buf: &[S],
    dims: Dims,
    p: [usize; 3],
    active: &[usize],
    u: usize,
) -> f64 {
    let mut c = p;
    for &d in active {
        c[d] = p[d] - u;
    }
    buf[dims.index(c[0], c[1], c[2])].to_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fill a full-size buffer with `f` evaluated at every parent point (the
    /// tests pretend the whole grid is coarse-reconstructed).
    fn grid(dims: Dims, f: impl Fn(f64, f64, f64) -> f64) -> Vec<f64> {
        let mut buf = vec![0.0; dims.len()];
        for z in 0..dims.nz() {
            for y in 0..dims.ny() {
                for x in 0..dims.nx() {
                    buf[dims.index(z, y, x)] = f(z as f64, y as f64, x as f64);
                }
            }
        }
        buf
    }

    #[test]
    fn weights_normalize() {
        for k in 1..=3 {
            let (wi, wo) = diag_weights(k);
            let total = (wi + wo) * (1usize << k) as f64;
            assert!((total - 1.0).abs() < 1e-15, "k={k}");
        }
    }

    #[test]
    fn k1_matches_paper_eq6() {
        let (wi, wo) = diag_weights(1);
        assert!((wi - 9.0 / 16.0).abs() < 1e-15);
        assert!((wo + 1.0 / 16.0).abs() < 1e-15);
    }

    #[test]
    fn k2_matches_paper_eq7() {
        let (wi, wo) = diag_weights(2);
        assert!((wi - 9.0 / 32.0).abs() < 1e-15);
        assert!((wo + 1.0 / 32.0).abs() < 1e-15);
    }

    #[test]
    fn k3_matches_paper_eq8() {
        let (wi, wo) = diag_weights(3);
        assert!((wi - 9.0 / 64.0).abs() < 1e-15);
        assert!((wo + 1.0 / 64.0).abs() < 1e-15);
    }

    #[test]
    fn linear_k1_is_midpoint() {
        let dims = Dims::d1(9);
        let buf = grid(dims, |_, _, x| 3.0 * x + 1.0);
        let p = predict_point(&buf, dims, [0, 0, 3], &[2], 1, InterpKind::Linear);
        assert!((p - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cubic_k1_exact_on_cubics() {
        let dims = Dims::d1(17);
        let poly = |x: f64| 1.0 + x - 0.3 * x * x + 0.05 * x * x * x;
        let buf = grid(dims, |_, _, x| poly(x));
        // interior point with full stencil: p=7, u=1 -> sources 4,6,8,10
        let p = predict_point(&buf, dims, [0, 0, 7], &[2], 1, InterpKind::Cubic);
        assert!((p - poly(7.0)).abs() < 1e-10, "got {p}, want {}", poly(7.0));
    }

    #[test]
    fn bilinear_k2_exact_on_bilinear_functions() {
        let dims = Dims::d2(9, 9);
        let f = |y: f64, x: f64| 2.0 + y + 3.0 * x + 0.5 * x * y;
        let buf = grid(dims, |_, y, x| f(y, x));
        let p = predict_point(&buf, dims, [0, 3, 5], &[1, 2], 1, InterpKind::Linear);
        assert!((p - f(3.0, 5.0)).abs() < 1e-12);
    }

    #[test]
    fn bicubic_k2_exact_on_smooth_quadratic() {
        // The diagonal bicubic (Eq. 7) reproduces polynomials up to cubic
        // total degree along each diagonal; a separable quadratic is exact.
        let dims = Dims::d2(17, 17);
        let f = |y: f64, x: f64| 1.0 + x + y + x * y + 0.5 * (x * x + y * y);
        let buf = grid(dims, |_, y, x| f(y, x));
        let p = predict_point(&buf, dims, [0, 7, 7], &[1, 2], 1, InterpKind::Cubic);
        assert!((p - f(7.0, 7.0)).abs() < 1e-10, "got {p}, want {}", f(7.0, 7.0));
    }

    #[test]
    fn tricubic_k3_exact_on_trilinear() {
        let dims = Dims::d3(17, 17, 17);
        let f = |z: f64, y: f64, x: f64| 1.0 + x + 2.0 * y + 3.0 * z + x * y * z;
        let buf = grid(dims, f);
        let p = predict_point(&buf, dims, [7, 7, 7], &[0, 1, 2], 1, InterpKind::Cubic);
        assert!((p - f(7.0, 7.0, 7.0)).abs() < 1e-10);
    }

    #[test]
    fn unit2_stencil_spacing() {
        // Level-2 prediction (u = 2) must read points at ±2 and ±6.
        let dims = Dims::d1(17);
        let poly = |x: f64| 2.0 * x * x * x - x;
        let buf = grid(dims, |_, _, x| poly(x));
        let p = predict_point(&buf, dims, [0, 0, 6], &[2], 2, InterpKind::Cubic);
        assert!((p - poly(6.0)).abs() < 1e-9);
    }

    #[test]
    fn boundary_falls_back_to_linear_then_clamp() {
        let dims = Dims::d1(6);
        let buf = grid(dims, |_, _, x| x * x);
        // p=1: outer stencil (-2) out of range -> linear of 0 and 2 -> 2.0
        let p = predict_point(&buf, dims, [0, 0, 1], &[2], 1, InterpKind::Cubic);
        assert!((p - 2.0).abs() < 1e-12);
        // p=5 (last): +u out of range -> clamp to low corner -> value at 4
        let p = predict_point(&buf, dims, [0, 0, 5], &[2], 1, InterpKind::Cubic);
        assert!((p - 16.0).abs() < 1e-12);
    }

    #[test]
    fn k2_partial_boundary_clamps_one_axis() {
        let dims = Dims::d2(4, 6);
        let buf = grid(dims, |_, y, x| 10.0 * y + x);
        // p = (3, 3): y+1 = 4 out of range -> y clamps to 2; x in range.
        let p = predict_point(&buf, dims, [0, 3, 3], &[1, 2], 1, InterpKind::Linear);
        // corners: (2,2), (2,4) for both y choices -> avg = (22 + 24 + 22 + 24)/4
        assert!((p - 23.0).abs() < 1e-12);
    }

    #[test]
    fn direct_pred_takes_low_corner() {
        let dims = Dims::d3(4, 4, 4);
        let buf = grid(dims, |z, y, x| z * 100.0 + y * 10.0 + x);
        let p = predict_direct(&buf, dims, [1, 3, 2], &[0, 1], 1);
        assert!((p - (0.0 * 100.0 + 2.0 * 10.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn stencil_fast_path_matches_slow_path() {
        // For every interior point of every offset class, the precomputed
        // linear-offset stencil must agree exactly with predict_point.
        let dims = Dims::d3(16, 17, 15);
        let buf = grid(dims, |z, y, x| (0.21 * z).sin() + (0.17 * y).cos() * (0.13 * x).sin());
        for kind in [InterpKind::Linear, InterpKind::Cubic] {
            for active in [vec![2], vec![1], vec![0], vec![1, 2], vec![0, 2], vec![0, 1, 2]] {
                let st = StencilOffsets::new(dims, &active, kind);
                for z in 3..13 {
                    for y in 3..14 {
                        for x in 3..12 {
                            let p = [z, y, x];
                            // Only test points with correct parity semantics:
                            // active coords odd, inactive even (as in real use).
                            let ok = (0..3).all(|d| {
                                if active.contains(&d) {
                                    p[d] % 2 == 1
                                } else {
                                    p[d] % 2 == 0
                                }
                            });
                            if !ok {
                                continue;
                            }
                            let slow = predict_point(&buf, dims, p, &active, 1, kind);
                            let fast = st.predict_interior(&buf, dims.index(z, y, x));
                            assert!(
                                (slow - fast).abs() < 1e-15,
                                "{kind:?} {active:?} at {p:?}: {slow} vs {fast}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interior_x_range_bounds() {
        let dims = Dims::d1(16);
        let st = StencilOffsets::new(dims, &[2], InterpKind::Cubic);
        // Block offset ox = 1, stride 2: grid coords 1,3,…,15; bx = 8.
        let (xa, xb) = st.interior_x_range(true, 1, 16, 8);
        // Interior: gx >= 3 and gx + 3 < 16 -> gx in {3,…,11} -> x in {1,…,5}.
        assert_eq!((xa, xb), (1, 6));
        // Inactive x axis: everything interior.
        assert_eq!(st.interior_x_range(false, 0, 16, 8), (0, 8));
        // Linear: gx + 1 < 16 -> x <= 6 … gx=13 ok, gx=15 not.
        let stl = StencilOffsets::new(dims, &[2], InterpKind::Linear);
        let (xa, xb) = stl.interior_x_range(true, 1, 16, 8);
        assert_eq!((xa, xb), (0, 7));
    }

    #[test]
    fn cubic_beats_linear_on_smooth_wave() {
        let dims = Dims::d1(33);
        let f = |x: f64| (0.4 * x).sin();
        let buf = grid(dims, |_, _, x| f(x));
        let mut err_cubic = 0.0f64;
        let mut err_linear = 0.0f64;
        for t in (7..26).step_by(2) {
            let pc = predict_point(&buf, dims, [0, 0, t], &[2], 1, InterpKind::Cubic);
            let pl = predict_point(&buf, dims, [0, 0, t], &[2], 1, InterpKind::Linear);
            err_cubic += (pc - f(t as f64)).abs();
            err_linear += (pl - f(t as f64)).abs();
        }
        assert!(err_cubic < err_linear, "cubic {err_cubic} vs linear {err_linear}");
    }
}
