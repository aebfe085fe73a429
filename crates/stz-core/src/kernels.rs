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

/// Tap reader over a grid that holds the coarse lattice at its parent
/// positions — the grid being refined, the previous level upscattered into
/// it. Every tap is widened to `f64` as it is loaded (exact), so an `f32`
/// grid predicts exactly what its widened copy would.
#[inline]
pub fn grid_taps<S: Scalar>(buf: &[S], dims: Dims) -> impl Fn([usize; 3]) -> f64 + '_ {
    move |c| buf[dims.index(c[0], c[1], c[2])].to_f64()
}

/// Tap reader over the previous level's working grid as it is — dense, a
/// box of dims `cdims` of it starting at `origin` (all of it at the origin)
/// — for a point in working-grid coordinates (prediction unit 1): every tap
/// coordinate is even on every axis, and half of it is the tap's coordinate
/// in the previous grid.
#[inline]
pub fn dense_taps<S: Scalar>(
    prev: &[S],
    cdims: Dims,
    origin: [usize; 3],
) -> impl Fn([usize; 3]) -> f64 + '_ {
    let [oz, oy, ox] = origin;
    move |c| prev[cdims.index((c[0] >> 1) - oz, (c[1] >> 1) - oy, (c[2] >> 1) - ox)].to_f64()
}

/// Predict the value at parent coordinate `p` of a grid of `dims` from the
/// reconstructed coarse lattice, read one coordinate at a time through `tap`
/// ([`grid_taps`], [`dense_taps`]).
///
/// `active` lists the axes along which `p` is `u` away from coarse points;
/// along inactive axes `p` already lies on the coarse lattice. All coarse
/// source positions read by the kernel are guaranteed to be coarse-lattice
/// points because active coordinates are odd multiples of `u` (offset `u`
/// plus a multiple of `2u`).
#[inline]
pub fn predict_point(
    tap: impl Fn([usize; 3]) -> f64,
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
            inner += tap(ci);
            outer += tap(co);
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
        sum += tap(c);
    }
    sum / (1usize << k) as f64
}

/// Precomputed stencil for the interior fast path of one sub-block.
///
/// In working-grid coordinates the prediction unit is always 1, so the
/// stencil's corner positions are fixed *linear-index offsets* from the
/// target. Interior points (where the whole stencil is in bounds) are
/// predicted with pure pointer arithmetic — no per-point coordinate math, no
/// branches. This is the cache-friendly sequential access pattern the paper
/// credits for STZ's speed advantage over SZ3's long-range strided
/// interpolation (§4.4).
///
/// The offsets come in two readings of the same taps: [`StencilOffsets::new`]
/// counts them in the grid being refined, where the coarse lattice sits at
/// the even positions (±1/±3 strides around the target); and
/// [`StencilOffsets::dense`] in the previous level's grid as it is, which is
/// what the codec's rows read.
#[derive(Debug, Clone, Copy)]
pub struct StencilOffsets {
    st: stz_simd::Stencil,
}

/// Flattened strides of the z, y and x axes of a grid.
fn strides(dims: Dims) -> [isize; 3] {
    [(dims.ny() * dims.nx()) as isize, dims.nx() as isize, 1]
}

impl StencilOffsets {
    /// A `k`-axis stencil whose corner `bits` takes, on the `j`-th active
    /// axis, the (inner, outer) offsets `tap(j, bit j of bits)`.
    fn from_taps(k: usize, kind: InterpKind, tap: impl Fn(usize, bool) -> (isize, isize)) -> Self {
        debug_assert!((1..=3).contains(&k));
        let mut inner = [0isize; 8];
        let mut outer = [0isize; 8];
        for bits in 0..(1usize << k) {
            for j in 0..k {
                let (di, do_) = tap(j, bits >> j & 1 == 1);
                inner[bits] += di;
                outer[bits] += do_;
            }
        }
        let (wi, wo) = diag_weights(k);
        let cubic = kind == InterpKind::Cubic;
        StencilOffsets { st: stz_simd::Stencil::new(cubic, 1 << k, inner, outer, wi, wo) }
    }

    /// Build the stencil for a block with the given active axes, as offsets
    /// from a target in the grid being refined (`gdims`): ±1/±3 along each
    /// active axis map to ±stride(axis)/±3·stride(axis).
    pub fn new(gdims: Dims, active: &[usize], kind: InterpKind) -> Self {
        let strides = strides(gdims);
        Self::from_taps(active.len(), kind, |j, plus| {
            let s = if plus { strides[active[j]] } else { -strides[active[j]] };
            (s, 3 * s)
        })
    }

    /// The same stencil as offsets into the previous level's working grid
    /// (`cdims`) from the coarse index `p >> 1` of a target `p`: along each
    /// active axis the inner taps `p − 1`, `p + 1` are the coarse points
    /// `+0`, `+1` and the outer taps `p − 3`, `p + 3` the coarse points `−1`,
    /// `+2`. Block-local `x` is the coarse x index, so a block row is unit
    /// stride there. An axis of `clamped` (multilinear only) has no `p + 1`
    /// inside the grid and gives its plus corner the minus corner's offset,
    /// as [`predict_point`] does.
    pub fn dense(cdims: Dims, active: &[usize], kind: InterpKind, clamped: [bool; 3]) -> Self {
        debug_assert!(kind == InterpKind::Linear || clamped == [false; 3]);
        let strides = strides(cdims);
        Self::from_taps(active.len(), kind, |j, plus| {
            let s = strides[active[j]];
            match plus {
                true if clamped[active[j]] => (0, 2 * s),
                true => (s, 2 * s),
                false => (0, -s),
            }
        })
    }

    /// Predict at flattened grid index `gidx` — of the grid the offsets were
    /// counted in; the caller guarantees the whole stencil is in bounds (see
    /// [`StencilOffsets::interior_coord`]). Corner sums ascend from `0.0`,
    /// then `wi·si + wo·so` (cubic) or `s / corners` (multilinear): the one
    /// point every `stz-simd` predict kernel reproduces bit for bit.
    #[inline(always)]
    pub fn predict_interior<S: Scalar>(&self, buf: &[S], gidx: usize) -> f64 {
        stz_simd::scalar::predict_one(buf, gidx, &self.st)
    }

    /// This stencil in `stz-simd` batch-kernel form.
    #[inline]
    pub fn as_simd(&self) -> stz_simd::Stencil {
        self.st
    }

    /// Whether coordinate `p` along an *active* axis of extent `n` keeps the
    /// whole stencil in bounds for this interpolation order.
    #[inline]
    pub fn interior_coord(&self, p: usize, n: usize) -> bool {
        if self.st.cubic {
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
        let (need_lo, need_hi) = if self.st.cubic { (3usize, 3usize) } else { (0, 1) };
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

/// The dense stencils of one sub-block, one per kind of row.
///
/// [`predict_point`] gives every point of a row the same kernel as long as
/// its x-coordinate is interior to it: the block's own where the row's z and
/// y stencil legs stay inside the grid, and otherwise — whatever the
/// interpolation order — multilinear over the inner corners, clamped on the
/// z/y axis that has no `p + 1`. So a border row is a row with another
/// stencil, not a row without one.
#[derive(Debug, Clone)]
pub struct RowStencils {
    interior: StencilOffsets,
    /// Multilinear, indexed by `z clamped + 2 · y clamped`.
    border: [StencilOffsets; 4],
    gdims: Dims,
    /// Whether the z, y and x axes are active.
    on: [bool; 3],
}

impl RowStencils {
    /// The stencils of a block with the given active axes over the previous
    /// level's grid (`cdims`), for rows of the grid being refined (`gdims`).
    pub fn new(gdims: Dims, cdims: Dims, active: &[usize], kind: InterpKind) -> Self {
        let border = |clamp: usize| {
            let clamped = [clamp & 1 == 1, clamp & 2 == 2, false];
            StencilOffsets::dense(cdims, active, InterpKind::Linear, clamped)
        };
        RowStencils {
            interior: StencilOffsets::dense(cdims, active, kind, [false; 3]),
            border: [border(0), border(1), border(2), border(3)],
            gdims,
            on: [0, 1, 2].map(|d| active.contains(&d)),
        }
    }

    /// The stencil of the row at grid coordinates `(gz, gy)` whose first
    /// point is at `gx0`, and the span `[xa, xb)` of its `bx` block-local x
    /// indices the stencil is interior at: the points a batch kernel may
    /// take. The at most three left over — x-border points of a cubic row,
    /// the clamped last point of any — are [`predict_point`]'s.
    pub fn of_row(
        &self,
        gz: usize,
        gy: usize,
        gx0: usize,
        bx: usize,
    ) -> (&StencilOffsets, usize, usize) {
        let (mut interior, mut clamp) = (true, 0);
        for (d, p, n) in [(0, gz, self.gdims.nz()), (1, gy, self.gdims.ny())] {
            if self.on[d] {
                interior &= self.interior.interior_coord(p, n);
                clamp |= usize::from(p + 1 >= n) << d;
            }
        }
        let stencil = if interior { &self.interior } else { &self.border[clamp] };
        let (xa, xb) = stencil.interior_x_range(self.on[2], gx0, self.gdims.nx(), bx);
        (stencil, xa, xb)
    }
}

/// Direct prediction (paper §3.1, optimization 1 / Eq. 1): copy the coarse
/// point at the low corner, read through `tap` as in [`predict_point`]. Used
/// only by the `DirectPred` ablation variant.
#[inline]
pub fn predict_direct(
    tap: impl Fn([usize; 3]) -> f64,
    p: [usize; 3],
    active: &[usize],
    u: usize,
) -> f64 {
    let mut c = p;
    for &d in active {
        c[d] = p[d] - u;
    }
    tap(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`predict_point`] over a grid that holds the coarse lattice in place.
    fn predict_in(
        buf: &[f64],
        dims: Dims,
        p: [usize; 3],
        active: &[usize],
        u: usize,
        kind: InterpKind,
    ) -> f64 {
        predict_point(grid_taps(buf, dims), dims, p, active, u, kind)
    }

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
        let p = predict_in(&buf, dims, [0, 0, 3], &[2], 1, InterpKind::Linear);
        assert!((p - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cubic_k1_exact_on_cubics() {
        let dims = Dims::d1(17);
        let poly = |x: f64| 1.0 + x - 0.3 * x * x + 0.05 * x * x * x;
        let buf = grid(dims, |_, _, x| poly(x));
        // interior point with full stencil: p=7, u=1 -> sources 4,6,8,10
        let p = predict_in(&buf, dims, [0, 0, 7], &[2], 1, InterpKind::Cubic);
        assert!((p - poly(7.0)).abs() < 1e-10, "got {p}, want {}", poly(7.0));
    }

    #[test]
    fn bilinear_k2_exact_on_bilinear_functions() {
        let dims = Dims::d2(9, 9);
        let f = |y: f64, x: f64| 2.0 + y + 3.0 * x + 0.5 * x * y;
        let buf = grid(dims, |_, y, x| f(y, x));
        let p = predict_in(&buf, dims, [0, 3, 5], &[1, 2], 1, InterpKind::Linear);
        assert!((p - f(3.0, 5.0)).abs() < 1e-12);
    }

    #[test]
    fn bicubic_k2_exact_on_smooth_quadratic() {
        // The diagonal bicubic (Eq. 7) reproduces polynomials up to cubic
        // total degree along each diagonal; a separable quadratic is exact.
        let dims = Dims::d2(17, 17);
        let f = |y: f64, x: f64| 1.0 + x + y + x * y + 0.5 * (x * x + y * y);
        let buf = grid(dims, |_, y, x| f(y, x));
        let p = predict_in(&buf, dims, [0, 7, 7], &[1, 2], 1, InterpKind::Cubic);
        assert!((p - f(7.0, 7.0)).abs() < 1e-10, "got {p}, want {}", f(7.0, 7.0));
    }

    #[test]
    fn tricubic_k3_exact_on_trilinear() {
        let dims = Dims::d3(17, 17, 17);
        let f = |z: f64, y: f64, x: f64| 1.0 + x + 2.0 * y + 3.0 * z + x * y * z;
        let buf = grid(dims, f);
        let p = predict_in(&buf, dims, [7, 7, 7], &[0, 1, 2], 1, InterpKind::Cubic);
        assert!((p - f(7.0, 7.0, 7.0)).abs() < 1e-10);
    }

    #[test]
    fn unit2_stencil_spacing() {
        // Level-2 prediction (u = 2) must read points at ±2 and ±6.
        let dims = Dims::d1(17);
        let poly = |x: f64| 2.0 * x * x * x - x;
        let buf = grid(dims, |_, _, x| poly(x));
        let p = predict_in(&buf, dims, [0, 0, 6], &[2], 2, InterpKind::Cubic);
        assert!((p - poly(6.0)).abs() < 1e-9);
    }

    #[test]
    fn boundary_falls_back_to_linear_then_clamp() {
        let dims = Dims::d1(6);
        let buf = grid(dims, |_, _, x| x * x);
        // p=1: outer stencil (-2) out of range -> linear of 0 and 2 -> 2.0
        let p = predict_in(&buf, dims, [0, 0, 1], &[2], 1, InterpKind::Cubic);
        assert!((p - 2.0).abs() < 1e-12);
        // p=5 (last): +u out of range -> clamp to low corner -> value at 4
        let p = predict_in(&buf, dims, [0, 0, 5], &[2], 1, InterpKind::Cubic);
        assert!((p - 16.0).abs() < 1e-12);
    }

    #[test]
    fn k2_partial_boundary_clamps_one_axis() {
        let dims = Dims::d2(4, 6);
        let buf = grid(dims, |_, y, x| 10.0 * y + x);
        // p = (3, 3): y+1 = 4 out of range -> y clamps to 2; x in range.
        let p = predict_in(&buf, dims, [0, 3, 3], &[1, 2], 1, InterpKind::Linear);
        // corners: (2,2), (2,4) for both y choices -> avg = (22 + 24 + 22 + 24)/4
        assert!((p - 23.0).abs() < 1e-12);
    }

    #[test]
    fn direct_pred_takes_low_corner() {
        let dims = Dims::d3(4, 4, 4);
        let buf = grid(dims, |z, y, x| z * 100.0 + y * 10.0 + x);
        let p = predict_direct(grid_taps(&buf, dims), [1, 3, 2], &[0, 1], 1);
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
                            let slow = predict_in(&buf, dims, p, &active, 1, kind);
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

    /// Every point of every block class, predicted the way the codec's rows
    /// do it — from the previous level's dense grid, through the row's
    /// stencil inside its kernel span and through [`predict_point`] over
    /// [`dense_taps`] outside — against [`predict_point`] over the
    /// upscattered grid, bit for bit. Positions off the coarse lattice hold
    /// NaN there, so a tap that strays poisons the reference too.
    fn assert_dense_is_upscattered<S: Scalar>(gdims: Dims, value: impl Fn(usize) -> S) {
        let cdims = gdims.coarsened(2);
        let prev: Vec<S> = (0..cdims.len()).map(&value).collect();
        let mut up = vec![S::from_f64(f64::NAN); gdims.len()];
        for z in 0..cdims.nz() {
            for y in 0..cdims.ny() {
                for x in 0..cdims.nx() {
                    up[gdims.index(2 * z, 2 * y, 2 * x)] = prev[cdims.index(z, y, x)];
                }
            }
        }
        for kind in [InterpKind::Linear, InterpKind::Cubic] {
            for bits in 1..8usize {
                let o = [bits >> 2 & 1, bits >> 1 & 1, bits & 1];
                if (0..3).any(|d| o[d] >= gdims.as_array()[d]) {
                    continue; // no such block in this grid
                }
                let active: Vec<usize> = (0..3).filter(|&d| o[d] == 1).collect();
                let stencils = RowStencils::new(gdims, cdims, &active, kind);
                let bx = (gdims.nx() - o[2]).div_ceil(2);
                for gz in (o[0]..gdims.nz()).step_by(2) {
                    for gy in (o[1]..gdims.ny()).step_by(2) {
                        let (st, xa, xb) = stencils.of_row(gz, gy, o[2], bx);
                        assert!(xa + (bx - xb) <= 3, "{gdims} {active:?}: per-point leftovers");
                        let cbase = ((gz >> 1) * cdims.ny() + (gy >> 1)) * cdims.nx();
                        for x in 0..bx {
                            let p = [gz, gy, o[2] + 2 * x];
                            let want =
                                predict_point(grid_taps(&up, gdims), gdims, p, &active, 1, kind);
                            let got = if (xa..xb).contains(&x) {
                                st.predict_interior(&prev, cbase + x)
                            } else {
                                predict_point(
                                    dense_taps(&prev, cdims, [0; 3]),
                                    gdims,
                                    p,
                                    &active,
                                    1,
                                    kind,
                                )
                            };
                            assert!(!want.is_nan(), "{gdims} {kind:?} {active:?} {p:?}: stray tap");
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{gdims} {kind:?} {active:?} at {p:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dense_prediction_equals_the_upscattered_one_at_every_point() {
        for gdims in [
            Dims::d3(16, 17, 15),
            Dims::d3(9, 8, 12),
            Dims::d3(7, 9, 11),
            Dims::d3(5, 4, 6), // below 7 on every axis: no cubic interior at all
            Dims::d3(3, 2, 2),
            Dims::d3(32, 3, 33),
            Dims::d2(20, 13),
            Dims::d2(6, 41),
            Dims::d1(37),
            Dims::d1(4),
        ] {
            assert_dense_is_upscattered(gdims, |i| ((i as f64 * 0.37).sin() * 1e3) as f32);
            assert_dense_is_upscattered(gdims, |i| (i as f64 * 0.37).sin() * 1e3 + 1e-9 * i as f64);
        }
    }

    #[test]
    fn dense_row_kernel_equals_predict_point_on_every_lane() {
        // The same identity through the batch kernel itself: with the code 0
        // (symbol 1) and an `f64` grid the fused decode returns the
        // prediction, give or take the sign of a zero.
        let (gdims, kind) = (Dims::d3(9, 12, 23), InterpKind::Cubic);
        let cdims = gdims.coarsened(2);
        let prev: Vec<f64> = (0..cdims.len()).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let (active, o) = ([0, 1, 2], [1, 1, 1]);
        let stencils = RowStencils::new(gdims, cdims, &active, kind);
        let bx = (gdims.nx() - o[2]).div_ceil(2);
        for lane in stz_simd::available_lanes() {
            for gz in (o[0]..gdims.nz()).step_by(2) {
                for gy in (o[1]..gdims.ny()).step_by(2) {
                    let (st, xa, xb) = stencils.of_row(gz, gy, o[2], bx);
                    let cbase = ((gz >> 1) * cdims.ny() + (gy >> 1)) * cdims.nx();
                    let mut out = vec![0.0f64; xb - xa];
                    let ones = vec![1u32; xb - xa];
                    let st = st.as_simd();
                    stz_simd::predict_recon_dense(
                        lane,
                        &prev,
                        cbase + xa,
                        &st,
                        &ones,
                        1.0,
                        &mut out,
                    );
                    for (x, got) in (xa..xb).zip(out) {
                        let p = [gz, gy, o[2] + 2 * x];
                        let want = predict_point(
                            dense_taps(&prev, cdims, [0; 3]),
                            gdims,
                            p,
                            &active,
                            1,
                            kind,
                        );
                        assert_eq!(got.to_bits(), (want + 0.0).to_bits(), "{lane} at {p:?}");
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
            let pc = predict_in(&buf, dims, [0, 0, t], &[2], 1, InterpKind::Cubic);
            let pl = predict_in(&buf, dims, [0, 0, t], &[2], 1, InterpKind::Linear);
            err_cubic += (pc - f(t as f64)).abs();
            err_linear += (pl - f(t as f64)).abs();
        }
        assert!(err_cubic < err_linear, "cubic {err_cubic} vs linear {err_linear}");
    }
}
