//! Linear error-bounded quantization with an unpredictable-value escape.
//!
//! This is the loss-introduction stage of the SZ-family pipeline (paper
//! §2.1 step 2): the difference between the predicted and actual value is
//! mapped to an integer code `q = round(diff / (2·eb))`, so that the
//! reconstruction `pred + 2·eb·q` is within `eb` of the original.
//! Differences whose code would exceed the quantizer radius — or whose
//! reconstruction fails the bound due to floating-point rounding — are
//! *escaped*: the symbol [`ESCAPE_SYMBOL`] is emitted and the exact value is
//! stored losslessly on a side channel.

/// Symbol emitted for unpredictable (escaped) values.
///
/// Code symbols are `zigzag(q) + 1`, so 0 is free for the escape marker and
/// small-magnitude codes stay small (good for Huffman).
pub const ESCAPE_SYMBOL: u32 = 0;

// The fused `stz-simd` kernels store 0 at an escape and decode 0 as one.
const _: () = assert!(ESCAPE_SYMBOL == 0);

/// Outcome of quantizing one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantOutcome {
    /// The value was representable: `symbol` to encode and the reconstructed
    /// value the decompressor will see (which the compressor must use for any
    /// further predictions).
    Code { symbol: u32, reconstructed: f64 },
    /// The value must be stored exactly.
    Escape,
}

/// Error-bounded linear quantizer.
#[derive(Debug, Clone, Copy)]
pub struct LinearQuantizer {
    eb: f64,
    /// Maximum |q| representable before escaping.
    radius: i64,
}

impl LinearQuantizer {
    /// Largest radius an encoder may be configured with: beyond it a
    /// symbol, `zigzag(q) + 1`, no longer fits the stream's `u32` and the
    /// decoder would reconstruct from a truncated code. Encoders reject a
    /// larger radius before they quantize anything — as a configuration
    /// error where they have one ([`LinearQuantizer::radius_in_range`]), by
    /// building their quantizer with [`LinearQuantizer::encoder`] where they
    /// do not; a decoder never consults the radius, so
    /// [`LinearQuantizer::new`] takes whatever a header says.
    pub const MAX_RADIUS: i64 = stz_simd::Bound::MAX_RADIUS;

    /// Whether an encoder can keep its error bound with `radius`.
    pub fn radius_in_range(radius: i64) -> bool {
        (1..=Self::MAX_RADIUS).contains(&radius)
    }

    /// [`LinearQuantizer::new`] for an encoder.
    ///
    /// # Panics
    /// If `radius` is not in `1..=`[`LinearQuantizer::MAX_RADIUS`].
    pub fn encoder(eb: f64, radius: i64) -> Self {
        assert!(Self::radius_in_range(radius), "quantizer radius {radius} out of range");
        LinearQuantizer::new(eb, radius)
    }

    /// Create a quantizer for absolute error bound `eb > 0`.
    ///
    /// `radius` bounds the symbol alphabet (the reference SZ3 uses 2^15 by
    /// default); larger radii trade Huffman-table size for fewer escapes.
    pub fn new(eb: f64, radius: i64) -> Self {
        assert!(eb > 0.0 && eb.is_finite(), "error bound must be positive and finite");
        assert!(radius > 0);
        LinearQuantizer { eb, radius }
    }

    /// Quantizer with the SZ3 default radius of 2^15.
    pub fn with_default_radius(eb: f64) -> Self {
        LinearQuantizer::new(eb, 1 << 15)
    }

    #[inline]
    pub fn error_bound(&self) -> f64 {
        self.eb
    }

    #[inline]
    pub fn radius(&self) -> i64 {
        self.radius
    }

    /// Quantize `actual` against `pred`.
    #[inline]
    pub fn quantize(&self, actual: f64, pred: f64) -> QuantOutcome {
        if !actual.is_finite() || !pred.is_finite() {
            return QuantOutcome::Escape;
        }
        let diff = actual - pred;
        let q = (diff / (2.0 * self.eb)).round();
        if q.abs() > self.radius as f64 {
            return QuantOutcome::Escape;
        }
        let q = q as i64;
        let reconstructed = pred + 2.0 * self.eb * q as f64;
        // Floating-point guard: the bound must hold on the actual arithmetic
        // the decompressor performs.
        if (reconstructed - actual).abs() > self.eb {
            return QuantOutcome::Escape;
        }
        QuantOutcome::Code { symbol: Self::symbol_of(q), reconstructed }
    }

    /// Reconstruct a value from a non-escape symbol.
    #[inline]
    pub fn reconstruct(&self, symbol: u32, pred: f64) -> f64 {
        debug_assert_ne!(symbol, ESCAPE_SYMBOL);
        pred + 2.0 * self.eb * Self::code_of(symbol) as f64
    }

    /// Map a signed code to its stream symbol (`zigzag + 1`).
    #[inline]
    pub fn symbol_of(q: i64) -> u32 {
        (crate::varint::zigzag(q) + 1) as u32
    }

    /// Inverse of [`LinearQuantizer::symbol_of`].
    #[inline]
    pub fn code_of(symbol: u32) -> i64 {
        debug_assert_ne!(symbol, ESCAPE_SYMBOL);
        crate::varint::unzigzag(symbol as u64 - 1)
    }

    /// Upper bound (exclusive) of the symbol alphabet this quantizer emits.
    pub fn alphabet_size(&self) -> usize {
        // zigzag(±radius) + 1 = 2*radius + 1 at most.
        2 * self.radius as usize + 2
    }

    /// Fused predict + reconstruct of a row span from the previous level's
    /// dense grid: `out[i]` is the stencil prediction at `prev[base + i]`
    /// plus `2·eb` times the code of `symbols[i]`, rounded to the grid's
    /// element type. An [`ESCAPE_SYMBOL`] slot receives a finite placeholder
    /// the caller overwrites with the stored value. Bit-identical to
    /// [`reconstruct`](Self::reconstruct) of every point on every lane.
    pub fn reconstruct_dense<S: stz_simd::GridElem>(
        &self,
        lane: stz_simd::Lane,
        prev: &[S],
        base: usize,
        st: &stz_simd::Stencil,
        symbols: &[u32],
        out: &mut [S],
    ) {
        stz_simd::predict_recon_dense(lane, prev, base, st, symbols, 2.0 * self.eb, out);
    }

    /// Fused predict + [`quantize`](Self::quantize) of a row span against
    /// the previous level's dense grid, the reconstruction rounded through
    /// the grid's element type and re-checked as the `T`-aware compressor
    /// path does: `symbols[i]` is the symbol of `actuals[i]`
    /// ([`ESCAPE_SYMBOL`] where it escapes), `recon` — where wanted — the
    /// value the decoder will see at a coded point. Returns whether any point
    /// escaped. Bit-identical to the per-point method on every lane.
    ///
    /// # Panics
    /// If the radius exceeds [`LinearQuantizer::MAX_RADIUS`].
    #[allow(clippy::too_many_arguments)]
    pub fn quantize_dense<S: stz_simd::GridElem>(
        &self,
        lane: stz_simd::Lane,
        prev: &[S],
        base: usize,
        st: &stz_simd::Stencil,
        actuals: &[S],
        symbols: &mut [u32],
        recon: Option<&mut [S]>,
    ) -> bool {
        let bound =
            stz_simd::Bound { eb: self.eb, two_eb: 2.0 * self.eb, radius: self.radius as f64 };
        stz_simd::predict_quantize_dense(lane, prev, base, st, actuals, &bound, symbols, recon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_diff_gives_symbol_one() {
        let q = LinearQuantizer::new(0.1, 1 << 15);
        match q.quantize(5.0, 5.0) {
            QuantOutcome::Code { symbol, reconstructed } => {
                assert_eq!(symbol, LinearQuantizer::symbol_of(0));
                assert_eq!(reconstructed, 5.0);
            }
            _ => panic!("escape unexpected"),
        }
    }

    #[test]
    fn bound_holds_over_range() {
        let eb = 1e-3;
        let q = LinearQuantizer::new(eb, 1 << 15);
        let pred = 1.0;
        let mut checked = 0;
        for i in -2000..2000 {
            let actual = pred + i as f64 * 3.7e-4;
            if let QuantOutcome::Code { symbol, reconstructed } = q.quantize(actual, pred) {
                assert!((reconstructed - actual).abs() <= eb);
                assert_eq!(q.reconstruct(symbol, pred), reconstructed);
                checked += 1;
            }
        }
        assert!(checked > 3900, "almost all values should be codable");
    }

    #[test]
    fn escape_on_radius_overflow() {
        let q = LinearQuantizer::new(1e-6, 8);
        assert_eq!(q.quantize(1.0, 0.0), QuantOutcome::Escape);
        // Just inside the radius codes fine.
        assert!(matches!(q.quantize(8.0 * 2e-6, 0.0), QuantOutcome::Code { .. }));
    }

    #[test]
    fn escape_on_nonfinite() {
        let q = LinearQuantizer::new(0.1, 1 << 15);
        assert_eq!(q.quantize(f64::NAN, 0.0), QuantOutcome::Escape);
        assert_eq!(q.quantize(f64::INFINITY, 0.0), QuantOutcome::Escape);
        assert_eq!(q.quantize(0.0, f64::NAN), QuantOutcome::Escape);
    }

    #[test]
    fn symbol_mapping_roundtrip() {
        for code in [-100i64, -1, 0, 1, 2, 77, 32768, -32768] {
            let s = LinearQuantizer::symbol_of(code);
            assert_ne!(s, ESCAPE_SYMBOL);
            assert_eq!(LinearQuantizer::code_of(s), code);
        }
    }

    /// A one-tap dense stencil over a grid of zeros: the prediction is 0.
    fn zero_prediction() -> ([f64; 16], stz_simd::Stencil) {
        ([0.0; 16], stz_simd::Stencil::new(false, 1, [0; 8], [0; 8], 0.0, 0.0))
    }

    #[test]
    fn reconstruct_dense_decodes_what_code_of_does() {
        // With a zero prediction and a unit step the output *is* the code.
        let symbols = [1u32, 2, 3, 4, 65_535, 65_536, u32::MAX - 1, u32::MAX, ESCAPE_SYMBOL];
        let (prev, st) = zero_prediction();
        let q = LinearQuantizer::new(0.5, 1 << 15);
        for lane in stz_simd::available_lanes() {
            let mut codes = [0.0f64; 9];
            q.reconstruct_dense(lane, &prev, 0, &st, &symbols, &mut codes);
            for (&s, &c) in symbols.iter().zip(&codes).take(8) {
                assert_eq!(c, LinearQuantizer::code_of(s) as f64, "symbol {s} on {lane}");
            }
            assert_eq!(codes[8], i32::MIN as f64, "escape placeholder on {lane}");
        }
    }

    #[test]
    fn quantize_dense_matches_per_point_to_the_radius_cap() {
        // Codes at, next to and beyond the largest radius: the symbol must be
        // `symbol_of`'s, or an escape — never a truncated one.
        let (prev, st) = zero_prediction();
        let cap = LinearQuantizer::MAX_RADIUS;
        let q = LinearQuantizer::new(0.5, cap);
        let actuals: Vec<f64> = [0, 1, -1, 77, cap - 1, 1 - cap, cap, -cap, cap + 1, -cap - 1]
            .iter()
            .map(|&c| c as f64)
            .collect();
        for lane in stz_simd::available_lanes() {
            let mut symbols = vec![9u32; actuals.len()];
            let mut recon = vec![9.0f64; actuals.len()];
            let escaped =
                q.quantize_dense(lane, &prev, 0, &st, &actuals, &mut symbols, Some(&mut recon));
            assert!(escaped, "beyond the radius escapes on {lane}");
            for (i, &a) in actuals.iter().enumerate() {
                match q.quantize(a, 0.0) {
                    QuantOutcome::Escape => assert_eq!(symbols[i], ESCAPE_SYMBOL, "{a} on {lane}"),
                    QuantOutcome::Code { symbol, reconstructed } => {
                        assert_eq!(symbols[i], symbol, "{a} on {lane}");
                        assert_eq!(recon[i].to_bits(), reconstructed.to_bits(), "{a} on {lane}");
                        assert_eq!(LinearQuantizer::code_of(symbol) as f64, a);
                    }
                }
            }
            assert_eq!(symbols.iter().filter(|&&s| s == ESCAPE_SYMBOL).count(), 2);
        }
        assert!(LinearQuantizer::radius_in_range(cap) && LinearQuantizer::radius_in_range(1));
        assert!(!LinearQuantizer::radius_in_range(cap + 1) && !LinearQuantizer::radius_in_range(0));
    }

    #[test]
    fn small_codes_get_small_symbols() {
        assert_eq!(LinearQuantizer::symbol_of(0), 1);
        assert_eq!(LinearQuantizer::symbol_of(-1), 2);
        assert_eq!(LinearQuantizer::symbol_of(1), 3);
    }

    #[test]
    fn reconstruction_matches_compressor_view() {
        // The reconstructed value returned at compression time must equal the
        // decompressor's arithmetic exactly — this is what prevents error
        // propagation across hierarchy levels.
        let q = LinearQuantizer::new(0.05, 1 << 15);
        let pred = std::f64::consts::PI;
        let actual = 3.3;
        if let QuantOutcome::Code { symbol, reconstructed } = q.quantize(actual, pred) {
            assert_eq!(q.reconstruct(symbol, pred).to_bits(), reconstructed.to_bits());
        } else {
            panic!("should be codable");
        }
    }

    #[test]
    fn alphabet_is_bounded() {
        let q = LinearQuantizer::new(0.1, 4);
        for i in -400..400 {
            if let QuantOutcome::Code { symbol, .. } = q.quantize(i as f64 * 0.01, 0.0) {
                assert!((symbol as usize) < q.alphabet_size());
            }
        }
    }
}
