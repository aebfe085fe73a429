//! Scalar-type-aware quantization.
//!
//! Predictions and differences are computed in `f64`, but the decompressor
//! ultimately materializes values in the field's scalar type `T`. To keep the
//! error bound exact *in the stored type* — and compression/decompression
//! bit-reproducible — every reconstruction is rounded through `T` before the
//! bound is re-checked and before it is used as a prediction source.

use stz_codec::{LinearQuantizer, QuantOutcome};
use stz_field::Scalar;

/// Result of quantizing one scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarQuant {
    /// Emit `symbol`; the reconstruction (already rounded through `T`).
    Code { symbol: u32, recon: f64 },
    /// Emit [`stz_codec::ESCAPE_SYMBOL`] and store the value exactly.
    Escape,
}

/// Quantize `actual` against `pred` with reconstruction rounded through `T`.
#[inline]
pub fn quantize_scalar<T: Scalar>(q: &LinearQuantizer, actual: f64, pred: f64) -> ScalarQuant {
    match q.quantize(actual, pred) {
        QuantOutcome::Escape => ScalarQuant::Escape,
        QuantOutcome::Code { symbol, reconstructed } => {
            let rounded = T::from_f64(reconstructed).to_f64();
            if (rounded - actual).abs() > q.error_bound() {
                ScalarQuant::Escape
            } else {
                ScalarQuant::Code { symbol, recon: rounded }
            }
        }
    }
}

/// Reconstruct the value for a non-escape symbol, rounded through `T` —
/// the decompression mirror of [`quantize_scalar`].
#[inline]
pub fn reconstruct_scalar<T: Scalar>(q: &LinearQuantizer, symbol: u32, pred: f64) -> f64 {
    T::from_f64(q.reconstruct(symbol, pred)).to_f64()
}

/// Batch [`quantize_scalar`] on a SIMD lane, selecting the `T`-rounded
/// variant by [`Scalar::TYPE_TAG`]. Outputs as in
/// [`LinearQuantizer::quantize_run_f64`]; bit-identical to the per-point
/// function on every lane.
#[inline]
pub fn quantize_run<T: Scalar>(
    q: &LinearQuantizer,
    lane: stz_simd::Lane,
    actuals: &[f64],
    preds: &[f64],
    q_out: &mut [f64],
    recon_out: &mut [f64],
    escape_out: &mut [u8],
) {
    if T::TYPE_TAG == f32::TYPE_TAG {
        q.quantize_run_f32(lane, actuals, preds, q_out, recon_out, escape_out);
    } else {
        q.quantize_run_f64(lane, actuals, preds, q_out, recon_out, escape_out);
    }
}

/// Batch [`reconstruct_scalar`] on a SIMD lane: `out[i]` from `preds[i]`
/// and the signed code `codes[i]` (as `f64`), rounded through `T`.
#[inline]
pub fn reconstruct_run<T: Scalar>(
    q: &LinearQuantizer,
    lane: stz_simd::Lane,
    preds: &[f64],
    codes: &[f64],
    out: &mut [f64],
) {
    if T::TYPE_TAG == f32::TYPE_TAG {
        q.reconstruct_run_f32(lane, preds, codes, out);
    } else {
        q.reconstruct_run_f64(lane, preds, codes, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_matches_plain_quantizer() {
        let q = LinearQuantizer::new(1e-3, 1 << 15);
        let (actual, pred) = (1.234567, 1.2);
        match (quantize_scalar::<f64>(&q, actual, pred), q.quantize(actual, pred)) {
            (
                ScalarQuant::Code { symbol: s1, recon: r1 },
                QuantOutcome::Code { symbol: s2, reconstructed: r2 },
            ) => {
                assert_eq!(s1, s2);
                assert_eq!(r1.to_bits(), r2.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn f32_rounding_respects_bound() {
        let eb = 1e-4;
        let q = LinearQuantizer::new(eb, 1 << 15);
        // Values whose f64 reconstruction is near the bound edge must still
        // satisfy the bound after f32 rounding, or escape.
        for i in 0..10_000 {
            let actual = 1.0 + i as f64 * 1.37e-5;
            let pred = 1.0;
            match quantize_scalar::<f32>(&q, actual, pred) {
                ScalarQuant::Code { symbol, recon } => {
                    assert!((recon - actual).abs() <= eb, "bound violated at {actual}");
                    // Decompressor arrives at the identical value.
                    let dec = reconstruct_scalar::<f32>(&q, symbol, pred);
                    assert_eq!(dec.to_bits(), recon.to_bits());
                }
                ScalarQuant::Escape => {}
            }
        }
    }

    #[test]
    fn escape_passthrough() {
        let q = LinearQuantizer::new(1e-9, 4);
        assert_eq!(quantize_scalar::<f32>(&q, 100.0, 0.0), ScalarQuant::Escape);
    }

    #[test]
    fn batch_matches_per_point_for_both_types() {
        let q = LinearQuantizer::new(1e-4, 1 << 15);
        let preds: Vec<f64> = (0..200).map(|i| 1.0 + (i as f64 * 0.413).cos()).collect();
        let actuals: Vec<f64> =
            preds.iter().enumerate().map(|(i, &p)| p + (i as f64 - 100.0) * 1.7e-5).collect();
        let n = actuals.len();
        fn check<T: Scalar>(q: &LinearQuantizer, actuals: &[f64], preds: &[f64]) {
            let n = actuals.len();
            for lane in stz_simd::available_lanes() {
                let mut qs = vec![0.0; n];
                let mut rs = vec![0.0; n];
                let mut es = vec![0u8; n];
                quantize_run::<T>(q, lane, actuals, preds, &mut qs, &mut rs, &mut es);
                for i in 0..n {
                    match quantize_scalar::<T>(q, actuals[i], preds[i]) {
                        ScalarQuant::Escape => assert_eq!(es[i], 1),
                        ScalarQuant::Code { symbol, recon } => {
                            assert_eq!(es[i], 0);
                            assert_eq!(LinearQuantizer::symbol_of(qs[i] as i64), symbol);
                            assert_eq!(rs[i].to_bits(), recon.to_bits());
                            let code = [LinearQuantizer::code_of(symbol) as f64];
                            let mut out = [0.0];
                            reconstruct_run::<T>(q, lane, &preds[i..i + 1], &code, &mut out);
                            let dec = reconstruct_scalar::<T>(q, symbol, preds[i]);
                            assert_eq!(out[0].to_bits(), dec.to_bits());
                        }
                    }
                }
            }
        }
        check::<f32>(&q, &actuals, &preds);
        check::<f64>(&q, &actuals, &preds);
        assert_eq!(n, 200);
    }

    #[test]
    fn f32_recon_is_f32_representable() {
        let q = LinearQuantizer::new(0.01, 1 << 15);
        if let ScalarQuant::Code { recon, .. } = quantize_scalar::<f32>(&q, 0.3333333, 0.0) {
            assert_eq!(recon, recon as f32 as f64);
        } else {
            panic!("should code");
        }
    }
}
