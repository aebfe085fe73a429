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
    fn f32_recon_is_f32_representable() {
        let q = LinearQuantizer::new(0.01, 1 << 15);
        if let ScalarQuant::Code { recon, .. } = quantize_scalar::<f32>(&q, 0.3333333, 0.0) {
            assert_eq!(recon, recon as f32 as f64);
        } else {
            panic!("should code");
        }
    }
}
