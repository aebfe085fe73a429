//! The SZ3-style compression and decompression driver.

use crate::config::Sz3Config;
use crate::interp::{for_each_target, plan, predict_1d, Pass};
use crate::quant::{quantize_scalar, reconstruct_scalar, ScalarQuant};
use crate::stream::{self, Header};
use stz_codec::{
    huffman, ByteReader, ByteWriter, CodecError, LinearQuantizer, Result, ESCAPE_SYMBOL,
};
use stz_field::{Dims, Field, Scalar};

/// Compression statistics for analysis and the benchmark harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressStats {
    /// Total points compressed.
    pub total_points: usize,
    /// Points that escaped the quantizer (stored bit-exact).
    pub escapes: usize,
    /// Absolute error bound actually used.
    pub eb_used: f64,
    /// Bytes of the Huffman-coded symbol stream (incl. table).
    pub code_bytes: usize,
    /// Bytes of bit-exact outliers.
    pub outlier_bytes: usize,
}

/// Compress a field; returns the self-contained archive bytes, or the quantizer's refusal.
pub fn compress<T: Scalar>(field: &Field<T>, config: &Sz3Config) -> Result<Vec<u8>> {
    Ok(compress_with_stats(field, config)?.0)
}

/// Compress a field and report statistics.
pub fn compress_with_stats<T: Scalar>(
    field: &Field<T>,
    config: &Sz3Config,
) -> Result<(Vec<u8>, CompressStats)> {
    let (bytes, stats, _recon) = compress_full(field, config)?;
    Ok((bytes, stats))
}

/// Compress a field, additionally returning the reconstructed values the
/// decompressor will produce (in C order, already rounded through `T`).
///
/// STZ uses this to obtain its reconstructed level-1 lattice — the prediction
/// source for finer levels — without paying for a decompression round-trip.
pub fn compress_full<T: Scalar>(
    field: &Field<T>,
    config: &Sz3Config,
) -> Result<(Vec<u8>, CompressStats, Vec<f64>)> {
    let dims = field.dims();
    let eb = config.eb.absolute_for(field);
    let quant = LinearQuantizer::encoder(eb, config.radius)?;

    // Working buffer holds the evolving *reconstructed* values.
    let mut buf: Vec<f64> = field.as_slice().iter().map(|v| v.to_f64()).collect();
    let mut symbols: Vec<u32> = Vec::with_capacity(dims.len());
    let mut outliers: Vec<T> = Vec::new();

    // The corner point is predicted as 0 (SZ3 convention).
    quantize_point::<T>(&quant, &mut buf, 0, 0.0, field.as_slice(), &mut symbols, &mut outliers);

    for pass in plan(dims) {
        run_pass_compress::<T>(
            dims,
            &pass,
            config,
            &quant,
            &mut buf,
            field.as_slice(),
            &mut symbols,
            &mut outliers,
        );
    }

    let mut w = ByteWriter::with_capacity(symbols.len() / 2 + 64);
    let header =
        Header { dims, type_tag: T::TYPE_TAG, eb, radius: config.radius, interp: config.interp };
    stream::write_header(&mut w, &header);
    let code_block = huffman::encode_block(&symbols);
    let code_bytes = code_block.len();
    w.put_block(&code_block);
    let before_outliers = w.len();
    stream::write_outliers(&mut w, &outliers);
    let outlier_bytes = w.len() - before_outliers;

    let stats = CompressStats {
        total_points: dims.len(),
        escapes: outliers.len(),
        eb_used: eb,
        code_bytes,
        outlier_bytes,
    };
    Ok((w.finish(), stats, buf))
}

#[inline]
fn quantize_point<T: Scalar>(
    quant: &LinearQuantizer,
    buf: &mut [f64],
    idx: usize,
    pred: f64,
    original: &[T],
    symbols: &mut Vec<u32>,
    outliers: &mut Vec<T>,
) {
    match quantize_scalar::<T>(quant, buf[idx], pred) {
        ScalarQuant::Code { symbol, recon } => {
            symbols.push(symbol);
            buf[idx] = recon;
        }
        ScalarQuant::Escape => {
            symbols.push(ESCAPE_SYMBOL);
            outliers.push(original[idx]);
            // buf[idx] keeps the exact value: that is what the decompressor
            // will reconstruct from the outlier store.
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_pass_compress<T: Scalar>(
    dims: Dims,
    pass: &Pass,
    config: &Sz3Config,
    quant: &LinearQuantizer,
    buf: &mut [f64],
    original: &[T],
    symbols: &mut Vec<u32>,
    outliers: &mut Vec<T>,
) {
    let n_axis = dims.as_array()[pass.axis];
    let s = pass.stride;
    let axis = pass.axis;
    let kind = config.interp;
    for_each_target(dims, pass, |z, y, x| {
        let t = [z, y, x][axis];
        let pred = {
            let at = |p: usize| {
                let mut c = [z, y, x];
                c[axis] = p;
                buf[dims.index(c[0], c[1], c[2])]
            };
            predict_1d(at, t, s, n_axis, kind)
        };
        let idx = dims.index(z, y, x);
        quantize_point::<T>(quant, buf, idx, pred, original, symbols, outliers);
    });
}

/// Decompress an archive produced by [`compress`].
///
/// The element type `T` must match the archive's; a mismatch is reported as
/// [`CodecError::Corrupt`].
pub fn decompress<T: Scalar>(bytes: &[u8]) -> Result<Field<T>> {
    let mut r = ByteReader::new(bytes);
    let header = stream::read_header(&mut r)?;
    if header.type_tag != T::TYPE_TAG {
        return Err(CodecError::corrupt(format!(
            "archive element type tag {} does not match requested type",
            header.type_tag
        )));
    }
    let dims = header.dims;
    let quant = LinearQuantizer::new(header.eb, header.radius);
    let config = Sz3Config {
        eb: crate::config::ErrorBound::Absolute(header.eb),
        radius: header.radius,
        interp: header.interp,
    };

    let code_block = r.get_block()?;
    let symbols = huffman::decode_block(code_block)?;
    if symbols.len() != dims.len() {
        return Err(CodecError::corrupt(format!(
            "symbol count {} does not match dims {dims}",
            symbols.len()
        )));
    }
    let outliers: Vec<T> = stream::read_outliers(&mut r)?;
    let expected_escapes = symbols.iter().filter(|&&s| s == ESCAPE_SYMBOL).count();
    if outliers.len() != expected_escapes {
        return Err(CodecError::corrupt("outlier count does not match escape symbols"));
    }

    let mut buf = vec![0.0f64; dims.len()];
    let mut cursor = Cursor { symbols: &symbols, outliers: &outliers, pos: 0, out_pos: 0 };

    reconstruct_point::<T>(&quant, &mut buf, 0, 0.0, &mut cursor);
    for pass in plan(dims) {
        let n_axis = dims.as_array()[pass.axis];
        let s = pass.stride;
        let axis = pass.axis;
        let kind = config.interp;
        for_each_target(dims, &pass, |z, y, x| {
            let t = [z, y, x][axis];
            let pred = {
                let at = |p: usize| {
                    let mut c = [z, y, x];
                    c[axis] = p;
                    buf[dims.index(c[0], c[1], c[2])]
                };
                predict_1d(at, t, s, n_axis, kind)
            };
            let idx = dims.index(z, y, x);
            reconstruct_point::<T>(&quant, &mut buf, idx, pred, &mut cursor);
        });
    }

    let data: Vec<T> = buf.into_iter().map(T::from_f64).collect();
    Ok(Field::from_vec(dims, data))
}

struct Cursor<'a, T> {
    symbols: &'a [u32],
    outliers: &'a [T],
    pos: usize,
    out_pos: usize,
}

#[inline]
fn reconstruct_point<T: Scalar>(
    quant: &LinearQuantizer,
    buf: &mut [f64],
    idx: usize,
    pred: f64,
    cursor: &mut Cursor<'_, T>,
) {
    let symbol = cursor.symbols[cursor.pos];
    cursor.pos += 1;
    if symbol == ESCAPE_SYMBOL {
        buf[idx] = cursor.outliers[cursor.out_pos].to_f64();
        cursor.out_pos += 1;
    } else {
        buf[idx] = reconstruct_scalar::<T>(quant, symbol, pred);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ErrorBound, InterpKind};

    fn smooth_3d(n: usize) -> Field<f32> {
        Field::from_fn(Dims::d3(n, n, n), |z, y, x| {
            let (zf, yf, xf) = (z as f32 / n as f32, y as f32 / n as f32, x as f32 / n as f32);
            (6.0 * zf).sin() + (5.0 * yf).cos() * (7.0 * xf).sin() + 0.5 * xf * yf
        })
    }

    fn max_err(a: &Field<f32>, b: &Field<f32>) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| ((x as f64) - (y as f64)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn the_largest_radius_keeps_the_bound_on_a_spike() {
        // A code far beyond `u32`: it must escape, not wrap into a small one.
        let mut f = Field::<f64>::zeros(Dims::d3(8, 8, 8));
        f.set(3, 4, 5, 1e7);
        let config = Sz3Config::absolute(1e-3).with_radius(LinearQuantizer::MAX_RADIUS);
        let back: Field<f64> = decompress(&compress(&f, &config).unwrap()).unwrap();
        assert!(f.as_slice().iter().zip(back.as_slice()).all(|(a, b)| (a - b).abs() <= 1e-3));
    }

    #[test]
    fn a_radius_the_symbols_cannot_hold_is_refused() {
        // So are a radius of 0 and a bound of 0 or NaN: refused, not a panic.
        let (f, max) = (smooth_3d(4), LinearQuantizer::MAX_RADIUS);
        for config in [
            Sz3Config::absolute(1e-3).with_radius(1 << 31),
            Sz3Config::absolute(1e-3).with_radius(max + 1),
            Sz3Config::absolute(1e-3).with_radius(0),
            Sz3Config::absolute(0.0),
            Sz3Config::absolute(f64::NAN),
        ] {
            let refused = compress(&f, &config).unwrap_err();
            assert!(matches!(refused, CodecError::Unsupported(_)), "{config:?}: {refused}");
            assert!(matches!(compress_full(&f, &config), Err(CodecError::Unsupported(_))));
        }
    }

    #[test]
    fn roundtrip_error_bounded() {
        let f = smooth_3d(20);
        for eb in [1e-1, 1e-2, 1e-3, 1e-4] {
            let bytes = compress(&f, &Sz3Config::absolute(eb)).unwrap();
            let back: Field<f32> = decompress(&bytes).unwrap();
            assert_eq!(back.dims(), f.dims());
            assert!(max_err(&f, &back) <= eb, "eb {eb}");
        }
    }

    #[test]
    fn compresses_smooth_data_well() {
        let f = smooth_3d(32);
        let (bytes, stats) = compress_with_stats(&f, &Sz3Config::absolute(1e-3)).unwrap();
        let cr = f.nbytes() as f64 / bytes.len() as f64;
        assert!(cr > 4.0, "compression ratio {cr} too low for smooth data");
        assert_eq!(stats.total_points, f.len());
        assert!(stats.escapes < f.len() / 100);
    }

    #[test]
    fn cubic_beats_linear_on_smooth_data() {
        let f = smooth_3d(32);
        let cubic = compress(&f, &Sz3Config::absolute(1e-3)).unwrap();
        let linear =
            compress(&f, &Sz3Config::absolute(1e-3).with_interp(InterpKind::Linear)).unwrap();
        assert!(cubic.len() < linear.len(), "cubic {} vs linear {}", cubic.len(), linear.len());
    }

    #[test]
    fn roundtrip_f64() {
        let f = Field::from_fn(Dims::d3(9, 9, 9), |z, y, x| {
            ((z + 2 * y + 3 * x) as f64 * 0.01).sin() * 1e6
        });
        let bytes = compress(&f, &Sz3Config::absolute(1.0)).unwrap();
        let back: Field<f64> = decompress(&bytes).unwrap();
        let err = f
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err <= 1.0);
    }

    #[test]
    fn roundtrip_1d_2d_and_tiny() {
        for dims in [Dims::d1(1), Dims::d1(2), Dims::d1(100), Dims::d2(17, 9), Dims::d3(2, 2, 2)] {
            let f = Field::from_fn(dims, |z, y, x| ((z * 31 + y * 7 + x) as f32).sqrt());
            let bytes = compress(&f, &Sz3Config::absolute(1e-2)).unwrap();
            let back: Field<f32> = decompress(&bytes).unwrap();
            assert!(max_err(&f, &back) <= 1e-2, "dims {dims}");
        }
    }

    #[test]
    fn relative_bound_respects_range() {
        let f = smooth_3d(16).map(|v| v * 1000.0);
        let rel = 1e-4;
        let bytes = compress(
            &f,
            &Sz3Config { eb: ErrorBound::Relative(rel), ..Sz3Config::absolute(0.0_f64.max(1.0)) },
        )
        .unwrap();
        let back: Field<f32> = decompress(&bytes).unwrap();
        let (lo, hi) = f.value_range();
        assert!(max_err(&f, &back) <= rel * (hi - lo) * (1.0 + 1e-9));
    }

    #[test]
    fn outliers_survive_extreme_values() {
        let mut f = smooth_3d(8);
        f.set(3, 3, 3, 1e30);
        f.set(0, 0, 0, -1e30);
        let bytes = compress(&f, &Sz3Config::absolute(1e-3)).unwrap();
        let back: Field<f32> = decompress(&bytes).unwrap();
        assert_eq!(back.get(3, 3, 3), 1e30);
        assert_eq!(back.get(0, 0, 0), -1e30);
        assert!(max_err(&f, &back) <= 1e-3);
    }

    #[test]
    fn nan_values_roundtrip_exactly() {
        let mut f = smooth_3d(8);
        f.set(1, 2, 3, f32::NAN);
        let bytes = compress(&f, &Sz3Config::absolute(1e-3)).unwrap();
        let back: Field<f32> = decompress(&bytes).unwrap();
        assert!(back.get(1, 2, 3).is_nan());
    }

    #[test]
    fn wrong_type_rejected() {
        let f = smooth_3d(8);
        let bytes = compress(&f, &Sz3Config::absolute(1e-3)).unwrap();
        assert!(decompress::<f64>(&bytes).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        let f = smooth_3d(8);
        let bytes = compress(&f, &Sz3Config::absolute(1e-3)).unwrap();
        for cut in 0..bytes.len().min(200) {
            let _ = decompress::<f32>(&bytes[..cut]);
        }
        // Also try a corrupted interior byte.
        let mut corrupted = bytes.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0xFF;
        let _ = decompress::<f32>(&corrupted);
    }

    #[test]
    fn compress_full_recon_matches_decompress() {
        // The recon buffer returned at compression time must be bit-identical
        // to what decompression produces — this is the contract STZ's
        // hierarchical prediction relies on.
        let f = smooth_3d(16);
        let (bytes, _, recon) = compress_full(&f, &Sz3Config::absolute(1e-3)).unwrap();
        let back: Field<f32> = decompress(&bytes).unwrap();
        for (i, (&r, &d)) in recon.iter().zip(back.as_slice()).enumerate() {
            assert_eq!((r as f32).to_bits(), d.to_bits(), "mismatch at {i}");
        }
    }

    #[test]
    fn decompression_is_deterministic() {
        let f = smooth_3d(12);
        let bytes = compress(&f, &Sz3Config::absolute(1e-3)).unwrap();
        let a: Field<f32> = decompress(&bytes).unwrap();
        let b: Field<f32> = decompress(&bytes).unwrap();
        assert_eq!(a, b);
    }
}
