//! Error-bound calibration: find the bound that hits a target compression
//! ratio, for the paper's matched-CR visual comparisons (Figs. 3 and 12).

use stz_field::{Field, Scalar};

/// Binary-search the absolute error bound at which `compress` produces a
/// compression ratio within `rel_tol` of `target_cr`. Returns
/// `(eb, bytes)`. CR is monotone non-decreasing in `eb` for every codec in
/// this workspace, which is what the search relies on.
pub fn eb_for_target_cr<T: Scalar>(
    field: &Field<T>,
    target_cr: f64,
    rel_tol: f64,
    compress: impl Fn(&Field<T>, f64) -> Vec<u8>,
) -> (f64, Vec<u8>) {
    let (lo_v, hi_v) = field.value_range();
    let range = (hi_v - lo_v).max(f64::MIN_POSITIVE);
    let raw = field.nbytes() as f64;

    let mut eb_lo = range * 1e-9;
    let mut eb_hi = range * 1.0;
    let mut best = (eb_lo, compress(field, eb_lo));

    // Ensure the bracket actually spans the target.
    let cr_of = |bytes: &Vec<u8>| raw / bytes.len() as f64;
    for _ in 0..40 {
        let eb = (eb_lo.ln() * 0.5 + eb_hi.ln() * 0.5).exp();
        let bytes = compress(field, eb);
        let cr = cr_of(&bytes);
        let best_cr = cr_of(&best.1);
        if (cr / target_cr - 1.0).abs() < (best_cr / target_cr - 1.0).abs() {
            best = (eb, bytes);
        }
        if (cr / target_cr - 1.0).abs() <= rel_tol {
            return best;
        }
        if cr < target_cr {
            eb_lo = eb;
        } else {
            eb_hi = eb;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use stz_field::Dims;

    #[test]
    fn hits_target_within_tolerance() {
        let f = stz_data::synth::miranda_like(Dims::d3(24, 24, 24), 7);
        let target = 30.0;
        let (eb, bytes) = eb_for_target_cr(&f, target, 0.10, |fld, e| {
            stz_sz3::compress(fld, &stz_sz3::Sz3Config::absolute(e)).unwrap()
        });
        let cr = f.nbytes() as f64 / bytes.len() as f64;
        assert!(eb > 0.0);
        assert!((cr / target - 1.0).abs() < 0.25, "cr {cr} target {target}");
    }
}
