//! Compressor configuration.

use stz_field::{Field, Scalar};

/// Error-bound specification shared by every compressor in the workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Point-wise absolute bound: `|recon - orig| <= eb`.
    Absolute(f64),
    /// Bound relative to the field's value range:
    /// `|recon - orig| <= eb * (max - min)`.
    Relative(f64),
}

impl ErrorBound {
    /// Resolve to an absolute bound for a concrete field.
    pub fn absolute_for<T: Scalar>(&self, field: &Field<T>) -> f64 {
        match *self {
            ErrorBound::Absolute(eb) => eb,
            ErrorBound::Relative(rel) => {
                let (lo, hi) = field.value_range();
                let range = hi - lo;
                if range > 0.0 {
                    rel * range
                } else {
                    // Constant field: any positive bound works.
                    rel.max(f64::MIN_POSITIVE)
                }
            }
        }
    }
}

/// Interpolation order for the prediction stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpKind {
    /// 2-point linear interpolation.
    Linear,
    /// 4-point cubic spline (not-a-knot), SZ3's default.
    Cubic,
}

/// Configuration for the SZ3-style compressor.
#[derive(Debug, Clone, Copy)]
pub struct Sz3Config {
    /// Error bound.
    pub eb: ErrorBound,
    /// Quantizer radius: maximum |code| before escaping (SZ3 default 2^15),
    /// in `1..=`[`stz_codec::LinearQuantizer::MAX_RADIUS`] — the compressor
    /// panics on any other, before it quantizes anything.
    pub radius: i64,
    /// Interpolation order (SZ3 default cubic).
    pub interp: InterpKind,
}

impl Sz3Config {
    /// Default-configured compressor at absolute error bound `eb`.
    pub fn absolute(eb: f64) -> Self {
        Sz3Config { eb: ErrorBound::Absolute(eb), radius: 1 << 15, interp: InterpKind::Cubic }
    }

    /// Default-configured compressor at value-range-relative bound `rel`.
    pub fn relative(rel: f64) -> Self {
        Sz3Config { eb: ErrorBound::Relative(rel), radius: 1 << 15, interp: InterpKind::Cubic }
    }

    pub fn with_interp(mut self, interp: InterpKind) -> Self {
        self.interp = interp;
        self
    }

    pub fn with_radius(mut self, radius: i64) -> Self {
        self.radius = radius;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stz_field::Dims;

    #[test]
    fn absolute_passthrough() {
        let f = Field::from_fn(Dims::d1(4), |_, _, x| x as f32);
        assert_eq!(ErrorBound::Absolute(0.5).absolute_for(&f), 0.5);
    }

    #[test]
    fn relative_scales_by_range() {
        let f = Field::from_fn(Dims::d1(5), |_, _, x| x as f32 * 2.0); // range 8
        assert!((ErrorBound::Relative(0.01).absolute_for(&f) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn relative_on_constant_field_is_positive() {
        let f = Field::from_fn(Dims::d1(5), |_, _, _| 3.0f32);
        assert!(ErrorBound::Relative(1e-3).absolute_for(&f) > 0.0);
    }

    #[test]
    fn builders() {
        let c = Sz3Config::absolute(0.1).with_interp(InterpKind::Linear).with_radius(64);
        assert_eq!(c.interp, InterpKind::Linear);
        assert_eq!(c.radius, 64);
    }
}
