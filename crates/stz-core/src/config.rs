//! STZ compressor configuration.

use std::fmt;
use stz_codec::LinearQuantizer;
use stz_field::{Field, Scalar};
use stz_sz3::{ErrorBound, InterpKind};

/// A rejected [`StzConfig`], diagnosed *before* any compression work.
///
/// The compressor validates its configuration up front and returns one of
/// these typed classes, so a bad bound or level count surfaces as a clean
/// error at the API boundary instead of an assert (or a wrong answer) deep
/// inside the level pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The error bound is non-finite or not strictly positive.
    BadErrorBound(f64),
    /// The level count is outside the supported `2..=4` range (0 and 1
    /// included — a hierarchy needs at least two levels).
    BadLevels(u8),
    /// The adaptive ratio is non-finite or below 1. The archive header
    /// stores it whether or not `adaptive` is set, and a reader refuses
    /// such a header.
    BadAdaptiveRatio(f64),
    /// The quantizer radius is outside `1..=`[`LinearQuantizer::MAX_RADIUS`]:
    /// beyond it a symbol no longer fits the stream and the bound would
    /// silently break.
    BadRadius(i64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadErrorBound(eb) => {
                write!(f, "error bound {eb} must be positive and finite")
            }
            ConfigError::BadLevels(levels) => {
                write!(f, "{levels} levels requested; STZ supports 2–4")
            }
            ConfigError::BadAdaptiveRatio(r) => {
                write!(f, "adaptive ratio {r} must be finite and at least 1")
            }
            ConfigError::BadRadius(r) => {
                write!(f, "quantizer radius {r} must be in 1..={}", LinearQuantizer::MAX_RADIUS)
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Default ratio between consecutive level error bounds (paper §3.1,
/// prediction optimization 5: `eb_l2 = 2.5 × eb_l1`).
pub const DEFAULT_ADAPTIVE_RATIO: f64 = 2.5;

/// Configuration of the STZ streaming compressor.
///
/// The error bound `eb` is the *user-facing* point-wise bound: it applies to
/// the finest level, which dominates the data (87.5% in 3-D). With
/// `adaptive` enabled, each coarser level is compressed `adaptive_ratio`
/// times more precisely, both because coarser-level errors propagate into
/// finer-level predictions and because the coarse levels serve as standalone
/// progressive previews (paper §3.1, optimization 5).
#[derive(Debug, Clone, Copy)]
pub struct StzConfig {
    /// Error bound at the finest level.
    pub eb: ErrorBound,
    /// Number of hierarchy levels (2–4; the paper evaluates 2 and 3 and
    /// proposes 4 for ≥4096³ grids).
    pub levels: u8,
    /// Interpolation order of the hierarchical prediction.
    pub interp: InterpKind,
    /// Whether coarser levels use tighter error bounds.
    pub adaptive: bool,
    /// Ratio between consecutive level bounds when `adaptive` is set.
    pub adaptive_ratio: f64,
    /// Quantizer radius (maximum |code| before escaping).
    pub radius: i64,
}

impl StzConfig {
    /// The paper's default: 3-level partition, cubic interpolation, adaptive
    /// error bounds.
    pub fn three_level(eb: f64) -> Self {
        StzConfig {
            eb: ErrorBound::Absolute(eb),
            levels: 3,
            interp: InterpKind::Cubic,
            adaptive: true,
            adaptive_ratio: DEFAULT_ADAPTIVE_RATIO,
            radius: 1 << 15,
        }
    }

    /// The 2-level variant of §3.1.
    pub fn two_level(eb: f64) -> Self {
        StzConfig { levels: 2, ..StzConfig::three_level(eb) }
    }

    /// Value-range-relative error bound variant.
    pub fn three_level_relative(rel: f64) -> Self {
        StzConfig { eb: ErrorBound::Relative(rel), ..StzConfig::three_level(0.0_f64.max(1.0)) }
    }

    pub fn with_levels(mut self, levels: u8) -> Self {
        self.levels = levels;
        self
    }

    pub fn with_interp(mut self, interp: InterpKind) -> Self {
        self.interp = interp;
        self
    }

    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    pub fn with_radius(mut self, radius: i64) -> Self {
        self.radius = radius;
        self
    }

    /// Check the configuration, classifying the first problem found.
    ///
    /// The builders are plain setters and this is the one check. The
    /// compressor calls it before touching the field, so a config from the
    /// builders or from raw struct fields fails cleanly: a NaN or negative
    /// bound, a 0/1/5-level hierarchy, a degenerate adaptive ratio, or a
    /// radius that is not positive or too large for the symbol stream each
    /// map to their [`ConfigError`] variant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let raw_eb = match self.eb {
            ErrorBound::Absolute(eb) | ErrorBound::Relative(eb) => eb,
        };
        if !(raw_eb > 0.0 && raw_eb.is_finite()) {
            return Err(ConfigError::BadErrorBound(raw_eb));
        }
        if !(2..=4).contains(&self.levels) {
            return Err(ConfigError::BadLevels(self.levels));
        }
        if !(self.adaptive_ratio >= 1.0 && self.adaptive_ratio.is_finite()) {
            return Err(ConfigError::BadAdaptiveRatio(self.adaptive_ratio));
        }
        if !LinearQuantizer::radius_in_range(self.radius) {
            return Err(ConfigError::BadRadius(self.radius));
        }
        Ok(())
    }

    /// Resolve the per-level absolute error bounds for a concrete field.
    /// Index 0 is level 1 (coarsest); the last entry is the finest level and
    /// equals the user bound.
    pub fn level_ebs<T: Scalar>(&self, field: &Field<T>) -> Vec<f64> {
        let eb = self.eb.absolute_for(field);
        self.level_ebs_from_absolute(eb)
    }

    /// Same as [`StzConfig::level_ebs`] given an already-resolved bound.
    pub fn level_ebs_from_absolute(&self, eb: f64) -> Vec<f64> {
        assert!(eb > 0.0 && eb.is_finite(), "error bound must be positive");
        let ratio = if self.adaptive { self.adaptive_ratio } else { 1.0 };
        (0..self.levels)
            .map(|k| {
                let depth = (self.levels - 1 - k) as i32;
                eb / ratio.powi(depth)
            })
            .collect()
    }

    /// [`StzConfig::level_ebs_from_absolute`] where every level has a
    /// quantizer step: `None` where `eb` is not positive and finite, or
    /// leaves a level's bound zero (an `eb` near zero underflows at the
    /// coarser levels) or infinite.
    pub fn usable_level_ebs(&self, eb: f64) -> Option<Vec<f64>> {
        let usable = |eb: f64| eb > 0.0 && eb.is_finite();
        usable(eb)
            .then(|| self.level_ebs_from_absolute(eb))
            .filter(|ebs| ebs.iter().all(|&e| usable(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stz_field::Dims;

    #[test]
    fn three_level_defaults() {
        let c = StzConfig::three_level(0.01);
        assert_eq!(c.levels, 3);
        assert_eq!(c.interp, InterpKind::Cubic);
        assert!(c.adaptive);
    }

    #[test]
    fn adaptive_ebs_scale_by_ratio() {
        let c = StzConfig::three_level(1.0);
        let ebs = c.level_ebs_from_absolute(1.0);
        assert_eq!(ebs.len(), 3);
        assert!((ebs[2] - 1.0).abs() < 1e-15);
        assert!((ebs[1] - 1.0 / 2.5).abs() < 1e-15);
        assert!((ebs[0] - 1.0 / 6.25).abs() < 1e-12);
    }

    #[test]
    fn non_adaptive_ebs_uniform() {
        let c = StzConfig::three_level(0.5).with_adaptive(false);
        let ebs = c.level_ebs_from_absolute(0.5);
        assert!(ebs.iter().all(|&e| (e - 0.5).abs() < 1e-15));
    }

    #[test]
    fn relative_bound_resolves_against_range() {
        let f = Field::from_fn(Dims::d1(3), |_, _, x| x as f32 * 10.0); // range 20
        let c = StzConfig::three_level_relative(1e-2);
        let ebs = c.level_ebs(&f);
        assert!((ebs[2] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn five_levels_rejected() {
        let cfg = StzConfig::three_level(0.1).with_levels(5);
        assert_eq!(cfg.validate(), Err(ConfigError::BadLevels(5)));
        let field = Field::from_fn(Dims::d3(8, 8, 8), |z, y, x| (z + y + x) as f32);
        let err = crate::StzCompressor::new(cfg).compress(&field).unwrap_err();
        assert!(err.to_string().contains("invalid configuration"), "{err}");
    }

    #[test]
    fn validate_accepts_every_checked_builder_output() {
        for cfg in [
            StzConfig::three_level(1e-3),
            StzConfig::two_level(0.5),
            StzConfig::three_level_relative(1e-4),
            StzConfig::three_level(1.0).with_levels(4).with_adaptive(false),
        ] {
            assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
        }
    }

    #[test]
    fn validate_classifies_bad_bounds() {
        for eb in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = StzConfig { eb: ErrorBound::Absolute(eb), ..StzConfig::three_level(1.0) };
            assert!(matches!(cfg.validate(), Err(ConfigError::BadErrorBound(_))), "abs {eb}");
            let cfg = StzConfig { eb: ErrorBound::Relative(eb), ..StzConfig::three_level(1.0) };
            assert!(matches!(cfg.validate(), Err(ConfigError::BadErrorBound(_))), "rel {eb}");
        }
    }

    #[test]
    fn validate_classifies_bad_levels_ratio_radius() {
        for levels in [0u8, 1, 5, 255] {
            let cfg = StzConfig { levels, ..StzConfig::three_level(1e-3) };
            assert_eq!(cfg.validate(), Err(ConfigError::BadLevels(levels)));
        }
        // The header stores the ratio whether or not adaptive bounds are on,
        // and a reader refuses one that is not finite and at least 1.
        for ratio in [0.0, 0.5, -2.5, f64::NAN, f64::INFINITY] {
            for adaptive in [true, false] {
                let cfg =
                    StzConfig { adaptive, adaptive_ratio: ratio, ..StzConfig::three_level(1e-3) };
                assert!(
                    matches!(cfg.validate(), Err(ConfigError::BadAdaptiveRatio(_))),
                    "{ratio} adaptive={adaptive}"
                );
            }
        }
        // Every ratio the config accepts, the reader accepts: each of these
        // compresses and round-trips.
        let field = Field::from_fn(Dims::d3(12, 10, 9), |z, y, x| (z * y) as f32 * 0.1 + x as f32);
        for cfg in [
            StzConfig::three_level(1e-3),
            StzConfig { adaptive: false, adaptive_ratio: 1.0, ..StzConfig::three_level(1e-3) },
            StzConfig { adaptive: true, adaptive_ratio: 1.0, ..StzConfig::three_level(1e-3) },
        ] {
            assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
            let archive = crate::StzCompressor::new(cfg).compress(&field).unwrap();
            let back = crate::StzArchive::<f32>::from_bytes(archive.as_bytes().to_vec()).unwrap();
            let back = back.decompress().unwrap();
            let worst = field.as_slice().iter().zip(back.as_slice());
            let worst = worst.map(|(&a, &b)| (a as f64 - b as f64).abs()).fold(0.0, f64::max);
            assert!(worst <= 1e-3, "{cfg:?}: {worst}");
        }
        let cap = LinearQuantizer::MAX_RADIUS;
        for radius in [0i64, -1, i64::MIN, cap + 1, 1 << 31, 1 << 40, i64::MAX] {
            let cfg = StzConfig { radius, ..StzConfig::three_level(1e-3) };
            assert_eq!(cfg.validate(), Err(ConfigError::BadRadius(radius)));
        }
        assert_eq!(StzConfig::three_level(1e-3).with_radius(cap).validate(), Ok(()));
    }

    #[test]
    fn a_radius_the_symbols_cannot_hold_is_rejected_not_silently_wrong() {
        // One spike over zeros: its code is ~5e9, which `zigzag + 1`
        // truncated to `u32` used to turn into a wrong small code (max error
        // 8.59e6 at radius 2^40). At the cap it escapes and the bound holds;
        // above the cap there is no archive at all.
        use crate::StzCompressor;
        let mut field = Field::<f64>::zeros(Dims::d3(16, 16, 16));
        field.set(7, 9, 5, 1e7);
        let at_cap = StzConfig::three_level(1e-3).with_radius(LinearQuantizer::MAX_RADIUS);
        let back = StzCompressor::new(at_cap).compress(&field).unwrap().decompress().unwrap();
        let worst = field.as_slice().iter().zip(back.as_slice()).map(|(a, b)| (a - b).abs());
        assert!(worst.fold(0.0, f64::max) <= 1e-3);
        for radius in [1i64 << 31, 1 << 40] {
            let cfg = StzConfig::three_level(1e-3).with_radius(radius);
            let err = StzCompressor::new(cfg).compress(&field).unwrap_err();
            assert!(err.to_string().contains("invalid configuration"), "{radius} -> {err}");
            assert_eq!(cfg.validate(), Err(ConfigError::BadRadius(radius)));
        }
    }

    #[test]
    fn compressor_returns_typed_rejection_instead_of_panicking() {
        use crate::StzCompressor;
        let field = Field::from_fn(Dims::d3(8, 8, 8), |z, y, x| (z + y + x) as f32);
        for cfg in [
            StzConfig { eb: ErrorBound::Absolute(f64::NAN), ..StzConfig::three_level(1.0) },
            StzConfig { eb: ErrorBound::Absolute(-1e-3), ..StzConfig::three_level(1.0) },
            StzConfig { levels: 0, ..StzConfig::three_level(1e-3) },
            StzConfig { levels: 9, ..StzConfig::three_level(1e-3) },
            StzConfig { adaptive_ratio: f64::NAN, ..StzConfig::three_level(1e-3) },
            StzConfig { radius: 0, ..StzConfig::three_level(1e-3) },
        ] {
            let err = StzCompressor::new(cfg).compress(&field).unwrap_err();
            assert!(err.to_string().contains("invalid configuration"), "{cfg:?} -> {err}");
        }
        // A relative bound over a constant field resolves through the
        // `MIN_POSITIVE` fallback — still a success, never an assert.
        let flat = Field::from_fn(Dims::d3(8, 8, 8), |_, _, _| 1.0f32);
        assert!(StzCompressor::new(StzConfig::three_level_relative(1e-3)).compress(&flat).is_ok());
    }

    #[test]
    fn a_bound_that_leaves_a_level_zero_is_rejected_not_a_panic() {
        // Valid configurations both: the finest bound, or the one a relative
        // bound resolves to, is positive and finite, and 6.25 times smaller
        // at level 1 it underflows to zero.
        use crate::StzCompressor;
        let field = Field::from_fn(Dims::d3(16, 16, 16), |z, y, x| (z * y + x) as f32 * 0.01);
        for cfg in [StzConfig::three_level(5e-324), StzConfig::three_level_relative(5e-324)] {
            assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
            let err = StzCompressor::new(cfg).compress(&field).unwrap_err();
            assert!(err.to_string().contains("invalid configuration"), "{cfg:?} -> {err}");
        }
        // A subnormal level bound is a step still: every point escapes.
        let compressor = StzCompressor::new(StzConfig::three_level(f64::MIN_POSITIVE));
        assert_eq!(compressor.compress(&field).unwrap().decompress().unwrap(), field);
    }
}
