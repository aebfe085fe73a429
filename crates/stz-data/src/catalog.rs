//! Dataset catalogue mirroring the paper's Table 2.

use crate::synth;
use stz_field::{Dims, Field};

/// The four evaluation datasets of the paper (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Nyx cosmology, FP32, 512³.
    Nyx,
    /// WarpX plasma accelerator, FP64, 256²×2048.
    WarpX,
    /// Magnetic Reconnection plasma physics, FP32, 512³.
    MagneticReconnection,
    /// Miranda hydrodynamics, FP32, 1024³.
    Miranda,
}

/// A generated field, typed as in the paper (WarpX is FP64, the rest FP32).
#[derive(Debug, Clone)]
pub enum DatasetField {
    F32(Field<f32>),
    F64(Field<f64>),
}

impl DatasetField {
    pub fn dims(&self) -> Dims {
        match self {
            DatasetField::F32(f) => f.dims(),
            DatasetField::F64(f) => f.dims(),
        }
    }

    pub fn nbytes(&self) -> usize {
        match self {
            DatasetField::F32(f) => f.nbytes(),
            DatasetField::F64(f) => f.nbytes(),
        }
    }
}

impl Dataset {
    /// All datasets in the paper's presentation order.
    pub fn all() -> [Dataset; 4] {
        [Dataset::Nyx, Dataset::WarpX, Dataset::MagneticReconnection, Dataset::Miranda]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Nyx => "Nyx",
            Dataset::WarpX => "WarpX",
            Dataset::MagneticReconnection => "Magnetic Reconnection",
            Dataset::Miranda => "Miranda",
        }
    }

    /// Full paper-scale dims (Table 2).
    pub fn paper_dims(&self) -> Dims {
        match self {
            Dataset::Nyx => Dims::d3(512, 512, 512),
            Dataset::WarpX => Dims::d3(256, 256, 2048),
            Dataset::MagneticReconnection => Dims::d3(512, 512, 512),
            Dataset::Miranda => Dims::d3(1024, 1024, 1024),
        }
    }

    /// Dims scaled down by `factor` per axis (≥ 1), preserving the paper's
    /// aspect ratios; used for laptop-scale benchmark runs.
    pub fn scaled_dims(&self, factor: usize) -> Dims {
        assert!(factor >= 1);
        let [nz, ny, nx] = self.paper_dims().as_array();
        Dims::d3((nz / factor).max(4), (ny / factor).max(4), (nx / factor).max(4))
    }

    /// Whether the field is FP64 (only WarpX, per Table 2).
    pub fn is_f64(&self) -> bool {
        matches!(self, Dataset::WarpX)
    }

    /// Generate the synthetic analogue at the given dims.
    pub fn generate(&self, dims: Dims, seed: u64) -> DatasetField {
        match self {
            Dataset::Nyx => DatasetField::F32(synth::nyx_like(dims, seed)),
            Dataset::WarpX => DatasetField::F64(synth::warpx_like(dims, seed)),
            Dataset::MagneticReconnection => DatasetField::F32(synth::magrec_like(dims, seed)),
            Dataset::Miranda => DatasetField::F32(synth::miranda_like(dims, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dims_match_table2() {
        assert_eq!(Dataset::Nyx.paper_dims().as_array(), [512, 512, 512]);
        assert_eq!(Dataset::WarpX.paper_dims().as_array(), [256, 256, 2048]);
        assert_eq!(Dataset::Miranda.paper_dims().as_array(), [1024, 1024, 1024]);
        // Per-timestep sizes from Table 2.
        assert_eq!(Dataset::Nyx.paper_dims().len() * 4, 512 << 20);
        assert_eq!(Dataset::WarpX.paper_dims().len() * 8, 1024 << 20);
        assert_eq!(Dataset::Miranda.paper_dims().len() * 4, 4096 << 20);
    }

    #[test]
    fn types_match_table2() {
        for d in Dataset::all() {
            let f = d.generate(Dims::d3(8, 8, 16), 1);
            match (d.is_f64(), &f) {
                (true, DatasetField::F64(_)) | (false, DatasetField::F32(_)) => {}
                _ => panic!("{} has wrong element type", d.name()),
            }
        }
    }

    #[test]
    fn scaled_dims_preserve_aspect() {
        let d = Dataset::WarpX.scaled_dims(8);
        assert_eq!(d.as_array(), [32, 32, 256]);
    }

    #[test]
    fn generate_is_deterministic() {
        for d in Dataset::all() {
            let a = d.generate(Dims::d3(8, 8, 8), 5);
            let b = d.generate(Dims::d3(8, 8, 8), 5);
            match (a, b) {
                (DatasetField::F32(x), DatasetField::F32(y)) => assert_eq!(x, y),
                (DatasetField::F64(x), DatasetField::F64(y)) => assert_eq!(x, y),
                _ => panic!("type mismatch"),
            }
        }
    }
}
