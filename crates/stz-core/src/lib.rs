//! # STZ — streaming error-bounded lossy compression
//!
//! The primary contribution of *“STZ: A High Quality and High Speed Streaming
//! Lossy Compression Framework for Scientific Data”* (SC'25): an
//! error-bounded lossy compressor that simultaneously supports
//!
//! * **progressive decompression** — reconstruct a coarse (1/64- or
//!   1/8-resolution) preview from a fraction of the archive, then refine
//!   ([`progressive`]), and
//! * **random-access decompression** — reconstruct only a region of interest
//!   at full resolution ([`random_access`]),
//!
//! while matching the rate-distortion of the non-streaming SZ3 and exceeding
//! its speed.
//!
//! ## How it works (paper §3)
//!
//! The grid is partitioned into interleaved sub-lattices by stride-2 (or
//! stride-4) sampling ([`level`]). The coarsest sub-lattice is compressed
//! with the SZ3 substrate; every finer level is *predicted* from the
//! reconstructed coarser lattice by multi-dimensional cubic-spline
//! interpolation ([`kernels`]), and only the prediction residuals are
//! quantized and Huffman-coded — per sub-block, so each sub-block stream is
//! independently decodable. Finer levels have **no intra-level
//! dependencies**, which is what makes random access, progressive refinement
//! and the parallel speedups of the paper possible.
//!
//! ## Quick start
//!
//! ```
//! use stz_core::{StzCompressor, StzConfig};
//! use stz_field::{Dims, Field};
//!
//! let field = Field::from_fn(Dims::d3(24, 24, 24), |z, y, x| {
//!     ((z as f32) * 0.3).sin() + ((y as f32) * 0.2).cos() + x as f32 * 0.01
//! });
//! let archive = StzCompressor::new(StzConfig::three_level(1e-3))
//!     .compress(&field)
//!     .unwrap();
//!
//! let full = archive.decompress().unwrap();
//! let coarse = archive.decompress_level(1).unwrap(); // 1/64 of the points
//! assert_eq!(coarse.dims(), Dims::d3(6, 6, 6));
//! # let _ = full;
//! ```

pub mod ablation;
pub mod archive;
pub mod compressor;
pub mod config;
pub mod kernels;
pub mod level;
pub mod pool;
pub mod progressive;
pub mod random_access;
#[doc(hidden)]
pub mod reference;
pub mod roi;
pub mod source;
pub mod stats;

pub use archive::StzArchive;
pub use compressor::StzCompressor;
pub use config::{ConfigError, StzConfig};
pub use progressive::ProgressiveDecoder;
pub use random_access::AccessBreakdown;
pub use source::SectionSource;
pub use stz_sz3::{ErrorBound, InterpKind};
