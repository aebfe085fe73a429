//! # stz-mutate — live ingestion and atomic updates for STZC archives
//!
//! The container format (see `stz-stream`, `docs/FORMAT.md`) is write-once
//! through v2: a trailer at EOF is the only pointer to the index, so the
//! file is complete exactly when the writer finishes, and never before.
//! Long-running ingestion — a simulation emitting time steps, a server
//! accepting uploads — needs the opposite: a container that *stays valid
//! at every instant* while entries are appended, replaced, and deleted.
//!
//! This crate adds that as format v3 (`docs/MUTABILITY.md` for the full
//! treatment):
//!
//! * [`MutableContainer`] — the single writer. Payloads stage strictly
//!   past the committed tail; [`commit`](MutableContainer::commit) writes
//!   the new footer, syncs, then flips a single 48-byte *shadow generation
//!   slot* (write the inactive slot, never the active one). A crash at any
//!   byte offset leaves the previous generation intact or the flip-slot
//!   torn-and-ignored — readers always see a complete generation.
//! * [`MutableContainer::append_pipelined`] — parallel ingestion on
//!   `stz_core::pool::pipeline`, as `pack_pipelined` packs, staging
//!   byte-identical to a serial append loop.
//! * [`MutableContainer::compact`] — rewrite live payloads into a fresh
//!   image and atomically swap it in (sibling file + `rename(2)`),
//!   reclaiming dead bytes while concurrent readers finish on the old
//!   inode.
//! * [`upgrade_image`] / [`upgrade_path`] — lift a write-once v1/v2
//!   container into the mutable layout (same payload bytes, same CRCs).
//! * [`RecordingBacking`] + [`replay_prefix`] — the crash-safety harness:
//!   journal every write a real mutation sequence performs, then replay
//!   arbitrary byte prefixes and prove each one opens as a committed
//!   generation or a cleanly detected torn file.
//!
//! ## Quick start
//!
//! ```
//! use stz_core::{StzCompressor, StzConfig};
//! use stz_field::{Dims, Field};
//! use stz_mutate::{MemBacking, MutableContainer};
//!
//! let field = Field::from_fn(Dims::d3(12, 12, 12), |z, y, x| {
//!     (z as f32 * 0.3).sin() + (y as f32 * 0.2).cos() + x as f32 * 0.01
//! });
//! let archive = StzCompressor::new(StzConfig::three_level(1e-3))
//!     .compress(&field)
//!     .unwrap();
//!
//! // Normally `MutableContainer::open_path("data.stzc")`.
//! let mut mc = MutableContainer::create(MemBacking::empty()).unwrap();
//! mc.append("t0", &archive.clone().into()).unwrap();
//! let generation = mc.commit().unwrap(); // now visible to readers
//! assert_eq!(generation, 2);
//! mc.replace("t0", &archive.into()).unwrap();
//! mc.commit().unwrap();
//! let reclaimed = mc.compact().unwrap().reclaimed_bytes;
//! assert!(reclaimed > 0);
//! ```

#![warn(missing_docs)]

pub mod backing;
pub mod container;
mod metrics;

pub use backing::{
    journal_cost, op_cost, replay_prefix, FileBacking, MemBacking, MutBacking, RecordingBacking,
    WriteOp,
};
pub use container::{upgrade_image, upgrade_path, CompactStats, MutStats, MutableContainer};
