//! Deterministic, structure-aware mutation fuzzing for the STZ parse
//! surfaces.
//!
//! Three byte-parsing surfaces ingest attacker-controlled input on every
//! remote fetch, and this crate fuzzes each of them with **zero external
//! dependencies** (no cargo-fuzz, no registry crates — the same offline
//! discipline as the rest of the workspace):
//!
//! * **container** — STZC open/list/fetch through
//!   [`stz_access::FileStore`] over an in-memory byte source;
//! * **proto** — STZP frame decode in both directions: server-side
//!   request parsing and [`stz_serve::Client`] response validation
//!   against a scripted hostile peer;
//! * **codec** — codec-registry archive sniffing and decompression
//!   ([`stz_backend::Registry::detect`] → `decompress`).
//!
//! # How it works
//!
//! The [`engine`] seeds from **valid artifacts generated in-process**
//! (packed containers, encoded frames, compressed archives), then mutates
//! them with the structure-aware operators in [`mutate`] — bit/byte
//! flips, truncations, splices, length-field and dims targeting, and
//! CRC-refixup variants so mutations penetrate past the checksum gates
//! into deep parse code. Interesting inputs are deduplicated by an
//! error-signature coverage proxy (error class × normalized failure
//! site, see [`corpus::signature`]) into an in-memory corpus that feeds
//! later mutations.
//!
//! Per-iteration oracles:
//!
//! * **no panic** — every execution runs under `catch_unwind`;
//! * **bounded allocation** — the [`alloc_guard`] tracking allocator
//!   records the largest single allocation; hostile dims/lengths must be
//!   rejected *before* memory is committed (the decode-side extension of
//!   the 256 MiB frame-cap discipline, enforced via
//!   [`stz_codec::guard`]);
//! * **parse-twice determinism** — the same input must classify
//!   identically on repeated runs;
//! * **classification stability** — for the container target, an input
//!   must classify the same through the in-memory and on-disk
//!   transports.
//!
//! Runs are reproducible from a single seed (`STZ_FUZZ_SEED` or
//! `--seed`); any oracle violation is minimized ([`engine::minimize_input`])
//! and written as a reproducer file (seed and iteration in the header,
//! see [`corpus::Reproducer`]) under `tests/corpus/regressions/`, where
//! `tests/fuzz_regressions.rs` replays it forever after.

#![warn(missing_docs)]

pub mod alloc_guard;
pub mod corpus;
pub mod engine;
pub mod mutate;
pub mod rng;
pub mod targets;

pub use corpus::{signature, Corpus, Reproducer};
pub use engine::{minimize_input, replay, run, run_main, Config, Summary, Violation};
pub use rng::{seed_from_env, FuzzRng};
pub use targets::{CodecTarget, ContainerTarget, FuzzTarget, Outcome, ProtoTarget};
