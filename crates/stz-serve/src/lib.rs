//! # stz-serve — concurrent archive server + STZP wire protocol
//!
//! The storage stack ends at a `.stzc` container on one machine; this
//! crate puts it on the network. A [`Server`] hosts a directory of
//! containers over a small length-prefixed binary protocol (STZP v1, see
//! [`mod@proto`]) and lets many concurrent clients fetch **full**,
//! **progressive**, and **ROI** decodes — plus raw compressed payloads —
//! without ever shipping a whole container:
//!
//! * every connection shares the same open [`ContainerReader`]s, sound
//!   because all container I/O is positioned (`pread`-style) reads with
//!   no seek state ([`stz_stream::ByteSource`]);
//! * decode work runs on the codec's thread pool (`stz_core::pool`), so
//!   one busy request parallelizes across cores while other connections
//!   keep being accepted;
//! * responses pass through a byte-budgeted sharded LRU cache
//!   ([`DecodedCache`]) keyed by container/entry/request-kind and stored
//!   framed — a repeat request skips decompression, response encoding
//!   *and* the CRC (one write of the cached frame), and the hit / miss /
//!   eviction counters are queryable over the wire (`STATS`);
//! * both endpoints are total over arbitrary bytes: truncated frames,
//!   bad magic, oversized length prefixes, CRC mismatches and mid-stream
//!   disconnects surface as [`ServeError`]s, never panics or hangs.
//!
//! The CLI front ends live in `stz-cli` (`stz serve`, and `--from stz://…` on the read verbs);
//! `docs/SERVER.md` is the normative frame spec.
//!
//! ## Quick start
//!
//! ```no_run
//! use stz_serve::{Client, EntrySel, ServeOptions, Server};
//!
//! // Host every .stzc under ./archives on an ephemeral loopback port.
//! let server = Server::bind(ServeOptions {
//!     root: "./archives".into(),
//!     ..ServeOptions::default()
//! })?;
//! let addr = server.local_addr()?;
//! let handle = server.spawn()?;
//!
//! // Any number of concurrent clients:
//! let mut client = Client::connect(addr)?;
//! for c in client.list()? {
//!     println!("{} ({} entries)", c.name, c.entries);
//! }
//! let preview = client.fetch_level("steps", EntrySel::Name("t0".into()), 1)?;
//! let field: stz_field::Field<f32> = preview.into_field()?;
//! handle.stop();
//! # Ok::<(), stz_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod error;
pub mod proto;
pub mod server;

pub use cache::{CacheCounters, CacheKey, DecodedCache};
pub use client::Client;
pub use error::{Result, ServeError};
pub use proto::{EntrySel, FetchReq, FetchedField, RequestKind, ServerStats};
pub use server::{ServeOptions, Server, ServerHandle};
pub use stz_stream::{ContainerDesc, EntryDesc};

// Resolves the crate-docs link; also a downstream convenience.
#[doc(hidden)]
pub use stz_stream::ContainerReader;
