//! Zero-dependency observability for the STZ workspace.
//!
//! Three small, allocation-light facilities, shared by every layer from
//! the codec's thread pool up to the archive server:
//!
//! * **Metrics** — lock-free [`Counter`]s, [`Gauge`]s, and fixed-log-bucket
//!   [`Histogram`]s (geometric buckets: factor-2 bounds from a
//!   configurable first bound), with exact p50/p99 extraction from
//!   snapshots.
//! * **Spans** — [`Span`] RAII guards that time a scope and feed the
//!   elapsed nanoseconds into a histogram on drop; resolve the histogram
//!   once from a [`Registry`] and open spans with [`Histogram::span`].
//! * **Structured logging** — a leveled logger configured by the `STZ_LOG`
//!   environment variable, emitting logfmt-style text or JSON lines to
//!   stderr (see [`Level`] and the `log_warn!`-family macros), with a
//!   [`LogLimiter`] that collapses hot-path floods into one line per
//!   interval carrying a `suppressed=` count.
//! * **Tracing** — request-scoped span trees with deterministic ids,
//!   cross-thread and cross-process context propagation, a tail-sampling
//!   [`trace::TraceCollector`], and waterfall / Chrome-trace exporters
//!   (see the [`trace`] module).
//!
//! Metrics registered in a [`Registry`] are rendered as a versioned,
//! Prometheus-style text exposition (`name{label="v"} value` lines, see
//! [`Registry::render`]); [`expo`] parses that text back into samples so
//! clients, benches, and tests share one grammar.
//!
//! The naming contract, exposition grammar, span conventions, and
//! `STZ_LOG` syntax are documented in `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]

mod expo_mod;
mod logging;
mod metrics;
mod registry;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Span, HISTOGRAM_BUCKETS, LATENCY_FIRST_BOUND_NS,
};
pub use registry::{global, Metric, Registry};

pub use logging::{log_enabled, log_record, Level, LogLimiter};

/// Exposition text parsing (the inverse of [`Registry::render`]).
pub mod expo {
    pub use crate::expo_mod::{histogram_quantile, parse, sample_value, Sample};
}

/// Version of the text exposition grammar. The first line of every
/// rendered exposition is `# stz-telemetry exposition v<N>`, and the
/// `METRICS_OK` wire payload carries the same byte so consumers can
/// reject text they do not understand.
pub const EXPOSITION_VERSION: u8 = 1;
