//! Request-scoped distributed tracing: causally-linked span trees with
//! tail-based sampling and Perfetto-loadable export.
//!
//! Aggregate metrics ([`crate::Registry`]) answer "how slow are requests
//! on average"; this module answers "where did *this* slow request spend
//! its time". A trace is one request's tree of [`SpanRecord`]s — each
//! span carries its parent id, a name, key=value attributes, and a
//! monotonic start offset + duration. Completed traces are offered to a
//! lock-sharded [`TraceCollector`] whose **tail-based sampler** always
//! retains the slowest-N and all error traces per kind, plus a small
//! ring of the most recent ones, inside a fixed memory budget.
//!
//! Design rules (same contract as the rest of the crate):
//!
//! * **Observation only** — tracing never changes an output byte or a
//!   control-flow decision (ARCHITECTURE invariant 7).
//! * **Near-zero cost when not sampled** — [`span`] on a thread with no
//!   active trace is one thread-local read and returns a no-op guard;
//!   no allocation, no lock.
//! * **No wall-clock randomness** — trace/span ids come from a
//!   deterministic per-process counter mixed through splitmix64 (seeded
//!   by the process id so two cooperating processes do not collide),
//!   and span times are [`Instant`] offsets from the trace start.
//!
//! Context propagates two ways: **across threads** via
//! [`current_context`] / [`install_context`] (`stz_core::pool` captures
//! the caller's context and installs it in every worker, so spans
//! recorded inside pool items parent correctly), and **across
//! processes** via the STZP trace-context extension (the client sends
//! its trace id + root span id with a fetch; the server roots its span
//! tree under them — see `docs/SERVER.md`).
//!
//! `STZ_TRACE=off` (or `0`/`none`) disables collection process-wide.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans retained per trace before further spans are counted as dropped
/// — bounds one trace's memory no matter how many pool chunks record.
pub const MAX_SPANS_PER_TRACE: usize = 512;

/// Slowest traces always retained per kind (the tail-sampling "N").
pub const RETAIN_SLOWEST: usize = 4;

/// Error traces retained per kind (newest win).
pub const RETAIN_ERRORS: usize = 8;

/// Most-recent traces retained per kind regardless of duration.
pub const RETAIN_RECENT: usize = 4;

/// Shards of the collector; kinds hash onto shards so concurrent
/// completions of different kinds never contend on one lock.
const SHARDS: usize = 8;

// --- Deterministic ids. -------------------------------------------------

/// splitmix64 finalizer: a bijective mix, so distinct counter values
/// always produce distinct ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

static ID_COUNTER: AtomicU64 = AtomicU64::new(0);
static ID_SEED: OnceLock<u64> = OnceLock::new();

/// Next process-unique id: deterministic counter mixed through
/// splitmix64, seeded by the process id so a client and a server on one
/// machine draw from different sequences. Never returns 0 (0 is the
/// "no parent" sentinel in [`SpanRecord`]).
pub fn next_id() -> u64 {
    let seed = *ID_SEED.get_or_init(|| splitmix64(std::process::id() as u64));
    let n = ID_COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = splitmix64(seed ^ n);
    if id == 0 {
        1
    } else {
        id
    }
}

// --- Records. -----------------------------------------------------------

/// One completed span: a named, attributed interval inside a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Id of the parent span; 0 for a root with no parent. A server
    /// trace's root span parents under the *client's* span id, which is
    /// not in the trace — renderers treat unknown parents as roots.
    pub parent: u64,
    /// What this span timed (e.g. `decode`, `stage:entropy`).
    pub name: String,
    /// Monotonic offset from the trace start, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// Key=value attributes (peer address, cache hit/miss, …).
    pub attrs: Vec<(String, String)>,
}

/// One completed trace: a request's whole span tree plus sampling
/// metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Trace id — client-generated when the request carried a
    /// trace-context extension, else minted by [`next_id`].
    pub trace_id: u64,
    /// Sampling kind (frame kind on the server: `full`, `roi`, …;
    /// `client` for client-side fetch traces).
    pub kind: String,
    /// Whether the request failed (error traces are always retained).
    pub error: bool,
    /// Root span duration in nanoseconds (the tail-sampling key).
    pub duration_ns: u64,
    /// Spans that did not fit under [`MAX_SPANS_PER_TRACE`].
    pub dropped_spans: u32,
    /// The spans, in completion order (children before parents).
    pub spans: Vec<SpanRecord>,
}

impl TraceRecord {
    /// The root span: the one whose parent is not a span of this trace.
    pub fn root(&self) -> Option<&SpanRecord> {
        let ids: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.id).collect();
        self.spans.iter().find(|s| !ids.contains(&s.parent))
    }
}

// --- The active trace and thread-local context. -------------------------

struct ActiveInner {
    trace_id: u64,
    start: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

impl ActiveInner {
    /// Append one completed span, honoring the per-trace cap.
    fn record(&self, span: SpanRecord) {
        let mut spans = match self.spans.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if spans.len() >= MAX_SPANS_PER_TRACE {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(span);
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start).as_nanos() as u64
    }
}

/// A handle to the active trace plus the span id new spans parent
/// under. Cloneable and sendable so pool workers can adopt the caller's
/// context.
#[derive(Clone)]
pub struct TraceContext {
    inner: Arc<ActiveInner>,
    parent: u64,
}

impl TraceContext {
    /// The trace id (what travels in the wire extension).
    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id
    }

    /// The span id new child spans parent under (the wire extension's
    /// parent-span field).
    pub fn span_id(&self) -> u64 {
        self.parent
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<TraceContext>> =
        const { std::cell::RefCell::new(None) };
}

/// The calling thread's active trace context, if any — capture this
/// before handing work to another thread, then [`install_context`]
/// there.
pub fn current_context() -> Option<TraceContext> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install a context on this thread (RAII: the previous context is
/// restored when the guard drops, including on unwind).
pub fn install_context(ctx: Option<TraceContext>) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    ContextGuard { prev }
}

/// Restores the thread's previous trace context on drop.
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

// --- RAII spans. --------------------------------------------------------

/// An RAII trace span: opened under the thread's current context,
/// recorded (with its real duration) when dropped — which happens on
/// panic-unwind too, so a span that dies mid-decode is still in the
/// trace. A no-op (no allocation) when the thread has no active trace.
pub struct TraceSpan {
    state: Option<SpanState>,
}

struct SpanState {
    inner: Arc<ActiveInner>,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    attrs: Vec<(String, String)>,
    restore: Option<TraceContext>,
}

/// Open a span named `name` under the current context. Child spans
/// opened on this thread before the guard drops parent under it.
pub fn span(name: &'static str) -> TraceSpan {
    let Some(ctx) = current_context() else {
        return TraceSpan { state: None };
    };
    let id = next_id();
    let restore = CURRENT
        .with(|c| c.replace(Some(TraceContext { inner: Arc::clone(&ctx.inner), parent: id })));
    TraceSpan {
        state: Some(SpanState {
            inner: ctx.inner,
            id,
            parent: ctx.parent,
            name,
            start: Instant::now(),
            attrs: Vec::new(),
            restore,
        }),
    }
}

impl TraceSpan {
    /// Whether this span is recording (false off-trace — skip building
    /// expensive attribute values then).
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    /// Attach one key=value attribute.
    pub fn attr(&mut self, key: &'static str, value: impl ToString) {
        if let Some(state) = &mut self.state {
            state.attrs.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else { return };
        let end = Instant::now();
        CURRENT.with(|c| {
            *c.borrow_mut() = state.restore.clone();
        });
        state.inner.record(SpanRecord {
            id: state.id,
            parent: state.parent,
            name: state.name.to_string(),
            start_ns: state.inner.offset_ns(state.start),
            duration_ns: end.saturating_duration_since(state.start).as_nanos() as u64,
            attrs: state.attrs,
        });
    }
}

/// Record an already-measured interval as a leaf span under the current
/// context (no nesting) — for bridging timings measured elsewhere, e.g.
/// the pool's queue-wait or a stage breakdown captured by value.
pub fn record_span(
    name: &'static str,
    start: Instant,
    end: Instant,
    attrs: &[(&'static str, String)],
) {
    let Some(ctx) = current_context() else { return };
    ctx.inner.record(SpanRecord {
        id: next_id(),
        parent: ctx.parent,
        name: name.to_string(),
        start_ns: ctx.inner.offset_ns(start),
        duration_ns: end.saturating_duration_since(start).as_nanos() as u64,
        attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
    });
}

// --- The trace root guard. ----------------------------------------------

/// The RAII root of one trace: created by [`TraceCollector::start`],
/// installs the context on the current thread, and on drop records the
/// root span, restores the context, and offers the completed trace to
/// the collector's tail sampler.
pub struct TraceGuard {
    state: Option<RootState>,
}

struct RootState {
    collector: &'static TraceCollector,
    inner: Arc<ActiveInner>,
    kind: &'static str,
    root_name: &'static str,
    root_id: u64,
    /// The client's span id (from the wire extension), 0 when local.
    link_parent: u64,
    attrs: Vec<(String, String)>,
    error: bool,
    restore: Option<TraceContext>,
}

impl TraceGuard {
    /// Whether this guard is recording (false when collection is off).
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    /// The trace id (for logging or wire injection).
    pub fn trace_id(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.inner.trace_id)
    }

    /// Attach one key=value attribute to the root span.
    pub fn attr(&mut self, key: &'static str, value: impl ToString) {
        if let Some(state) = &mut self.state {
            state.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Mark the trace as failed — error traces are always retained.
    pub fn set_error(&mut self) {
        if let Some(state) = &mut self.state {
            state.error = true;
        }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else { return };
        let end = Instant::now();
        CURRENT.with(|c| {
            *c.borrow_mut() = state.restore.clone();
        });
        let duration_ns = end.saturating_duration_since(state.inner.start).as_nanos() as u64;
        state.inner.record(SpanRecord {
            id: state.root_id,
            parent: state.link_parent,
            name: state.root_name.to_string(),
            start_ns: 0,
            duration_ns,
            attrs: state.attrs,
        });
        let spans = {
            let mut g = match state.inner.spans.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            std::mem::take(&mut *g)
        };
        state.collector.offer(TraceRecord {
            trace_id: state.inner.trace_id,
            kind: state.kind.to_string(),
            error: state.error,
            duration_ns,
            dropped_spans: state.inner.dropped.load(Ordering::Relaxed) as u32,
            spans,
        });
    }
}

// --- The collector: lock-sharded rings + tail-based sampling. -----------

/// Per-kind retention: the tail sampler's slowest-N, error ring, and
/// recency ring. All bounded; entries are shared `Arc`s so one trace
/// retained by two policies costs one allocation.
#[derive(Default)]
struct KindRetention {
    /// Slowest traces, descending by duration, at most [`RETAIN_SLOWEST`].
    slowest: Vec<Arc<TraceRecord>>,
    /// Newest error traces, at most [`RETAIN_ERRORS`].
    errors: std::collections::VecDeque<Arc<TraceRecord>>,
    /// Newest traces regardless of duration, at most [`RETAIN_RECENT`].
    recent: std::collections::VecDeque<Arc<TraceRecord>>,
}

#[derive(Default)]
struct Shard {
    kinds: BTreeMap<String, KindRetention>,
}

/// The process-wide sink of completed traces. Lock-sharded by kind;
/// every ring is bounded, so the collector's memory is a constant
/// multiple of [`MAX_SPANS_PER_TRACE`] regardless of traffic.
pub struct TraceCollector {
    enabled: AtomicBool,
    shards: Vec<Mutex<Shard>>,
}

impl TraceCollector {
    /// A fresh collector (tests); production code uses [`collector`].
    pub fn new(enabled: bool) -> TraceCollector {
        TraceCollector {
            enabled: AtomicBool::new(enabled),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// Whether traces are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable collection (observe-only either way).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Begin a trace of `kind` rooted at a span named `root_name`,
    /// installing the context on the calling thread. `link` carries a
    /// propagated (trace id, parent span id) from the wire extension;
    /// `None` mints a fresh trace id. Returns an inactive guard (all
    /// recording no-ops) when collection is disabled.
    pub fn start(
        &'static self,
        kind: &'static str,
        root_name: &'static str,
        link: Option<(u64, u64)>,
    ) -> TraceGuard {
        if !self.is_enabled() {
            return TraceGuard { state: None };
        }
        let (trace_id, link_parent) = match link {
            Some((t, p)) => (t, p),
            None => (next_id(), 0),
        };
        let root_id = next_id();
        let inner = Arc::new(ActiveInner {
            trace_id,
            start: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        });
        let restore = CURRENT
            .with(|c| c.replace(Some(TraceContext { inner: Arc::clone(&inner), parent: root_id })));
        TraceGuard {
            state: Some(RootState {
                collector: self,
                inner,
                kind,
                root_name,
                root_id,
                link_parent,
                attrs: Vec::new(),
                error: false,
                restore,
            }),
        }
    }

    fn shard_of(&self, kind: &str) -> &Mutex<Shard> {
        let h = kind.bytes().fold(0u64, |a, b| splitmix64(a ^ b as u64));
        &self.shards[(h % SHARDS as u64) as usize]
    }

    /// Offer one completed trace to the tail sampler.
    pub fn offer(&self, record: TraceRecord) {
        if !self.is_enabled() {
            return;
        }
        let record = Arc::new(record);
        let mut shard = match self.shard_of(&record.kind).lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let r = shard.kinds.entry(record.kind.clone()).or_default();
        r.recent.push_back(Arc::clone(&record));
        while r.recent.len() > RETAIN_RECENT {
            r.recent.pop_front();
        }
        if record.error {
            r.errors.push_back(Arc::clone(&record));
            while r.errors.len() > RETAIN_ERRORS {
                r.errors.pop_front();
            }
        }
        let pos = r.slowest.partition_point(|t| t.duration_ns >= record.duration_ns);
        if pos < RETAIN_SLOWEST {
            r.slowest.insert(pos, record);
            r.slowest.truncate(RETAIN_SLOWEST);
        }
    }

    /// Every retained trace, deduplicated by record identity (one trace
    /// can sit in several rings of its kind), slowest first. Distinct
    /// records sharing a trace id are all kept — the client and server
    /// halves of one distributed trace share their id by design.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out: Vec<TraceRecord> = Vec::new();
        for shard in &self.shards {
            let shard = match shard.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            for r in shard.kinds.values() {
                for t in r.slowest.iter().chain(&r.errors).chain(&r.recent) {
                    if seen.insert(Arc::as_ptr(t) as usize) {
                        out.push((**t).clone());
                    }
                }
            }
        }
        out.sort_by_key(|t| std::cmp::Reverse(t.duration_ns));
        out
    }

    /// Drop every retained trace (tests).
    pub fn clear(&self) {
        for shard in &self.shards {
            match shard.lock() {
                Ok(mut g) => g.kinds.clear(),
                Err(p) => p.into_inner().kinds.clear(),
            }
        }
    }
}

/// The process-wide collector. Enabled unless `STZ_TRACE` is `off`,
/// `none`, or `0`.
pub fn collector() -> &'static TraceCollector {
    static GLOBAL: OnceLock<TraceCollector> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let off = std::env::var("STZ_TRACE")
            .map(|v| matches!(v.trim(), "off" | "none" | "0"))
            .unwrap_or(false);
        TraceCollector::new(!off)
    })
}

// --- Export: text waterfall + Chrome trace-event JSON. ------------------

/// Render traces as a human-readable waterfall: one header line per
/// trace, then one line per span, indented by tree depth, with start
/// offset, duration, and attributes.
pub fn render_waterfall(traces: &[TraceRecord]) -> String {
    let mut out = String::new();
    for t in traces {
        let status = if t.error { "error" } else { "ok" };
        out.push_str(&format!(
            "trace 0x{:016x} [{}] {:.3} ms, {} span(s), {status}{}\n",
            t.trace_id,
            t.kind,
            t.duration_ns as f64 / 1e6,
            t.spans.len(),
            if t.dropped_spans > 0 {
                format!(", {} dropped", t.dropped_spans)
            } else {
                String::new()
            }
        ));
        // Children grouped by parent, ordered by start offset.
        let ids: std::collections::BTreeSet<u64> = t.spans.iter().map(|s| s.id).collect();
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for s in &t.spans {
            if ids.contains(&s.parent) {
                children.entry(s.parent).or_default().push(s);
            } else {
                roots.push(s);
            }
        }
        for list in children.values_mut() {
            list.sort_by_key(|s| s.start_ns);
        }
        roots.sort_by_key(|s| s.start_ns);
        let mut stack: Vec<(&SpanRecord, usize)> =
            roots.into_iter().rev().map(|s| (s, 0)).collect();
        while let Some((s, depth)) = stack.pop() {
            let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "  {:indent$}{:<24} @{:>10.3} ms  +{:>10.3} ms{}{}\n",
                "",
                s.name,
                s.start_ns as f64 / 1e6,
                s.duration_ns as f64 / 1e6,
                if attrs.is_empty() { "" } else { "  " },
                attrs.join(" "),
                indent = depth * 2,
            ));
            if let Some(kids) = children.get(&s.id) {
                for k in kids.iter().rev() {
                    stack.push((k, depth + 1));
                }
            }
        }
    }
    out
}

/// Escape a string for JSON embedding.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render traces in Chrome trace-event JSON (the `traceEvents` array
/// form), loadable in Perfetto / `chrome://tracing`. Each trace becomes
/// one `tid` labeled `"<kind> 0x<trace_id>"`; each span one complete
/// (`"ph":"X"`) event with microsecond `ts`/`dur` and its span/parent
/// ids and attributes under `args`.
pub fn render_chrome_trace(traces: &[TraceRecord]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (tid, t) in traces.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json_str(&format!("{} 0x{:016x}", t.kind, t.trace_id))
        ));
        for s in &t.spans {
            let mut args: Vec<String> = vec![
                format!("\"span\":{}", json_str(&format!("0x{:016x}", s.id))),
                format!("\"parent\":{}", json_str(&format!("0x{:016x}", s.parent))),
            ];
            for (k, v) in &s.attrs {
                args.push(format!("{}:{}", json_str(k), json_str(v)));
            }
            events.push(format!(
                "{{\"name\":{},\"cat\":\"stz\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
                json_str(&s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns as f64 / 1e3,
                args.join(",")
            ));
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_collector() -> &'static TraceCollector {
        Box::leak(Box::new(TraceCollector::new(true)))
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "id collision");
        }
    }

    #[test]
    fn spans_nest_and_parent_correctly() {
        let c = test_collector();
        {
            let mut root = c.start("test", "request", None);
            root.attr("k", "v");
            {
                let mut outer = span("outer");
                outer.attr("depth", 1);
                let _inner = span("inner");
            }
        }
        let traces = c.snapshot();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.kind, "test");
        assert!(!t.error);
        let root = t.root().expect("root span");
        assert_eq!(root.name, "request");
        assert_eq!(root.parent, 0);
        assert_eq!(root.attrs, vec![("k".to_string(), "v".to_string())]);
        let outer = t.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = t.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, root.id);
        assert_eq!(inner.parent, outer.id);
        assert!(root.duration_ns >= outer.duration_ns);
    }

    #[test]
    fn span_records_on_panic_unwind() {
        let c = test_collector();
        {
            let mut root = c.start("test", "request", None);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _doomed = span("doomed");
                panic!("boom");
            }));
            assert!(unwound.is_err());
            root.set_error();
            // The unwind dropped the span AND restored the context: a new
            // span parents under the root again, not under "doomed".
            let _after = span("after");
        }
        let t = &c.snapshot()[0];
        assert!(t.error);
        let doomed = t.spans.iter().find(|s| s.name == "doomed").expect("unwound span recorded");
        let after = t.spans.iter().find(|s| s.name == "after").unwrap();
        let root = t.root().unwrap();
        assert_eq!(doomed.parent, root.id);
        assert_eq!(after.parent, root.id);
    }

    #[test]
    fn context_propagates_across_threads() {
        let c = test_collector();
        {
            let _root = c.start("test", "request", None);
            let outer = span("outer");
            let ctx = current_context().expect("context active");
            let handle = std::thread::spawn(move || {
                assert!(current_context().is_none(), "fresh thread starts clean");
                let _g = install_context(Some(ctx));
                let _worker = span("worker");
                drop(_g);
                assert!(current_context().is_none(), "guard restores on drop");
            });
            handle.join().unwrap();
            drop(outer);
        }
        let t = &c.snapshot()[0];
        let outer = t.spans.iter().find(|s| s.name == "outer").unwrap();
        let worker = t.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, outer.id, "pool-boundary nesting restored");
    }

    #[test]
    fn propagated_link_roots_under_remote_parent() {
        let c = test_collector();
        let (trace_id, remote_span) = (0x1122_3344_5566_7788u64, 0x99AA_BBCC_DDEE_FF00u64);
        drop(c.start("full", "request", Some((trace_id, remote_span))));
        let t = &c.snapshot()[0];
        assert_eq!(t.trace_id, trace_id, "trace id round-trips byte-exactly");
        assert_eq!(t.root().unwrap().parent, remote_span);
    }

    #[test]
    fn off_trace_spans_are_noops() {
        assert!(current_context().is_none());
        let mut s = span("orphan");
        assert!(!s.is_active());
        s.attr("k", "v");
        drop(s);
        let g = test_collector().start("test", "r", None);
        assert!(g.is_active());
    }

    #[test]
    fn tail_sampler_retains_slowest_and_errors() {
        let c = TraceCollector::new(true);
        let mk = |id: u64, dur: u64, error: bool| TraceRecord {
            trace_id: id,
            kind: "full".into(),
            error,
            duration_ns: dur,
            dropped_spans: 0,
            spans: vec![SpanRecord {
                id,
                parent: 0,
                name: "request".into(),
                start_ns: 0,
                duration_ns: dur,
                attrs: vec![],
            }],
        };
        // 100 fast traces, one slow, one fast-but-failed.
        for i in 0..100 {
            c.offer(mk(1000 + i, 10 + i, false));
        }
        c.offer(mk(1, 1_000_000, false));
        c.offer(mk(2, 5, true));
        for _ in 0..50 {
            c.offer(mk(3, 20, false)); // keep pushing the recency ring
        }
        let ids: Vec<u64> = c.snapshot().iter().map(|t| t.trace_id).collect();
        assert!(ids.contains(&1), "slowest trace must be retained: {ids:?}");
        assert!(ids.contains(&2), "error trace must be retained: {ids:?}");
        assert!(
            ids.len() <= RETAIN_SLOWEST + RETAIN_ERRORS + RETAIN_RECENT,
            "retention must stay bounded: {} traces",
            ids.len()
        );
        // Slowest-first ordering.
        assert_eq!(c.snapshot()[0].trace_id, 1);
    }

    #[test]
    fn span_cap_counts_drops() {
        let c = test_collector();
        {
            let _root = c.start("test", "request", None);
            for _ in 0..(MAX_SPANS_PER_TRACE + 10) {
                drop(span("s"));
            }
        }
        let t = &c.snapshot()[0];
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        // +1: the root span itself no longer fits.
        assert_eq!(t.dropped_spans as usize, 11);
    }

    #[test]
    fn disabled_collector_is_inert() {
        let c: &'static TraceCollector = Box::leak(Box::new(TraceCollector::new(false)));
        {
            let g = c.start("test", "request", None);
            assert!(!g.is_active());
            assert!(current_context().is_none(), "no context installed when disabled");
        }
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn waterfall_renders_tree() {
        let c = test_collector();
        {
            let _root = c.start("full", "request", None);
            let _outer = span("decode");
            drop(span("stage:entropy"));
        }
        let text = render_waterfall(&c.snapshot());
        assert!(text.contains("[full]"), "{text}");
        assert!(text.contains("request"), "{text}");
        let decode_at = text.find("  decode").expect("decode indented once");
        let stage_at = text.find("    stage:entropy").expect("stage indented twice");
        assert!(decode_at < stage_at, "{text}");
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let c = test_collector();
        {
            let mut root = c.start("full", "request", None);
            root.attr("peer", "127.0.0.1:1");
            drop(span("de\"code"));
        }
        let json = render_chrome_trace(&c.snapshot());
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("de\\\"code"), "escaping: {json}");
        // Balanced braces outside strings.
        let mut bare = String::new();
        let (mut in_str, mut prev) = (false, ' ');
        for ch in json.chars() {
            if ch == '"' && prev != '\\' {
                in_str = !in_str;
            } else if !in_str {
                bare.push(ch);
            }
            prev = if prev == '\\' && ch == '\\' { ' ' } else { ch };
        }
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(bare.matches(open).count(), bare.matches(close).count(), "{json}");
        }
    }

    #[test]
    fn snapshot_keeps_both_halves_of_a_distributed_trace() {
        let c = test_collector();
        // A client-side root…
        let link = {
            let _client = c.start("client", "fetch", None);
            let ctx = current_context().unwrap();
            (ctx.trace_id(), ctx.span_id())
        };
        // …and a server-side trace adopting the same id via the link.
        {
            let _guard = install_context(None);
            let _server = c.start("full", "request", Some(link));
        }
        let snap = c.snapshot();
        let halves: Vec<&TraceRecord> = snap.iter().filter(|t| t.trace_id == link.0).collect();
        assert_eq!(halves.len(), 2, "both halves retained: {snap:?}");
        let kinds: std::collections::BTreeSet<&str> =
            halves.iter().map(|t| t.kind.as_str()).collect();
        assert_eq!(kinds, ["client", "full"].into_iter().collect());
        // Dedup still collapses one record sitting in several rings.
        assert_eq!(snap.iter().filter(|t| t.kind == "client").count(), 1);
    }

    #[test]
    fn record_span_attaches_measured_interval() {
        let c = test_collector();
        {
            let _root = c.start("test", "request", None);
            let t0 = Instant::now();
            let t1 = t0 + std::time::Duration::from_micros(250);
            record_span("queue_wait", t0, t1, &[("worker", "0".to_string())]);
        }
        let t = &c.snapshot()[0];
        let qw = t.spans.iter().find(|s| s.name == "queue_wait").unwrap();
        assert_eq!(qw.duration_ns, 250_000);
        assert_eq!(qw.parent, t.root().unwrap().id);
        assert_eq!(qw.attrs[0], ("worker".to_string(), "0".to_string()));
    }
}
