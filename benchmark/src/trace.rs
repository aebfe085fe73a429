//! The benchmark's own spans: one per call into a layer, recorded around the
//! call from outside the program, kept in memory and written out at exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// Which part of the run a span belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Setup,
    Window,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call went into (`bench` for the benchmark's own glue).
    pub layer: &'static str,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one operation.
    pub request: u64,
    pub thread: u32,
}

/// Span recorder for one thread. A disabled tracer still runs the closures
/// it is handed, so traced and untraced runs execute the same calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: u32,
    phase: Phase,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans now open, innermost last.
    open: Vec<usize>,
    requests: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            thread: 0,
            phase: Phase::Setup,
            spans: Vec::new(),
            open: Vec::new(),
            requests: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// A tracer for another thread of the same run: same clock, own ids.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer { thread, spans: Vec::new(), open: Vec::new(), requests: 0, ..*self }
    }

    /// Take over the spans a forked tracer recorded.
    pub fn absorb(&mut self, child: Tracer) {
        self.spans.extend(child.spans);
    }

    /// Time one call into `layer`; spans opened inside `f` become children.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let request = match self.open.first() {
            Some(&root) => self.spans[root].request,
            None => {
                self.requests += 1;
                ((self.thread as u64) << 40) | self.requests
            }
        };
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            phase: self.phase,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            id: ((self.thread as u64) << 40) | (index as u64 + 1),
            parent,
            request,
            thread: self.thread,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (load in Perfetto or chrome://tracing).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{},\
                 \"phase\":\"{:?}\"}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                s.id,
                parent,
                s.request,
                s.phase,
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Self time and call count of one layer.
#[derive(Clone, Copy, Default, Debug)]
pub struct LayerTime {
    pub self_s: f64,
    pub calls: u64,
}

/// Per-layer self time over the spans of `phase`: a span's duration minus
/// the part of it its children cover. Also returns the summed duration of
/// the root spans (the operations' wall time).
pub fn self_times(spans: &[Span], phase: Phase) -> (BTreeMap<&'static str, LayerTime>, f64) {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.phase == phase) {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut root_s = 0.0;
    for s in spans.iter().filter(|s| s.phase == phase) {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let entry = layers.entry(s.layer).or_default();
        entry.self_s += own as f64 / 1e9;
        entry.calls += 1;
        if s.parent.is_none() {
            root_s += dur as f64 / 1e9;
        }
    }
    (layers, root_s)
}
