//! What a workload hands back, and how it is printed.

use crate::spec::{Metric, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// End-to-end values of one run, in the order of [`END_TO_END`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub write_mbps: f64,
    pub full_p50_ms: f64,
    pub preview_p50_ms: f64,
    pub roi_p50_ms: f64,
    pub roi_tail_ms: f64,
    pub read_mbps: f64,
    pub ops_per_s: f64,
    pub stored_ratio: f64,
    pub peak_heap_mb: f64,
}

impl EndToEnd {
    pub fn values(&self) -> [f64; 10] {
        [
            self.setup_s,
            self.write_mbps,
            self.full_p50_ms,
            self.preview_p50_ms,
            self.roi_p50_ms,
            self.roi_tail_ms,
            self.read_mbps,
            self.ops_per_s,
            self.stored_ratio,
            self.peak_heap_mb,
        ]
    }
}

/// Per-layer values of a traced run. Setting a name the contract does not
/// list is a bug in the benchmark, so it panics.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let known = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in spec::PER_LAYER"));
        self.0.insert(known.name, value);
    }

    /// A busy time or count of a layer the workload never entered is 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Operations attempted and failed, and why the failed ones did.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, note: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note.into());
        }
    }

    /// Count one check: a failure when `pass` is false.
    pub fn check(&mut self, pass: bool, note: impl FnOnce() -> String) {
        if pass {
            self.ok();
        } else {
            self.fail(note());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: EndToEnd,
    /// Filled by traced runs only.
    pub layers: Layers,
}

/// A JSON number with all its digits; a non-finite value is a bug upstream
/// and is printed as `null` so the driver refuses it instead of trusting it.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The metrics a run reports: end-to-end ones untraced, per-layer ones traced.
fn rows(outcome: &Outcome, traced: bool) -> Vec<(&'static Metric, f64)> {
    if traced {
        PER_LAYER.iter().map(|m| (m, outcome.layers.get(m.name))).collect()
    } else {
        END_TO_END.iter().zip(outcome.end_to_end.values()).collect()
    }
}

/// The result line.
pub fn result_json(outcome: &Outcome, traced: bool) -> String {
    let items: Vec<String> = rows(outcome, traced)
        .into_iter()
        .map(|(m, v)| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(v), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        items.join(", ")
    )
}

/// Human-readable table of the same numbers, one `# name value unit` line each.
pub fn print_table(outcome: &Outcome, traced: bool) {
    for (m, v) in rows(outcome, traced) {
        println!("# {:<44} {:>14.4} {}", m.name, v, m.unit);
    }
}
