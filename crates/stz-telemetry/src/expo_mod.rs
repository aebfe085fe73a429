//! Parsing the text exposition back into samples.
//!
//! The grammar is the mirror of [`Registry::render`](crate::Registry::render):
//! `#`-prefixed comment lines, then one `key value` pair per line where
//! `key` is `name` or `name{label="v",…}` and `value` parses as a number.
//! The parser is shared by the CLI's `stz stats` table and the
//! wire-protocol tests, so renderer and consumers cannot drift.

/// One parsed metric sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (without the label block).
    pub name: String,
    /// Labels in exposition order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The full `name{label="v",…}` key this sample was parsed from.
    pub fn key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let pairs: Vec<String> = self.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{}{{{}}}", self.name, pairs.join(","))
    }
}

/// Parse an exposition document into samples. Comment lines (`#`) and
/// blank lines are skipped; any other malformed line is an error naming
/// the offending line — a hostile or truncated exposition must never
/// parse silently.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("exposition line {}: no value in {line:?}", idx + 1))?;
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse().map_err(|_| format!("exposition line {}: bad value {v:?}", idx + 1))?,
        };
        let (name, labels) =
            parse_key(key.trim_end()).map_err(|e| format!("exposition line {}: {e}", idx + 1))?;
        out.push(Sample { name, labels, value });
    }
    Ok(out)
}

/// Split `name{label="v",…}` into name + labels.
fn parse_key(key: &str) -> Result<(String, Vec<(String, String)>), String> {
    let Some((name, rest)) = key.split_once('{') else {
        if key.is_empty() || key.contains('}') {
            return Err(format!("bad metric key {key:?}"));
        }
        return Ok((key.to_string(), Vec::new()));
    };
    let body = rest.strip_suffix('}').ok_or_else(|| format!("unclosed label block in {key:?}"))?;
    let mut labels = Vec::new();
    for pair in body.split(',') {
        let (k, v) = pair.split_once('=').ok_or_else(|| format!("bad label pair {pair:?}"))?;
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted label value in {pair:?}"))?;
        labels.push((k.to_string(), v.to_string()));
    }
    if name.is_empty() {
        return Err(format!("empty metric name in {key:?}"));
    }
    Ok((name.to_string(), labels))
}

/// The value of the sample named `name` whose labels include all of
/// `with_labels`.
pub fn sample_value(samples: &[Sample], name: &str, with_labels: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && with_labels.iter().all(|(k, v)| s.label(k) == Some(v)))
        .map(|s| s.value)
}

/// Nearest-rank quantile of an exposed histogram: reads the cumulative
/// `<name>_bucket{…,le="…"}` samples whose labels include `with_labels`
/// and returns the `le` bound of the bucket holding the rank (`+Inf`
/// resolves to [`f64::INFINITY`]). `None` when no such histogram exists
/// or it is empty.
pub fn histogram_quantile(
    samples: &[Sample],
    name: &str,
    with_labels: &[(&str, &str)],
    q: f64,
) -> Option<f64> {
    let bucket_name = format!("{name}_bucket");
    let mut buckets: Vec<(f64, u64)> = samples
        .iter()
        .filter(|s| s.name == bucket_name && with_labels.iter().all(|(k, v)| s.label(k) == Some(v)))
        .filter_map(|s| {
            let le = match s.label("le")? {
                "+Inf" => f64::INFINITY,
                v => v.parse().ok()?,
            };
            Some((le, s.value as u64))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map(|&(_, c)| c)?;
    if total == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * (total - 1) as f64).round() as u64;
    buckets.iter().find(|&&(_, cumulative)| cumulative > rank).map(|&(le, _)| le)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn render_parse_roundtrip() {
        let r = Registry::new();
        r.counter("reqs_total", &[("kind", "full")]).add(42);
        r.gauge("conns", &[]).set(3);
        let h = r.histogram("lat_ns", &[("kind", "full")], 100);
        h.record(80);
        h.record(150);

        let samples = parse(&r.render()).expect("own exposition parses");
        assert_eq!(sample_value(&samples, "reqs_total", &[("kind", "full")]), Some(42.0));
        assert_eq!(sample_value(&samples, "conns", &[]), Some(3.0));
        assert_eq!(sample_value(&samples, "lat_ns_count", &[("kind", "full")]), Some(2.0));
        assert_eq!(sample_value(&samples, "lat_ns_sum", &[("kind", "full")]), Some(230.0));
        // Quantiles recovered from the text match the snapshot's.
        assert_eq!(histogram_quantile(&samples, "lat_ns", &[("kind", "full")], 0.0), Some(100.0));
        assert_eq!(histogram_quantile(&samples, "lat_ns", &[("kind", "full")], 1.0), Some(200.0));
        assert_eq!(h.snapshot().quantile(1.0), Some(200));
    }

    #[test]
    fn sample_key_roundtrips() {
        let text = "a_total{x=\"1\",y=\"2\"} 5\nplain 7\n";
        let samples = parse(text).unwrap();
        assert_eq!(samples[0].key(), "a_total{x=\"1\",y=\"2\"}");
        assert_eq!(samples[0].label("y"), Some("2"));
        assert_eq!(samples[1].key(), "plain");
    }

    #[test]
    fn hostile_text_is_rejected_not_misparsed() {
        for bad in [
            "no_value_here",
            "name not-a-number",
            "name{unclosed=\"v\" 1",
            "name{k=unquoted} 1",
            "name{k} 1",
            "{\"json\":\"not exposition\"} 1",
            " 5",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Comments, blanks, and ±Inf are fine.
        let ok = parse("# comment\n\nh_bucket{le=\"+Inf\"} 3\nneg -Inf\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[0].value, 3.0);
        assert!(ok[1].value.is_infinite());
    }

    #[test]
    fn quantile_of_missing_or_empty_histogram_is_none() {
        let samples = parse("h_bucket{le=\"+Inf\"} 0\n").unwrap();
        assert_eq!(histogram_quantile(&samples, "h", &[], 0.5), None);
        assert_eq!(histogram_quantile(&samples, "absent", &[], 0.5), None);
    }
}
