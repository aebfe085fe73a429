//! Error-signature coverage proxy, the in-memory corpus, and the
//! reproducer file format.
//!
//! Without instrumentation-based coverage, the engine needs another
//! measure of "this input reached somewhere new". The proxy is the
//! **error signature**: `target:class:site`, where `class` is the error
//! taxonomy variant the input provoked (or `ok`) and `site` is a short
//! hash of the error message with digits stripped — two inputs failing
//! the same check with different offsets share a signature, while inputs
//! failing *different* checks do not. One (smallest-seen) input per
//! signature is kept and fed back into mutation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Build a signature from a target name, an error class, and the failure
/// site (typically the error's `Display` text).
pub fn signature(target: &str, class: &str, site: &str) -> String {
    format!("{target}:{class}:{:08x}", site_hash(site))
}

/// FNV-1a over the site text with ASCII digits removed, folded to 32
/// bits: offsets, lengths and dims vary per input, the failing check does
/// not.
fn site_hash(site: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        if b.is_ascii_digit() {
            continue;
        }
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

/// The in-memory corpus: one representative input per signature.
#[derive(Debug, Default)]
pub struct Corpus {
    entries: BTreeMap<String, Vec<u8>>,
}

impl Corpus {
    /// Empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Record `input` under `sig`. Returns `true` when the signature is
    /// new; an existing signature keeps its smaller representative.
    pub fn insert(&mut self, sig: &str, input: &[u8]) -> bool {
        match self.entries.get_mut(sig) {
            None => {
                self.entries.insert(sig.to_string(), input.to_vec());
                true
            }
            Some(existing) => {
                if input.len() < existing.len() {
                    *existing = input.to_vec();
                }
                false
            }
        }
    }

    /// Signatures in sorted order (the determinism-check fingerprint).
    pub fn signatures(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// The stored inputs, in signature order.
    pub fn inputs(&self) -> Vec<&[u8]> {
        self.entries.values().map(|v| v.as_slice()).collect()
    }

    /// Number of distinct signatures seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no signature has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A replayable failing (or pinned hostile) input: text format, hex
/// payload, provenance in `#` header comments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reproducer {
    /// Harness the input belongs to: `container`, `proto`, or `codec`.
    pub target: String,
    /// Engine seed of the run that found it (0 for hand-pinned cases).
    pub seed: u64,
    /// Iteration within that run (0 for hand-pinned cases).
    pub iteration: u64,
    /// Signature (or expected classification) of the input.
    pub signature: String,
    /// Free-form one-line note (why this input is pinned).
    pub note: String,
    /// The input bytes.
    pub bytes: Vec<u8>,
}

impl Reproducer {
    /// Serialize to the reproducer text format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("# stz-fuzz reproducer v1\n");
        let _ = writeln!(s, "# target: {}", self.target);
        let _ = writeln!(s, "# seed: {:#018x}", self.seed);
        let _ = writeln!(s, "# iteration: {}", self.iteration);
        let _ = writeln!(s, "# signature: {}", self.signature);
        if !self.note.is_empty() {
            let _ = writeln!(s, "# note: {}", self.note);
        }
        let _ = writeln!(s, "# len: {}", self.bytes.len());
        for chunk in self.bytes.chunks(32) {
            for (i, b) in chunk.iter().enumerate() {
                if i > 0 && i % 4 == 0 {
                    s.push(' ');
                }
                let _ = write!(s, "{b:02x}");
            }
            s.push('\n');
        }
        s
    }

    /// Parse the reproducer text format.
    pub fn parse(text: &str) -> Result<Reproducer, String> {
        let mut r = Reproducer {
            target: String::new(),
            seed: 0,
            iteration: 0,
            signature: String::new(),
            note: String::new(),
            bytes: Vec::new(),
        };
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let rest = rest.trim();
                if let Some((key, value)) = rest.split_once(':') {
                    let value = value.trim();
                    match key.trim() {
                        "target" => r.target = value.to_string(),
                        "seed" => {
                            r.seed = crate::rng::parse_seed(value)
                                .ok_or_else(|| format!("bad seed {value:?}"))?
                        }
                        "iteration" => {
                            r.iteration =
                                value.parse().map_err(|e| format!("bad iteration: {e}"))?
                        }
                        "signature" => r.signature = value.to_string(),
                        "note" => r.note = value.to_string(),
                        _ => {} // forward-compatible: unknown headers skip
                    }
                }
                continue;
            }
            let mut nibbles = line.chars().filter(|c| !c.is_whitespace());
            while let Some(hi) = nibbles.next() {
                let lo = nibbles.next().ok_or("odd hex digit count")?;
                let byte = (hi.to_digit(16).ok_or("bad hex digit")? * 16
                    + lo.to_digit(16).ok_or("bad hex digit")?) as u8;
                r.bytes.push(byte);
            }
        }
        if r.target.is_empty() {
            return Err("missing '# target:' header".into());
        }
        Ok(r)
    }

    /// Write to `dir/<name>.hex`.
    pub fn write_to(&self, dir: &Path, name: &str) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.hex"));
        std::fs::write(&path, self.to_text())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_strips_digits() {
        let a = signature("proto", "protocol", "frame length prefix 4096 exceeds cap");
        let b = signature("proto", "protocol", "frame length prefix 123456 exceeds cap");
        assert_eq!(a, b);
        let c = signature("proto", "protocol", "bad frame magic");
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_keeps_smallest() {
        let mut c = Corpus::new();
        assert!(c.insert("s", &[1, 2, 3]));
        assert!(!c.insert("s", &[1, 2, 3, 4]));
        assert!(!c.insert("s", &[9]));
        assert_eq!(c.inputs(), vec![&[9][..]]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reproducer_roundtrip() {
        let r = Reproducer {
            target: "container".into(),
            seed: 0xDEAD_BEEF,
            iteration: 417,
            signature: "container:corrupt:ab12cd34".into(),
            note: "hand-pinned hostile case".into(),
            bytes: (0u16..300).map(|i| (i % 251) as u8).collect(),
        };
        let back = Reproducer::parse(&r.to_text()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn reproducer_rejects_garbage() {
        assert!(Reproducer::parse("no headers at all").is_err());
        assert!(Reproducer::parse("# target: proto\nzz").is_err());
        assert!(Reproducer::parse("# target: proto\nabc").is_err());
    }
}
