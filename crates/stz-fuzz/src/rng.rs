//! Deterministic pseudo-random source for the fuzz engine.
//!
//! SplitMix64: tiny, fast, and fully reproducible from one `u64` seed —
//! the whole run (mutations, corpus picks, minimization probes) replays
//! bit-identically from `STZ_FUZZ_SEED`. [`property`] runs a property
//! test's cases from a generator seeded with the test's name.

/// SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Seed the generator.
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng { state: seed }
    }

    /// Seed the generator with FNV-1a of `name`: a property's cases replay
    /// from its test name alone.
    pub fn from_name(name: &str) -> FuzzRng {
        let fnv = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        FuzzRng::new(fnv)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift: bias is negligible for the small ranges the
        // engine draws, and it keeps the stream portable.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64 + 1) as i64
    }

    /// Uniform value in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Pick one element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Check `check` on `cases` inputs that `draw` makes from a generator
/// seeded with `name` ([`FuzzRng::from_name`]), in turn. A failing case
/// panics, after the check's own panic has printed, with the name, the
/// case's index and its inputs; there is no shrinking, and the same case
/// fails again on every run.
pub fn property<I: std::fmt::Debug>(
    name: &str,
    cases: usize,
    mut draw: impl FnMut(&mut FuzzRng) -> I,
    check: impl Fn(&I),
) {
    let mut rng = FuzzRng::from_name(name);
    for case in 0..cases {
        let input = draw(&mut rng);
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&input))).is_err() {
            panic!("{name}: case {case} of {cases} fails on {input:?}");
        }
    }
}

/// Resolve the run seed: `STZ_FUZZ_SEED` (decimal or `0x…` hex) if set,
/// else `default`.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("STZ_FUZZ_SEED") {
        Ok(s) => parse_seed(s.trim()).unwrap_or(default),
        Err(_) => default,
    }
}

/// Parse a seed string (decimal or `0x…` hexadecimal).
pub fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = FuzzRng::new(42);
        let mut b = FuzzRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // FNV-1a of the empty name is its offset basis.
        let mut named = FuzzRng::from_name("");
        assert_eq!(named.next_u64(), FuzzRng::new(0xCBF2_9CE4_8422_2325).next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = FuzzRng::new(7);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
            assert!((-4..=-2).contains(&rng.range(-4, -2)));
            assert!((-1e6..1e6).contains(&rng.uniform(-1e6, 1e6)));
        }
    }

    #[test]
    #[should_panic(expected = "p: case 0 of 3 fails on 7")]
    fn a_failing_case_names_its_index_and_inputs() {
        property("p", 3, |_| 7, |&v| assert!(v != 7, "seven"));
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("123"), Some(123));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed("0XFF"), Some(255));
        assert_eq!(parse_seed("nope"), None);
    }
}
