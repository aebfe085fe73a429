//! The mutation loop, its oracles, input minimization, and the shared
//! harness `main`.
//!
//! Determinism is the design constraint: the whole run — seeds,
//! mutations, corpus growth, minimization — replays bit-identically from
//! one `u64`, so CI can assert "identical corpus signatures across two
//! runs of the same seed" and a reproducer header is all a developer
//! needs to re-derive a finding.

use crate::alloc_guard;
use crate::corpus::{Corpus, Reproducer};
use crate::mutate::mutate;
use crate::rng::FuzzRng;
use crate::targets::{FuzzTarget, Outcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

/// One fuzzing run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Master seed (every derived decision flows from it).
    pub seed: u64,
    /// Mutation iterations to run.
    pub iterations: u64,
    /// Largest tolerated single allocation during one execution, in
    /// bytes; 0 disables the oracle (no tracking allocator installed).
    pub alloc_cap: usize,
    /// Run the targets' deep checks on corpus-new inputs, seeds included.
    pub deep_checks: bool,
    /// Where minimized reproducers for violations are written (`None` =
    /// don't write files).
    pub reproducer_dir: Option<PathBuf>,
    /// Print per-discovery progress to stderr.
    pub verbose: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            seed: 1,
            iterations: 10_000,
            alloc_cap: 64 << 20,
            deep_checks: true,
            reproducer_dir: None,
            verbose: false,
        }
    }
}

/// An oracle violation found during a run.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which oracle tripped: `panic`, `alloc`, `nondeterminism`,
    /// `deep-check`.
    pub oracle: String,
    /// Violation detail (panic message, allocation size, …).
    pub detail: String,
    /// Iteration at which it was found (`u64::MAX` for seed inputs).
    pub iteration: u64,
    /// The minimized offending input.
    pub input: Vec<u8>,
    /// Reproducer path, when one was written.
    pub reproducer: Option<PathBuf>,
}

/// What a run observed.
#[derive(Debug)]
pub struct Summary {
    /// Target name.
    pub target: String,
    /// Iterations executed.
    pub iterations: u64,
    /// Sorted corpus signatures — the determinism fingerprint.
    pub signatures: Vec<String>,
    /// Oracle violations (empty on a healthy run).
    pub violations: Vec<Violation>,
}

/// Last caught panic (message + location), captured by the run's panic
/// hook. A `Mutex` rather than a thread-local: a panic may surface on a
/// pool worker before propagating to the harness thread.
static LAST_PANIC: Mutex<Option<String>> = Mutex::new(None);

fn capture_panics() {
    std::panic::set_hook(Box::new(|info| {
        let msg = match info.payload().downcast_ref::<&str>() {
            Some(s) => (*s).to_string(),
            None => info
                .payload()
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".into()),
        };
        let site = info.location().map(|l| format!("{}:{}", l.file(), l.line()));
        *LAST_PANIC.lock().unwrap() =
            Some(format!("{msg} @ {}", site.unwrap_or_else(|| "?".into())));
    }));
}

/// One guarded execution: outcome or panic text, plus the peak single
/// allocation observed.
fn execute(target: &dyn FuzzTarget, input: &[u8]) -> (Result<Outcome, String>, usize) {
    *LAST_PANIC.lock().unwrap() = None;
    alloc_guard::reset_peak();
    let result = catch_unwind(AssertUnwindSafe(|| target.exec(input)));
    let peak = alloc_guard::peak_single();
    match result {
        Ok(outcome) => (Ok(outcome), peak),
        Err(payload) => {
            let hooked = LAST_PANIC.lock().unwrap().take();
            let msg = hooked.unwrap_or_else(|| match payload.downcast_ref::<&str>() {
                Some(s) => (*s).to_string(),
                None => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| "non-string panic payload".into()),
            });
            (Err(msg), peak)
        }
    }
}

/// Replay one input outside a full run (corpus regression tests): the
/// outcome, or `Err(panic message)`.
pub fn replay(target: &dyn FuzzTarget, input: &[u8]) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| target.exec(input))).map_err(|payload| {
        match payload.downcast_ref::<&str>() {
            Some(s) => (*s).to_string(),
            None => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic payload".into()),
        }
    })
}

/// Greedy chunk-removal minimization: repeatedly delete the largest
/// removable chunks while `still_fails` keeps returning `true`.
/// Deterministic; terminates in `O(len log len)` probes.
pub fn minimize_input(input: Vec<u8>, mut still_fails: impl FnMut(&[u8]) -> bool) -> Vec<u8> {
    let mut cur = input;
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i + chunk <= cur.len() {
            let mut cand = Vec::with_capacity(cur.len() - chunk);
            cand.extend_from_slice(&cur[..i]);
            cand.extend_from_slice(&cur[i + chunk..]);
            if still_fails(&cand) {
                cur = cand;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    cur
}

fn violation_matches(target: &dyn FuzzTarget, cand: &[u8], oracle: &str, alloc_cap: usize) -> bool {
    let (result, peak) = execute(target, cand);
    match oracle {
        "panic" => result.is_err(),
        "alloc" => alloc_cap > 0 && peak > alloc_cap,
        _ => false,
    }
}

/// Run the fuzzer.
pub fn run(target: &dyn FuzzTarget, cfg: &Config) -> Summary {
    let prev_hook = std::panic::take_hook();
    capture_panics();
    let mut rng = FuzzRng::new(cfg.seed);
    let mut corpus = Corpus::new();
    let mut violations: Vec<Violation> = Vec::new();
    let seeds = target.seeds();
    assert!(!seeds.is_empty(), "target must provide at least one seed");

    // Warm up on the seeds: lazily initialized registries and pools
    // allocate on first touch; doing it here keeps iteration
    // measurements clean. Seeds join the corpus like any other input, and
    // the deep check runs on those that are new to it: most inputs the
    // mutator makes fail, and only a seed is sure to decode.
    for seed_input in &seeds {
        let (result, _peak) = execute(target, seed_input);
        if let Ok(outcome) = result {
            let new = corpus.insert(&outcome.signature(target.name()), seed_input);
            if new && cfg.deep_checks {
                if let Err(detail) = target.deep_check(seed_input) {
                    let input = seed_input.clone();
                    record_violation(target, cfg, &mut violations, "deep-check", detail, 0, input);
                }
            }
        }
    }

    let max_len = target.max_input_len();
    for iteration in 0..cfg.iterations {
        let base: &[u8] = if corpus.is_empty() || rng.chance(1, 4) {
            rng.pick(&seeds).as_slice()
        } else {
            let inputs = corpus.inputs();
            inputs[rng.below(inputs.len() as u64) as usize]
        };
        let input = mutate(&mut rng, base, max_len);

        let (first, peak) = execute(target, &input);
        let outcome = match first {
            Err(panic_msg) => {
                record_violation(
                    target,
                    cfg,
                    &mut violations,
                    "panic",
                    panic_msg,
                    iteration,
                    input,
                );
                continue;
            }
            Ok(outcome) => outcome,
        };

        if cfg.alloc_cap > 0 && peak > cfg.alloc_cap {
            record_violation(
                target,
                cfg,
                &mut violations,
                "alloc",
                format!("single allocation of {peak} B exceeds the {} B cap", cfg.alloc_cap),
                iteration,
                input,
            );
            continue;
        }

        // Parse-twice determinism.
        let (second, _peak2) = execute(target, &input);
        match second {
            Ok(o2) if o2 == outcome => {}
            other => {
                record_violation(
                    target,
                    cfg,
                    &mut violations,
                    "nondeterminism",
                    format!("first run {outcome:?}, second run {other:?}"),
                    iteration,
                    input,
                );
                continue;
            }
        }

        let sig = outcome.signature(target.name());
        if corpus.insert(&sig, &input) {
            if cfg.verbose {
                eprintln!("[{}] iter {iteration}: new signature {sig}", target.name());
            }
            if cfg.deep_checks {
                if let Err(detail) = target.deep_check(&input) {
                    record_violation(
                        target,
                        cfg,
                        &mut violations,
                        "deep-check",
                        detail,
                        iteration,
                        input,
                    );
                }
            }
        }
    }

    std::panic::set_hook(prev_hook);
    Summary {
        target: target.name().into(),
        iterations: cfg.iterations,
        signatures: corpus.signatures(),
        violations,
    }
}

#[allow(clippy::too_many_arguments)]
fn record_violation(
    target: &dyn FuzzTarget,
    cfg: &Config,
    violations: &mut Vec<Violation>,
    oracle: &str,
    detail: String,
    iteration: u64,
    input: Vec<u8>,
) {
    // Minimize panics and allocation blowups (the reproducible-on-replay
    // oracles); keep nondeterminism/deep-check inputs as found.
    let minimized = match oracle {
        "panic" | "alloc" => {
            let cap = cfg.alloc_cap;
            minimize_input(input, |cand| violation_matches(target, cand, oracle, cap))
        }
        _ => input,
    };
    let signature = crate::corpus::signature(target.name(), oracle, &detail);
    let reproducer = cfg.reproducer_dir.as_ref().and_then(|dir| {
        let rep = Reproducer {
            target: target.name().into(),
            seed: cfg.seed,
            iteration,
            signature: signature.clone(),
            note: format!("{oracle}: {detail}"),
            bytes: minimized.clone(),
        };
        let name = format!("found_{}_{}_{iteration}", target.name(), oracle);
        match rep.write_to(dir, &name) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("failed to write reproducer {name}: {e}");
                None
            }
        }
    });
    eprintln!(
        "[{}] iter {iteration}: {oracle} VIOLATION ({} byte input): {detail}",
        target.name(),
        minimized.len(),
    );
    violations.push(Violation {
        oracle: oracle.into(),
        detail,
        iteration,
        input: minimized,
        reproducer,
    });
}

/// Shared harness `main`: parse CLI args, size the decode cap to the
/// allocation oracle, run (twice under `--selfcheck`), print the summary,
/// and return the process exit code.
///
/// Flags: `--iterations N`, `--seed S` (else `STZ_FUZZ_SEED`, else 1),
/// `--reproducer-dir DIR`, `--selfcheck`, `--verbose`.
pub fn run_main(target: &dyn FuzzTarget) -> std::process::ExitCode {
    let mut cfg = Config {
        seed: crate::rng::seed_from_env(1),
        reproducer_dir: Some(PathBuf::from("tests/corpus/regressions")),
        ..Config::default()
    };
    let mut selfcheck = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{arg} requires {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--iterations" => {
                cfg.iterations = take("a count").parse().unwrap_or_else(|e| {
                    eprintln!("bad --iterations: {e}");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                cfg.seed = crate::rng::parse_seed(&take("a seed")).unwrap_or_else(|| {
                    eprintln!("bad --seed (decimal or 0x hex)");
                    std::process::exit(2);
                })
            }
            "--reproducer-dir" => cfg.reproducer_dir = Some(PathBuf::from(take("a directory"))),
            "--selfcheck" => selfcheck = true,
            "--verbose" => cfg.verbose = true,
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: fuzz_{} [--iterations N] [--seed S] \
                     [--reproducer-dir DIR] [--selfcheck] [--verbose]",
                    target.name()
                );
                return std::process::ExitCode::from(2);
            }
        }
    }

    // The harness cap: hostile declared geometry must be rejected well
    // below the allocation oracle's threshold.
    stz_codec::set_max_decode_bytes((cfg.alloc_cap / 2) as u64);

    let summary = run(target, &cfg);
    println!(
        "target={} seed={:#x} iterations={} signatures={} violations={}",
        summary.target,
        cfg.seed,
        summary.iterations,
        summary.signatures.len(),
        summary.violations.len()
    );
    for sig in &summary.signatures {
        println!("  {sig}");
    }

    if selfcheck {
        let second = run(target, &cfg);
        if second.signatures != summary.signatures {
            eprintln!("SELFCHECK FAILED: corpus signatures differ between identical runs");
            return std::process::ExitCode::FAILURE;
        }
        println!("selfcheck: corpus signatures identical across two runs");
    }

    if summary.violations.is_empty() {
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!("{} oracle violation(s); reproducers written", summary.violations.len());
        std::process::ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic target for engine unit tests: panics on inputs
    /// containing 0xBAD byte pair, errors on odd lengths.
    struct Synthetic;

    impl FuzzTarget for Synthetic {
        fn name(&self) -> &'static str {
            "synthetic"
        }

        fn seeds(&self) -> Vec<Vec<u8>> {
            vec![vec![1, 2, 3, 4]]
        }

        fn exec(&self, input: &[u8]) -> Outcome {
            if input.windows(2).any(|w| w == [0xBA, 0xD0]) {
                panic!("synthetic panic");
            }
            if input.len() % 2 == 1 {
                Outcome { class: "odd".into(), site: "odd length".into() }
            } else {
                Outcome { class: "ok".into(), site: String::new() }
            }
        }
    }

    #[test]
    fn minimize_shrinks_to_essential_bytes() {
        let mut input = vec![0u8; 300];
        input[137] = 0x7F;
        let out = minimize_input(input, |cand| cand.contains(&0x7F));
        assert_eq!(out, vec![0x7F]);
    }

    #[test]
    fn minimize_preserves_multi_byte_predicates() {
        let mut input = vec![0u8; 64];
        input[10] = 0xBA;
        input[11] = 0xD0;
        let out = minimize_input(input, |cand| cand.windows(2).any(|w| w == [0xBA, 0xD0]));
        assert_eq!(out, vec![0xBA, 0xD0]);
    }

    #[test]
    fn run_is_deterministic_and_catches_panics() {
        let cfg = Config {
            seed: 5,
            iterations: 400,
            alloc_cap: 0,
            deep_checks: false,
            reproducer_dir: None,
            verbose: false,
        };
        let a = run(&Synthetic, &cfg);
        let b = run(&Synthetic, &cfg);
        assert_eq!(a.signatures, b.signatures);
        assert_eq!(a.violations.len(), b.violations.len());
        // The panic input contains two specific adjacent bytes; 400
        // mutations of a 4-byte seed reliably find it, and every found
        // panic minimizes to exactly those two bytes.
        for v in &a.violations {
            assert_eq!(v.oracle, "panic");
            assert_eq!(v.input, vec![0xBA, 0xD0]);
        }
    }

    #[test]
    fn replay_reports_panics_as_errors() {
        assert!(replay(&Synthetic, &[1, 2]).is_ok());
        let err = replay(&Synthetic, &[0xBA, 0xD0]).unwrap_err();
        assert!(err.contains("synthetic panic"), "{err}");
    }
}
