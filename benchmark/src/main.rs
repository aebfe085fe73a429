//! The repo benchmark: four workloads, end-to-end metrics and a per-layer
//! table, all timed from outside through the crates' public functions.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]] \
//!     [--repeat K] [--out FILE]
//! ```
//!
//! One workload runs in this process and prints its result as the last line
//! of standard output. `--workload all` and `--repeat K` run each workload
//! in a child process of its own (so peak RSS and lazy set-up are per
//! workload, as the driver sees them) and print a table of the sets.
//! README.md documents the workloads and metrics.

mod heap;
mod ingest_live;
mod local_codec;
mod micro;
mod report;
mod serve;
mod spec;
mod trace;
mod util;
mod yardstick;

use report::Outcome;
use std::process::ExitCode;
use trace::{Phase, Tracer};
use yardstick::Yardstick;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// What a workload needs from the command line, plus its scratch directory.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    pub yardstick: Yardstick,
    pub scratch: util::Scratch,
}

/// Operations completed in a timed window and the seconds they took.
#[derive(Clone, Copy)]
pub struct WindowStats {
    pub ops: u64,
    pub wall_s: f64,
}

/// Run the timed window. End-to-end metrics are always taken with tracing
/// off; a traced run spends half its seconds untraced and half traced, and
/// the ratio of the two operation rates is the tracing overhead.
pub fn windows(
    ctx: &mut Ctx,
    mut window: impl FnMut(f64, &mut Tracer, &mut Yardstick) -> WindowStats,
) -> (WindowStats, f64) {
    ctx.tracer.set_enabled(false);
    if !ctx.traced {
        return (window(ctx.seconds, &mut ctx.tracer, &mut ctx.yardstick), 0.0);
    }
    let plain = window(ctx.seconds / 2.0, &mut ctx.tracer, &mut ctx.yardstick);
    ctx.tracer.set_enabled(true);
    let traced = window(ctx.seconds / 2.0, &mut ctx.tracer, &mut ctx.yardstick);
    let rate = |w: WindowStats| w.ops as f64 / w.wall_s;
    (traced, rate(plain) / rate(traced) - 1.0)
}

/// In a traced run: turn the spans into the per-layer table, write the
/// Chrome trace, and run the layer micro-measurements.
pub fn finish_trace(
    ctx: &mut Ctx,
    outcome: &mut Outcome,
    generate_s: f64,
    window: WindowStats,
    overhead: f64,
) {
    if !ctx.traced {
        return;
    }
    let layers = &mut outcome.layers;
    let (set_up, _) = trace::self_times(ctx.tracer.spans(), Phase::Setup);
    let (timed, root_s) = trace::self_times(ctx.tracer.spans(), Phase::Window);
    for layer in spec::TRACED_LAYERS {
        let in_window = timed.get(layer).copied().unwrap_or_default();
        layers.set(&format!("{layer}.setup_self_s"), set_up.get(layer).map_or(0.0, |l| l.self_s));
        layers.set(&format!("{layer}.window_self_s"), in_window.self_s);
        layers.set(&format!("{layer}.window_calls"), in_window.calls as f64);
    }
    let own = timed.get("bench").map_or(0.0, |l| l.self_s);
    layers.set("bench.ops", window.ops as f64);
    layers.set("bench.wall_s", window.wall_s);
    layers.set("bench.unattributed_ratio", if root_s > 0.0 { own / root_s } else { 0.0 });
    layers.set("bench.trace_overhead_ratio", overhead);
    layers.set("bench.peak_rss_mb", util::peak_rss_mb());
    layers.set("stz-data.generate_s", generate_s);

    let path = util::package_dir().join("work").join(format!("trace-{}.json", ctx.workload));
    match std::fs::write(&path, ctx.tracer.chrome_json()) {
        Ok(()) => println!("# wrote {} ({} spans)", path.display(), ctx.tracer.spans().len()),
        Err(e) => outcome.tally.fail(format!("cannot write {}: {e}", path.display())),
    }
    micro::run(ctx.seed, ctx.scratch.path(), layers);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    out: Option<String>,
    emit_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 2025,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        repeat: 1,
        out: None,
        emit_spec: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name or `all`")?,
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--repeat" => {
                args.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => args.out = Some(value("a file")?),
            "--emit-spec" => args.emit_spec = true,
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.traced = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = spec::WORKLOADS.iter().any(|w| w.name == args.workload);
    if !known && args.workload != "all" {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {}; one of {} or all",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

/// Run one workload in this process; returns its result line.
fn run_one(args: &Args) -> Result<(String, bool), String> {
    let workload = spec::WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("checked by parse_args")
        .name;
    println!(
        "# {workload} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.traced as u8
    );
    println!("# {}", util::machine_facts());
    let scratch = util::Scratch::create(workload).map_err(|e| format!("scratch directory: {e}"))?;
    let mut ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        tracer: Tracer::new(args.traced),
        yardstick: Yardstick::start(),
        scratch,
    };
    let outcome = match workload {
        "local_codec" => local_codec::run(&mut ctx),
        "serve_cold" => serve::run(&serve::COLD, &mut ctx),
        "serve_hot" => serve::run(&serve::HOT, &mut ctx),
        "ingest_live" => ingest_live::run(&mut ctx),
        _ => unreachable!("checked by parse_args"),
    };
    println!("# {}", ctx.yardstick.summary());
    drop(ctx);
    for note in &outcome.tally.notes {
        println!("# FAILED: {note}");
    }
    report::print_table(&outcome, args.traced);
    Ok((report::result_json(&outcome, args.traced), outcome.tally.failed == 0))
}

/// The number that follows `"<name>": {"value": ` in a result line.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// `--workload all` and `--repeat K`: one child process per workload and set.
/// Prints, per workload and end-to-end metric, each set's value, the spread
/// `(max - min) / median` and the bound, and fails when a spread exceeds its
/// bound or a child fails.
fn run_sets(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let names: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload == "all" || args.workload == *n)
        .collect();
    let mut ok = true;
    let mut lines: Vec<(&str, Vec<String>)> = names.iter().map(|n| (*n, Vec::new())).collect();
    for set in 0..args.repeat {
        for (name, results) in &mut lines {
            println!("# --- set {} of {}: {name}", set + 1, args.repeat);
            let output = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {name}: {e}"))?;
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            ok &= output.status.success();
            results.push(text.lines().last().unwrap_or_default().to_string());
        }
    }
    let metrics: &[spec::Metric] = if args.traced { spec::PER_LAYER } else { &spec::END_TO_END };
    for (name, results) in &lines {
        println!("# === {name}: one column per set, then spread and bound");
        for m in metrics {
            let values: Vec<f64> = results.iter().filter_map(|r| value_of(r, m.name)).collect();
            if values.len() != results.len() {
                println!("# {:<44} missing from a result line", m.name);
                ok = false;
                continue;
            }
            let mut sorted = values.clone();
            let mid = util::median(&mut sorted);
            let spread =
                if mid != 0.0 { (sorted[sorted.len() - 1] - sorted[0]) / mid.abs() } else { 0.0 };
            let cells: Vec<String> = values.iter().map(|v| format!("{v:>12.4}")).collect();
            let verdict = if args.traced || args.repeat < 2 {
                String::new()
            } else if spread <= m.bound {
                format!(" spread {spread:.4} <= bound {}", m.bound)
            } else {
                ok = false;
                format!(" spread {spread:.4} EXCEEDS bound {}", m.bound)
            };
            println!("# {:<44}{} {}{verdict}", m.name, cells.join(""), m.unit);
        }
    }
    if let Some(out) = &args.out {
        let sets: Vec<String> = lines
            .iter()
            .map(|(name, results)| format!("\"{name}\": [{}]", results.join(", ")))
            .collect();
        std::fs::write(out, format!("{{{}}}\n", sets.join(", ")))
            .map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stz-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = if args.workload == "all" || args.repeat > 1 {
        run_sets(&args)
    } else {
        run_one(&args).and_then(|(line, ok)| {
            if let Some(out) = &args.out {
                std::fs::write(out, format!("{line}\n")).map_err(|e| format!("{out}: {e}"))?;
            }
            println!("{line}");
            Ok(ok)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stz-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
