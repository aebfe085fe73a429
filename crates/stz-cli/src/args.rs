//! Flag parsing for the `stz` CLI (no external dependencies).

use std::collections::HashMap;
use stz_field::{Dims, Region};

pub const USAGE: &str = "\
USAGE:
  stz compress   -i <raw> -o <archive> -d <Z>x<Y>x<X> -t <f32|f64> -e <bound>
                 [--backend <stz|sz3|zfp|sperr|mgard>] [--rel]
                 [--levels <2..4>] [--linear] [--no-adaptive] [--threads <N>]
  stz decompress -i <archive> -o <raw> [--backend <name>] [--threads <N>]
  stz info       -i <archive>

  stz pack       -i <raw>[,<raw>...] -o <container> -d <Z>x<Y>x<X> -t <f32|f64>
                 -e <bound> [--backend <name>] [--rel] [--levels <2..4>]
                 [--linear] [--no-adaptive] [--name <entry>] [--threads <N>]

  stz list       --from <dir|server>
  stz inspect    --from <location> [--json]
  stz extract    --from <location> -o <raw> [-r <z0:z1,y0:y1,x0:x1>]
                 [--entry <name>]
  stz preview    --from <location> -o <raw> -l <level> [--entry <name>]

  stz append     -i <raw>[,<raw>...] --to <container> -d <Z>x<Y>x<X> -t <f32|f64>
                 -e <bound> [--backend <name>] [--rel] [--levels <2..4>]
                 [--linear] [--no-adaptive] [--name <entry>] [--threads <N>]
  stz delete     --to <container> --entry <name>
  stz compact    --to <container>

  stz serve      -i <dir|container> [--addr <host:port>] [--cache-mb <MB>]
                 [--max-conns <N>] [--threads <N>]
  stz stats      --from <location> [--json]
  stz trace      --from <location> [--json] [--entry <name>]

Raw files are flat little-endian arrays in C order (x fastest).
Containers (.stzc) hold one entry per input file, named by file stem; preview
and extract read only the byte ranges the query needs.

A <location> is transport-transparent: a container path (steps.stzc), a bare
archive (field.stz), or a hosted container on an stz-serve server
(stz://host:port/steps). list also accepts a directory of containers or a
bare server URI (stz://host:port) and shows what it holds. Every read verb
has ONE code path dispatching through the unified Store API, so local and
remote results are byte-identical. -i is accepted as an alias for --from on
the read verbs.

--backend selects the compression engine (default stz, the native streaming
compressor); decompress sniffs the engine from the archive magic when the
flag is omitted. Containers may mix engines per entry; progressive preview
needs stz entries, while decompress/extract work for every engine.
--levels/--linear/--no-adaptive tune the stz hierarchy and apply only to it.
--threads 0 (the default) uses STZ_THREADS or all cores; output bytes are
identical at every thread count. pack parallelizes across entries, so its
effective width is capped at the input count (one input parallelizes
internally instead).
append/delete/compact are the mutation verbs: they operate on a local
mutable (v3) container named by --to and commit one new generation per
invocation. append compresses its inputs exactly like pack and adds them to
the container; delete drops one named entry; compact rewrites the live
entries into a dense sibling file and atomically renames it into place,
reclaiming the bytes dead generations left behind. A v2 container is
upgraded to v3 in place the first time a mutation verb opens it. Readers
(including a running stz-serve) always see a complete generation: a crash
at any point leaves the previous generation intact. inspect shows the
generation number and live/dead/reclaimable bytes for v3 containers.
serve hosts every .stzc under a directory over the STZP binary protocol
(port 0 picks an ephemeral port, printed on startup). --json prints the
machine-readable entry table, identical for every transport.
stats renders the telemetry registry as a sorted table (histograms fold to
count/p50/p99): for stz:// locations it fetches the server's live registry
over one METRICS round-trip; for local paths it opens the store and shows
the counters the read populated in this process.
trace shows request span trees: for stz:// locations it fetches the
server's tail-sampled traces (slowest + error requests per frame kind)
over one TRACE_GET round-trip; for local paths it traces one full fetch
of the selected entry in this process. The default rendering is a text
waterfall; --json emits Chrome trace-event JSON, loadable in Perfetto
(ui.perfetto.dev) or chrome://tracing.";

/// Parsed command line: subcommand + flag map.
#[derive(Debug)]
pub struct Parsed {
    pub command: String,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Which flags take a value, per the USAGE above.
const VALUED: &[&str] = &[
    "-i",
    "-o",
    "-d",
    "-t",
    "-e",
    "-l",
    "-r",
    "--levels",
    "--from",
    "--to",
    "--entry",
    "--name",
    "--threads",
    "--backend",
    "--addr",
    "--cache-mb",
    "--max-conns",
];

pub fn parse(argv: &[String]) -> Result<Parsed, String> {
    let command = argv.get(1).ok_or("missing subcommand")?.clone();
    let mut flags = HashMap::new();
    let mut switches = Vec::new();
    let mut it = argv[2..].iter();
    while let Some(a) = it.next() {
        if VALUED.contains(&a.as_str()) {
            let v = it.next().ok_or_else(|| format!("flag {a} requires a value"))?;
            flags.insert(a.clone(), v.clone());
        } else if a.starts_with('-') {
            switches.push(a.clone());
        } else {
            return Err(format!("unexpected argument {a}"));
        }
    }
    Ok(Parsed { command, flags, switches })
}

impl Parsed {
    pub fn required(&self, flag: &str) -> Result<&str, String> {
        self.flags
            .get(flag)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag {flag}"))
    }

    pub fn optional(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Worker-thread count from `--threads` (`0` = auto: `STZ_THREADS` or
    /// all cores).
    pub fn threads(&self) -> Result<usize, String> {
        match self.optional("--threads") {
            None => Ok(0),
            Some(v) => v.parse().map_err(|_| "--threads must be a non-negative integer".into()),
        }
    }
}

/// Parse `ZxYxX` (or `YxX`, or `X`) into dims.
pub fn parse_dims(s: &str) -> Result<Dims, String> {
    let parts: Vec<usize> = s
        .split('x')
        .map(|p| p.parse().map_err(|_| format!("bad extent {p:?} in dims {s:?}")))
        .collect::<Result<_, _>>()?;
    match parts[..] {
        [x] if x > 0 => Ok(Dims::d1(x)),
        [y, x] if y > 0 && x > 0 => Ok(Dims::d2(y, x)),
        [z, y, x] if z > 0 && y > 0 && x > 0 => Ok(Dims::d3(z, y, x)),
        _ => Err(format!("dims {s:?} must be 1–3 positive extents separated by 'x'")),
    }
}

/// Parse `z0:z1,y0:y1,x0:x1` into a region (missing leading axes default to
/// the full `0:1` plane, mirroring [`Dims`]'s normalization).
pub fn parse_region(s: &str) -> Result<Region, String> {
    let ranges: Vec<(usize, usize)> = s
        .split(',')
        .map(|r| {
            let (a, b) =
                r.split_once(':').ok_or_else(|| format!("bad range {r:?} (want start:end)"))?;
            let a: usize = a.parse().map_err(|_| format!("bad range start {a:?}"))?;
            let b: usize = b.parse().map_err(|_| format!("bad range end {b:?}"))?;
            if a >= b {
                return Err(format!("empty range {r:?}"));
            }
            Ok((a, b))
        })
        .collect::<Result<_, _>>()?;
    match ranges[..] {
        [(x0, x1)] => Ok(Region::d3(0..1, 0..1, x0..x1)),
        [(y0, y1), (x0, x1)] => Ok(Region::d3(0..1, y0..y1, x0..x1)),
        [(z0, z1), (y0, y1), (x0, x1)] => Ok(Region::d3(z0..z1, y0..y1, x0..x1)),
        _ => Err(format!("region {s:?} must have 1–3 ranges")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        std::iter::once("stz").chain(s.iter().copied()).map(str::to_string).collect()
    }

    #[test]
    fn parse_compress_line() {
        let p = parse(&argv(&[
            "compress", "-i", "a.f32", "-o", "a.stz", "-d", "8x8x8", "-t", "f32", "-e", "1e-3",
            "--rel",
        ]))
        .unwrap();
        assert_eq!(p.command, "compress");
        assert_eq!(p.required("-i").unwrap(), "a.f32");
        assert_eq!(p.required("-e").unwrap(), "1e-3");
        assert!(p.switch("--rel"));
        assert!(!p.switch("--linear"));
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&argv(&["compress", "-i"])).is_err());
        assert!(parse(&argv(&[])).is_err());
    }

    #[test]
    fn threads_flag_parses_with_auto_default() {
        let p = parse(&argv(&["compress", "--threads", "4"])).unwrap();
        assert_eq!(p.threads().unwrap(), 4);
        let p = parse(&argv(&["compress"])).unwrap();
        assert_eq!(p.threads().unwrap(), 0);
        let p = parse(&argv(&["compress", "--threads", "many"])).unwrap();
        assert!(p.threads().is_err());
    }

    #[test]
    fn dims_forms() {
        assert_eq!(parse_dims("100").unwrap(), Dims::d1(100));
        assert_eq!(parse_dims("4x5").unwrap(), Dims::d2(4, 5));
        assert_eq!(parse_dims("4x5x6").unwrap(), Dims::d3(4, 5, 6));
        assert!(parse_dims("0x5").is_err());
        assert!(parse_dims("4x5x6x7").is_err());
        assert!(parse_dims("abc").is_err());
    }

    #[test]
    fn region_forms() {
        assert_eq!(parse_region("2:4").unwrap(), Region::d3(0..1, 0..1, 2..4));
        assert_eq!(parse_region("1:2,3:9").unwrap(), Region::d3(0..1, 1..2, 3..9));
        assert_eq!(parse_region("0:1,2:3,4:5").unwrap(), Region::d3(0..1, 2..3, 4..5));
        assert!(parse_region("3:3").is_err());
        assert!(parse_region("5").is_err());
    }
}
