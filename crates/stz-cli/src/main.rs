//! `stz` — command-line interface to the STZ streaming lossy compressor.
//!
//! Operates on flat little-endian binary arrays (the interchange format of
//! the SZ/ZFP ecosystems). Subcommands:
//!
//! ```text
//! stz compress   -i data.f32 -o data.stz -d 512x512x512 -t f32 -e 1e-3 [--rel] [--levels 3]
//! stz decompress -i data.stz -o out.f32
//! stz preview    -i data.stz -o coarse.f32 -l 1
//! stz roi        -i data.stz -o roi.f32 -r z0:z1,y0:y1,x0:x1
//! stz info       -i data.stz
//!
//! stz pack       -i t0.f32,t1.f32 -o steps.stzc -d 512x512x512 -t f32 -e 1e-3
//! stz inspect    -i steps.stzc [--json]
//! stz extract    -i steps.stzc -o roi.f32 -r z0:z1,y0:y1,x0:x1 [--entry t1]
//! stz preview    -i steps.stzc -o coarse.f32 -l 1 [--entry t0]
//!
//! stz serve      -i archives/ --addr 127.0.0.1:4815
//! stz list       --from stz://HOST:PORT
//! stz inspect    --from stz://HOST:PORT/steps [--json]
//! stz extract    --from stz://HOST:PORT/steps -o roi.f32 -r z0:z1,y0:y1,x0:x1
//! stz preview    --from stz://HOST:PORT/steps -o coarse.f32 -l 1
//! ```
//!
//! `pack` writes the stz-stream on-disk container; `extract` and `preview`
//! on a container read only the byte ranges the query needs. `serve` hosts
//! a directory of containers over the STZP binary protocol (stz-serve);
//! the read verbs take an `stz://` location in place of a path.

mod args;
mod commands;
mod fmt;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
