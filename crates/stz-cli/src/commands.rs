//! Subcommand implementations.
//!
//! The read verbs — `list`, `inspect`, `extract`, `preview` — are
//! location-transparent: they resolve one `--from <location>` (a container
//! path, a bare archive, or an `stz://host:port/container` URI) into a
//! `Box<dyn Store>` and serve the request through the unified access API,
//! so each verb has exactly one code path for every transport.

use crate::args::{self, Parsed};
use crate::fmt;
use std::path::Path;
use stz_access::{
    open_store, open_store_mut, Entry, EntryPayload, EntrySel, Fetch, Location, Store, StoreMut,
};
use stz_backend::{registry, BackendScalar, Codec, ErrorBound};
use stz_core::{pool, InterpKind, StzArchive, StzCompressor, StzConfig};
use stz_data::io::{read_raw, write_raw};
use stz_field::{Field, Scalar};
use stz_serve::{Client, ServeOptions, Server};
use stz_stream::{pack_pipelined, ForeignArchive};

/// Resolve `--backend` (default: the native stz engine).
fn backend_choice(p: &Parsed) -> Result<&'static dyn Codec, String> {
    let name = p.optional("--backend").unwrap_or("stz");
    registry().by_name(name).ok_or_else(|| {
        format!("unknown backend {name:?} (available: {})", registry().names().join(", "))
    })
}

/// Reject stz-only hierarchy flags when a foreign backend is selected.
fn reject_stz_flags(p: &Parsed, backend: &dyn Codec) -> Result<(), String> {
    for flag in ["--levels", "--linear", "--no-adaptive"] {
        let given = match flag {
            "--levels" => p.optional("--levels").is_some(),
            _ => p.switch(flag),
        };
        if given {
            return Err(format!("{flag} applies only to the stz backend, not {}", backend.name()));
        }
    }
    Ok(())
}

/// The requested error bound, before per-field resolution.
fn error_bound(p: &Parsed) -> Result<ErrorBound, String> {
    let eb: f64 =
        p.required("-e")?.parse().map_err(|_| "error bound -e must be a number".to_string())?;
    if !(eb > 0.0 && eb.is_finite()) {
        return Err("error bound must be positive and finite".into());
    }
    Ok(if p.switch("--rel") { ErrorBound::Relative(eb) } else { ErrorBound::Absolute(eb) })
}

pub fn run(argv: &[String]) -> Result<(), String> {
    let p = args::parse(argv)?;
    match p.command.as_str() {
        "compress" => compress(&p),
        "decompress" => decompress(&p),
        "preview" => preview(&p),
        // `roi` predates `extract` and is the same request shape.
        "roi" | "extract" => extract(&p),
        "info" => info(&p),
        "pack" => pack(&p),
        "append" => append(&p),
        "delete" => delete(&p),
        "compact" => compact(&p),
        "list" => list(&p),
        "inspect" => inspect(&p),
        "serve" => serve(&p),
        "stats" => stats(&p),
        "trace" => trace(&p),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The location a read verb operates on: `--from`, or plain `-i`.
fn resolve_from(p: &Parsed) -> Result<String, String> {
    p.optional("--from")
        .or_else(|| p.optional("-i"))
        .map(str::to_string)
        .ok_or_else(|| "missing required flag --from (a path or stz://host:port/container)".into())
}

/// The entry selector of a fetch (`--entry` name, default entry 0).
fn entry_sel(p: &Parsed) -> EntrySel {
    match p.optional("--entry") {
        Some(name) => EntrySel::Name(name.to_string()),
        None => EntrySel::Index(0),
    }
}

/// Open the store at a location, stringifying the error taxonomy.
fn store_at(from: &str) -> Result<Box<dyn Store>, String> {
    open_store(from).map_err(|e| e.to_string())
}

/// Open one entry at a location.
fn open_entry(p: &Parsed, from: &str) -> Result<Box<dyn Entry>, String> {
    store_at(from)?.open(&entry_sel(p)).map_err(|e| e.to_string())
}

/// Whether `path` holds an stz-stream container (vs. a bare archive) —
/// the access layer's sniff; an unreadable file is "not a container" here
/// and produces its real diagnostic from whichever open follows.
fn is_container(path: &Path) -> bool {
    stz_access::is_container_path(path).unwrap_or(false)
}

fn build_config(p: &Parsed) -> Result<StzConfig, String> {
    let eb: f64 =
        p.required("-e")?.parse().map_err(|_| "error bound -e must be a number".to_string())?;
    if !(eb > 0.0 && eb.is_finite()) {
        return Err("error bound must be positive and finite".into());
    }
    let mut cfg = if p.switch("--rel") {
        StzConfig::three_level_relative(eb)
    } else {
        StzConfig::three_level(eb)
    };
    if let Some(l) = p.optional("--levels") {
        let levels: u8 = l.parse().map_err(|_| "--levels must be 2..=4".to_string())?;
        if !(2..=4).contains(&levels) {
            return Err("--levels must be 2..=4".into());
        }
        cfg = cfg.with_levels(levels);
    }
    if p.switch("--linear") {
        cfg = cfg.with_interp(InterpKind::Linear);
    }
    if p.switch("--no-adaptive") {
        cfg = cfg.with_adaptive(false);
    }
    Ok(cfg)
}

fn compress(p: &Parsed) -> Result<(), String> {
    let dims = args::parse_dims(p.required("-d")?)?;
    let backend = backend_choice(p)?;
    let input = Path::new(p.required("-i")?);
    let output = Path::new(p.required("-o")?);
    if backend.id() != stz_backend::id::STZ {
        // Foreign engines compress through the registry (whole-field,
        // serial); the stz path below keeps its tuned parallel pipeline.
        reject_stz_flags(p, backend)?;
        let eb = error_bound(p)?;
        return match p.required("-t")? {
            "f32" => compress_foreign::<f32>(backend, input, output, dims, &eb),
            "f64" => compress_foreign::<f64>(backend, input, output, dims, &eb),
            t => Err(format!("unknown element type {t:?} (want f32 or f64)")),
        };
    }
    let cfg = build_config(p)?;
    let threads = p.threads()?;
    match p.required("-t")? {
        "f32" => compress_typed::<f32>(input, output, dims, cfg, threads),
        "f64" => compress_typed::<f64>(input, output, dims, cfg, threads),
        t => Err(format!("unknown element type {t:?} (want f32 or f64)")),
    }
}

fn compress_foreign<T: BackendScalar>(
    backend: &dyn Codec,
    input: &Path,
    output: &Path,
    dims: stz_field::Dims,
    eb: &ErrorBound,
) -> Result<(), String> {
    let field: Field<T> = read_raw(input, dims).map_err(|e| e.to_string())?;
    let bytes = stz_backend::compress(backend, &field, eb).map_err(|e| e.to_string())?;
    let cr = field.nbytes() as f64 / bytes.len() as f64;
    let len = bytes.len();
    std::fs::write(output, bytes).map_err(|e| e.to_string())?;
    eprintln!(
        "{} -> {} [{}] ({len} bytes, CR {cr:.1}x)",
        input.display(),
        output.display(),
        backend.name()
    );
    Ok(())
}

fn compress_typed<T: Scalar>(
    input: &Path,
    output: &Path,
    dims: stz_field::Dims,
    cfg: StzConfig,
    threads: usize,
) -> Result<(), String> {
    let field: Field<T> = read_raw(input, dims).map_err(|e| e.to_string())?;
    let compressor = StzCompressor::new(cfg);
    let archive = pool::with_threads(threads, || compressor.compress_parallel(&field))
        .map_err(|e| e.to_string())?;
    let cr = archive.compression_ratio();
    let len = archive.compressed_len();
    std::fs::write(output, archive.into_bytes()).map_err(|e| e.to_string())?;
    eprintln!("{} -> {} ({len} bytes, CR {cr:.1}x)", input.display(), output.display());
    Ok(())
}

/// Load an archive and dispatch on the element type its header names.
fn with_archive<R>(
    path: &Path,
    f32_case: impl FnOnce(StzArchive<f32>) -> Result<R, String>,
    f64_case: impl FnOnce(StzArchive<f64>) -> Result<R, String>,
) -> Result<R, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    if stz_core::archive::type_tag(&bytes) == Some(f64::TYPE_TAG) {
        f64_case(StzArchive::from_bytes(bytes).map_err(|e| e.to_string())?)
    } else {
        f32_case(StzArchive::from_bytes(bytes).map_err(|e| e.to_string())?)
    }
}

fn decompress(p: &Parsed) -> Result<(), String> {
    let input = Path::new(p.required("-i")?);
    let output = Path::new(p.required("-o")?).to_path_buf();
    // Which engine wrote this archive? --backend wins; otherwise sniff the
    // magic so `stz decompress` keeps working on any backend's output.
    let backend = match p.optional("--backend") {
        Some(_) => backend_choice(p)?,
        None => {
            let mut prefix = [0u8; 4];
            let mut f = std::fs::File::open(input).map_err(|e| e.to_string())?;
            std::io::Read::read_exact(&mut f, &mut prefix).map_err(|e| e.to_string())?;
            registry().detect(&prefix).ok_or_else(|| {
                format!(
                    "{} is not an archive of any known backend ({})",
                    input.display(),
                    registry().names().join(", ")
                )
            })?
        }
    };
    if backend.id() != stz_backend::id::STZ {
        return decompress_foreign(backend, input, &output);
    }
    let threads = p.threads()?;
    with_archive(
        input,
        |a| {
            let f = pool::with_threads(threads, || a.decompress_parallel())
                .map_err(|e| e.to_string())?;
            write_raw(&output, &f).map_err(|e| e.to_string())?;
            eprintln!("wrote {} ({} f32 values)", output.display(), f.len());
            Ok(())
        },
        |a| {
            let f = pool::with_threads(threads, || a.decompress_parallel())
                .map_err(|e| e.to_string())?;
            write_raw(&output, &f).map_err(|e| e.to_string())?;
            eprintln!("wrote {} ({} f64 values)", output.display(), f.len());
            Ok(())
        },
    )
}

/// Decode a foreign backend's archive, dispatching on the element type the
/// archive itself declares (f32 first, f64 on a type mismatch).
fn decompress_foreign(backend: &dyn Codec, input: &Path, output: &Path) -> Result<(), String> {
    let bytes = std::fs::read(input).map_err(|e| e.to_string())?;
    match stz_backend::decompress::<f32>(backend, &bytes) {
        Ok(f) => {
            write_raw(output, &f).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote {} ({} f32 values, {} backend)",
                output.display(),
                f.len(),
                backend.name()
            );
            Ok(())
        }
        Err(f32_err) => {
            // Both attempts failing must surface both diagnostics — the f32
            // error is the real one for a corrupt f32 archive, the f64 error
            // for a corrupt f64 archive.
            let f: Field<f64> = stz_backend::decompress(backend, &bytes)
                .map_err(|f64_err| format!("as f32: {f32_err}; as f64: {f64_err}"))?;
            write_raw(output, &f).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote {} ({} f64 values, {} backend)",
                output.display(),
                f.len(),
                backend.name()
            );
            Ok(())
        }
    }
}

/// `preview`: a level-k fetch through the unified store — one code path
/// for bare archives, containers, and servers.
fn preview(p: &Parsed) -> Result<(), String> {
    let from = resolve_from(p)?;
    let output = Path::new(p.required("-o")?).to_path_buf();
    let level: u8 =
        p.required("-l")?.parse().map_err(|_| "-l must be a level number".to_string())?;
    let entry = open_entry(p, &from)?;
    let fetched = entry.fetch(&Fetch::Level(level)).map_err(|e| e.to_string())?;
    std::fs::write(&output, &fetched.data).map_err(|e| e.to_string())?;
    let desc = entry.desc();
    let cost = desc
        .level_bytes
        .get(level as usize - 1)
        .map(|b| format!(" ({b} of {} payload bytes needed)", desc.compressed_len))
        .unwrap_or_default();
    eprintln!(
        "level {level} preview of {:?} [{}]: {} -> {}{cost}",
        desc.name,
        fetched.provenance,
        fetched.dims,
        output.display()
    );
    Ok(())
}

/// `extract` (and its older spelling `roi`): a full or region fetch
/// through the unified store.
fn extract(p: &Parsed) -> Result<(), String> {
    let from = resolve_from(p)?;
    let output = Path::new(p.required("-o")?).to_path_buf();
    let fetch = match p.optional("-r") {
        Some(spec) => Fetch::Region(args::parse_region(spec)?),
        None => Fetch::Full,
    };
    let entry = open_entry(p, &from)?;
    let fetched = entry.fetch(&fetch).map_err(|e| e.to_string())?;
    std::fs::write(&output, &fetched.data).map_err(|e| e.to_string())?;
    let what = match &fetch {
        Fetch::Region(region) => format!("ROI {region:?}"),
        _ => "full field".to_string(),
    };
    eprintln!(
        "{what} of {:?} [{}]: {} ({} bytes) -> {}",
        entry.desc().name,
        fetched.provenance,
        fetched.dims,
        fetched.data.len(),
        output.display()
    );
    Ok(())
}

/// `list`: containers at a directory or server, or the entries of one
/// container/archive.
fn list(p: &Parsed) -> Result<(), String> {
    let from = resolve_from(p)?;
    let location = Location::parse(&from).map_err(|e| e.to_string())?;
    let container_level = match &location {
        Location::Remote { container, .. } => container.is_none(),
        Location::Path(path) => path.is_dir(),
    };
    if container_level {
        let containers = stz_access::list_location(&from).map_err(|e| e.to_string())?;
        println!("{} hosted container(s)", containers.len());
        for c in &containers {
            println!("  {:<24} {:>4} entries  {:>12} bytes", c.name, c.entries, c.bytes);
        }
        return Ok(());
    }
    let store = store_at(&from)?;
    let entries = store.list().map_err(|e| e.to_string())?;
    println!("{} entr{} in {}", entries.len(), if entries.len() == 1 { "y" } else { "ies" }, from);
    for d in &entries {
        println!(
            "  [{}] {:<20} {:<6} {:<4} {:>14}  {:>12} bytes",
            d.index,
            d.name,
            d.codec_name().unwrap_or("?"),
            d.type_name(),
            d.dims.to_string(),
            d.compressed_len
        );
    }
    Ok(())
}

fn info(p: &Parsed) -> Result<(), String> {
    // `--from` is accepted alongside the documented `-i`, so the inspect
    // fallback for bare archives works with either spelling.
    let from = resolve_from(p)?;
    let Location::Path(input) = Location::parse(&from).map_err(|e| e.to_string())? else {
        return Err(format!("info requires a local archive path, got {from:?}"));
    };
    with_archive(
        &input,
        |a| {
            print_info("f32", 4, &a);
            Ok(())
        },
        |a| {
            print_info("f64", 8, &a);
            Ok(())
        },
    )
}

fn print_info<T: Scalar>(type_name: &str, bytes_per: usize, a: &StzArchive<T>) {
    let h = a.header();
    println!("dims:            {}", h.dims);
    println!("element type:    {type_name}");
    println!("levels:          {}", h.levels);
    println!("interpolation:   {:?}", h.interp);
    println!("adaptive bounds: {} (ratio {})", h.adaptive, h.adaptive_ratio);
    println!("error bound:     {:.3e} (absolute, finest level)", h.eb_finest);
    println!("compressed:      {} bytes", a.compressed_len());
    println!("uncompressed:    {} bytes", h.dims.len() * bytes_per);
    println!("ratio:           {:.1}x", a.compression_ratio());
    for k in 1..=h.levels {
        println!(
            "  level {k}: preview {} — cumulative {} bytes",
            a.plan().preview_dims(k),
            a.bytes_through_level(k)
        );
    }
}

fn pack(p: &Parsed) -> Result<(), String> {
    let dims = args::parse_dims(p.required("-d")?)?;
    let backend = backend_choice(p)?;
    let threads = p.threads()?;
    let inputs: Vec<&str> = p.required("-i")?.split(',').filter(|s| !s.is_empty()).collect();
    if inputs.is_empty() {
        return Err("pack needs at least one input file".into());
    }
    if p.optional("--name").is_some() && inputs.len() > 1 {
        return Err("--name applies to a single input; multiple inputs are named by stem".into());
    }
    let output = Path::new(p.required("-o")?);
    if backend.id() != stz_backend::id::STZ {
        reject_stz_flags(p, backend)?;
        let eb = error_bound(p)?;
        return match p.required("-t")? {
            "f32" => pack_foreign::<f32>(backend, &inputs, output, dims, &eb, p, threads),
            "f64" => pack_foreign::<f64>(backend, &inputs, output, dims, &eb, p, threads),
            t => Err(format!("unknown element type {t:?} (want f32 or f64)")),
        };
    }
    let cfg = build_config(p)?;
    match p.required("-t")? {
        "f32" => pack_typed::<f32>(&inputs, output, dims, cfg, p.optional("--name"), threads),
        "f64" => pack_typed::<f64>(&inputs, output, dims, cfg, p.optional("--name"), threads),
        t => Err(format!("unknown element type {t:?} (want f32 or f64)")),
    }
}

/// Pack entries compressed by a foreign backend: each input becomes a
/// foreign-codec section, compressed on pipeline workers like the stz path.
fn pack_foreign<T: BackendScalar>(
    backend: &'static dyn Codec,
    inputs: &[&str],
    output: &Path,
    dims: stz_field::Dims,
    eb: &ErrorBound,
    p: &Parsed,
    threads: usize,
) -> Result<(), String> {
    let jobs = entry_jobs(inputs, p.optional("--name"))?;
    // Foreign engines compress serially, so pack parallelism is entry-level.
    let entry_workers = pool::with_threads(threads, pool::threads);
    let n = jobs.len();
    let compress_entry =
        |(name, input): (String, &Path)| -> stz_codec::Result<(String, stz_stream::PackEntry<T>)> {
            let field: Field<T> = read_raw(input, dims)?;
            // Resolve a relative bound once (value_range is a full-field
            // scan) and reuse the absolute value for both the compression
            // and the footer metadata.
            let abs = eb.absolute_for(&field);
            let bytes = stz_backend::compress(backend, &field, &ErrorBound::Absolute(abs))?;
            eprintln!(
                "compressed {} as {name:?} [{}] ({} bytes, CR {:.1}x)",
                input.display(),
                backend.name(),
                bytes.len(),
                field.nbytes() as f64 / bytes.len() as f64
            );
            Ok((name, ForeignArchive::new::<T>(backend.id(), dims, abs, bytes).into()))
        };
    let file = std::fs::File::create(output).map_err(|e| e.to_string())?;
    pack_pipelined(std::io::BufWriter::new(file), jobs, entry_workers, compress_entry)
        .map_err(|e| e.to_string())?;
    eprintln!("wrote {} ({n} entries, {} backend)", output.display(), backend.name());
    Ok(())
}

/// Derive every entry name up front, before any compression work, so
/// naming problems surface as plain CLI errors.
fn entry_jobs<'a>(
    inputs: &[&'a str],
    name_override: Option<&str>,
) -> Result<Vec<(String, &'a Path)>, String> {
    inputs
        .iter()
        .map(|input| {
            let input = Path::new(*input);
            let name = match name_override {
                Some(n) => n.to_string(),
                None => input
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .ok_or_else(|| format!("cannot derive entry name from {}", input.display()))?,
            };
            Ok((name, input))
        })
        .collect()
}

fn pack_typed<T: Scalar>(
    inputs: &[&str],
    output: &Path,
    dims: stz_field::Dims,
    cfg: StzConfig,
    name_override: Option<&str>,
    threads: usize,
) -> Result<(), String> {
    let jobs = entry_jobs(inputs, name_override)?;
    // Entry-level parallelism: workers compress time steps serially while
    // the writer thread appends finished entries in order. A single entry
    // has no sibling entries to overlap with, so it parallelizes
    // *internally* over the pool instead.
    let entry_workers = pool::with_threads(threads, pool::threads);
    let width = if jobs.len() == 1 { entry_workers } else { 1 };
    let compress_entry =
        |(name, input): (String, &Path)| -> stz_codec::Result<(String, stz_stream::PackEntry<T>)> {
            // An unreadable input is an I/O failure, not stream corruption.
            let field: Field<T> = read_raw(input, dims)?;
            let compressor = StzCompressor::new(cfg);
            let archive = pool::with_threads(width, || compressor.compress_parallel(&field))?;
            // Runs on a worker thread, so lines may interleave out of entry
            // order; say "compressed", which is true at this point — whether
            // every entry reached the container is confirmed by the final
            // "wrote … (N entries)" line.
            eprintln!(
                "compressed {} as {name:?} ({} bytes, CR {:.1}x)",
                input.display(),
                archive.compressed_len(),
                archive.compression_ratio()
            );
            Ok((name, archive.into()))
        };
    let file = std::fs::File::create(output).map_err(|e| e.to_string())?;
    let n = jobs.len();
    pack_pipelined(std::io::BufWriter::new(file), jobs, entry_workers, compress_entry)
        .map_err(|e| e.to_string())?;
    eprintln!("wrote {} ({n} entries)", output.display());
    Ok(())
}

/// Open the mutable store a mutation verb targets (`--to <container>`),
/// stringifying the error taxonomy. Remote locations are rejected by the
/// access layer: mutation happens on the host that owns the file.
fn store_mut_at(p: &Parsed) -> Result<Box<dyn StoreMut>, String> {
    let to = p.required("--to")?;
    open_store_mut(to).map_err(|e| e.to_string())
}

/// `append`: compress the inputs exactly like `pack` and add them to a
/// mutable container as one committed generation. A v2 container is
/// upgraded to v3 in place on open; a crash mid-append leaves the previous
/// generation intact.
fn append(p: &Parsed) -> Result<(), String> {
    let dims = args::parse_dims(p.required("-d")?)?;
    let backend = backend_choice(p)?;
    let inputs: Vec<&str> = p.required("-i")?.split(',').filter(|s| !s.is_empty()).collect();
    if inputs.is_empty() {
        return Err("append needs at least one input file".into());
    }
    if p.optional("--name").is_some() && inputs.len() > 1 {
        return Err("--name applies to a single input; multiple inputs are named by stem".into());
    }
    let jobs = entry_jobs(&inputs, p.optional("--name"))?;
    let mut store = store_mut_at(p)?;
    if backend.id() != stz_backend::id::STZ {
        reject_stz_flags(p, backend)?;
        let eb = error_bound(p)?;
        return match p.required("-t")? {
            "f32" => append_foreign::<f32>(store.as_mut(), backend, &jobs, dims, &eb),
            "f64" => append_foreign::<f64>(store.as_mut(), backend, &jobs, dims, &eb),
            t => Err(format!("unknown element type {t:?} (want f32 or f64)")),
        };
    }
    let cfg = build_config(p)?;
    let threads = p.threads()?;
    match p.required("-t")? {
        "f32" => append_typed::<f32>(store.as_mut(), &jobs, dims, cfg, threads),
        "f64" => append_typed::<f64>(store.as_mut(), &jobs, dims, cfg, threads),
        t => Err(format!("unknown element type {t:?} (want f32 or f64)")),
    }
}

fn append_typed<T: Scalar>(
    store: &mut dyn StoreMut,
    jobs: &[(String, &Path)],
    dims: stz_field::Dims,
    cfg: StzConfig,
    threads: usize,
) -> Result<(), String>
where
    EntryPayload: From<StzArchive<T>>,
{
    let compressor = StzCompressor::new(cfg);
    for (name, input) in jobs {
        let field: Field<T> = read_raw(input, dims).map_err(|e| e.to_string())?;
        let archive = pool::with_threads(threads, || compressor.compress_parallel(&field))
            .map_err(|e| e.to_string())?;
        eprintln!(
            "compressed {} as {name:?} ({} bytes, CR {:.1}x)",
            input.display(),
            archive.compressed_len(),
            archive.compression_ratio()
        );
        store.append(name, archive.into()).map_err(|e| e.to_string())?;
    }
    commit_and_report(store, jobs.len(), "appended")
}

fn append_foreign<T: BackendScalar>(
    store: &mut dyn StoreMut,
    backend: &'static dyn Codec,
    jobs: &[(String, &Path)],
    dims: stz_field::Dims,
    eb: &ErrorBound,
) -> Result<(), String> {
    for (name, input) in jobs {
        let field: Field<T> = read_raw(input, dims).map_err(|e| e.to_string())?;
        let abs = eb.absolute_for(&field);
        let bytes = stz_backend::compress(backend, &field, &ErrorBound::Absolute(abs))
            .map_err(|e| e.to_string())?;
        eprintln!(
            "compressed {} as {name:?} [{}] ({} bytes, CR {:.1}x)",
            input.display(),
            backend.name(),
            bytes.len(),
            field.nbytes() as f64 / bytes.len() as f64
        );
        let foreign = ForeignArchive::new::<T>(backend.id(), dims, abs, bytes);
        store.append(name, foreign.into()).map_err(|e| e.to_string())?;
    }
    commit_and_report(store, jobs.len(), "appended")
}

/// Commit staged mutations as one generation and report it.
fn commit_and_report(store: &mut dyn StoreMut, n: usize, verb: &str) -> Result<(), String> {
    let generation = store.commit().map_err(|e| e.to_string())?;
    eprintln!(
        "{verb} {n} entr{} in {} (generation {generation})",
        if n == 1 { "y" } else { "ies" },
        store.locate()
    );
    Ok(())
}

/// `delete`: drop one named entry and commit the next generation. The
/// payload bytes stay in the file as dead space until `compact`.
fn delete(p: &Parsed) -> Result<(), String> {
    let name = p.required("--entry")?;
    let mut store = store_mut_at(p)?;
    store.delete(name).map_err(|e| e.to_string())?;
    commit_and_report(store.as_mut(), 1, "deleted")
}

/// `compact`: rewrite the live entries into a dense sibling file and
/// atomically rename it into place, reclaiming dead generations' bytes.
/// Concurrent readers of the old file keep a complete generation.
fn compact(p: &Parsed) -> Result<(), String> {
    let mut store = store_mut_at(p)?;
    let r = store.compact().map_err(|e| e.to_string())?;
    eprintln!(
        "compacted {}: {} -> {} bytes, reclaimed {} (generation {})",
        store.locate(),
        r.before_bytes,
        r.after_bytes,
        r.reclaimed_bytes,
        r.generation
    );
    Ok(())
}

/// The mutable-container fields `inspect` shows for format-v3 containers
/// (`None` for immutable v1/v2 containers, whose document shape is
/// unchanged).
fn mut_info_at(path: &Path) -> Option<fmt::MutInfo> {
    let reader =
        stz_stream::ContainerReader::open(stz_stream::FileSource::open(path).ok()?).ok()?;
    (reader.version() >= 3).then(|| fmt::MutInfo {
        generation: reader.generation(),
        live_bytes: reader.live_payload_bytes(),
        dead_bytes: reader.dead_payload_bytes(),
    })
}

/// `inspect`: the full entry table of any location, through the unified
/// store. Bare local archives keep their pre-URI behavior and fall
/// through to `info`.
fn inspect(p: &Parsed) -> Result<(), String> {
    let from = resolve_from(p)?;
    if let Ok(Location::Path(path)) = Location::parse(&from) {
        if path.is_file() && !is_container(&path) {
            if p.switch("--json") {
                return Err("--json requires a container (.stzc) input".into());
            }
            return info(p);
        }
    }
    let store = store_at(&from)?;
    let entries = store.list().map_err(|e| e.to_string())?;
    // The table's source label: remote tables are headed by the container
    // name (what --json consumers key on), local tables by the path as typed.
    let source = match Location::parse(&from) {
        Ok(Location::Remote { container: Some(container), .. }) => container,
        _ => from.clone(),
    };
    let mutable = match Location::parse(&from) {
        Ok(Location::Path(path)) if path.is_file() => mut_info_at(&path),
        _ => None,
    };
    print_inspect(&source, &entries, mutable.as_ref(), p.switch("--json"));
    Ok(())
}

/// Render an entry table — the one formatter every transport shares.
fn print_inspect(
    source: &str,
    entries: &[stz_access::EntryDesc],
    mutable: Option<&fmt::MutInfo>,
    json: bool,
) {
    if json {
        println!("{}", fmt::render_json(source, entries, mutable));
    } else {
        print!("{}", fmt::render_text(source, entries, mutable));
    }
}

/// `stats`: the telemetry registry of a location, rendered as a sorted
/// table (or `--json`). `stz://` locations fetch the **server's** live
/// registry over one `METRICS` round-trip; local paths open the store and
/// render this process's registry — the counters the open itself
/// populated (container footer reads, fetch counters from prior verbs in
/// the same process).
fn stats(p: &Parsed) -> Result<(), String> {
    let from = resolve_from(p)?;
    let text = match Location::parse(&from).map_err(|e| e.to_string())? {
        Location::Remote { addr, .. } => {
            let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
            client.metrics().map_err(|e| e.to_string())?
        }
        Location::Path(_) => {
            let store = store_at(&from)?;
            store.list().map_err(|e| e.to_string())?;
            stz_telemetry::global().render()
        }
    };
    let samples = stz_telemetry::expo::parse(&text)
        .map_err(|e| format!("bad metrics exposition from {from}: {e}"))?;
    if p.switch("--json") {
        println!("{}", fmt::render_metrics_json(&from, &samples));
    } else {
        print!("{}", fmt::render_metrics_text(&from, &samples));
    }
    Ok(())
}

/// `trace`: request span trees of a location. `stz://` locations fetch
/// the server's tail-sampled traces (slowest + error requests per frame
/// kind, full span tables) over one `TRACE_GET` round-trip; local paths
/// trace one full fetch of the selected entry through this process's
/// collector, so the decode-stage breakdown is visible without a server.
/// Text waterfall by default; `--json` emits Chrome trace-event JSON for
/// Perfetto / chrome://tracing.
fn trace(p: &Parsed) -> Result<(), String> {
    let from = resolve_from(p)?;
    let traces = match Location::parse(&from).map_err(|e| e.to_string())? {
        Location::Remote { addr, .. } => {
            let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
            client.trace().map_err(|e| e.to_string())?
        }
        Location::Path(_) => {
            let entry = open_entry(p, &from)?;
            let result = {
                let mut root = stz_telemetry::trace::collector().start("cli", "fetch", None);
                root.attr("from", &from);
                let result = entry.fetch(&Fetch::Full);
                if result.is_err() {
                    root.set_error();
                }
                result
            };
            result.map_err(|e| e.to_string())?;
            stz_telemetry::trace::collector().snapshot()
        }
    };
    if p.switch("--json") {
        println!("{}", stz_telemetry::trace::render_chrome_trace(&traces));
    } else if traces.is_empty() {
        eprintln!("no traces retained at {from} (is STZ_TRACE=off set?)");
    } else {
        print!("{}", stz_telemetry::trace::render_waterfall(&traces));
    }
    Ok(())
}

/// Start the archive server (blocking; ^C to stop).
fn serve(p: &Parsed) -> Result<(), String> {
    let root = Path::new(p.required("-i")?);
    let cache_mb: u64 = match p.optional("--cache-mb") {
        None => 256,
        Some(v) => v.parse().map_err(|_| "--cache-mb must be a non-negative integer")?,
    };
    let cache_bytes =
        cache_mb.checked_mul(1 << 20).ok_or("--cache-mb is too large to be a byte budget")?;
    let max_conns: usize = match p.optional("--max-conns") {
        None => 64,
        Some(v) => v.parse().map_err(|_| "--max-conns must be a positive integer")?,
    };
    let opts = ServeOptions {
        root: root.to_path_buf(),
        addr: p.optional("--addr").unwrap_or("127.0.0.1:4815").to_string(),
        cache_bytes,
        threads: p.threads()?,
        max_conns,
        ..ServeOptions::default()
    };
    let server = Server::bind(opts).map_err(|e| e.to_string())?;
    let names = server.container_names();
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Stdout, flushed: scripts (and the CI smoke job) parse this line to
    // learn the ephemeral port.
    println!("hosting {} container(s) from {}: {}", names.len(), root.display(), names.join(", "));
    println!("listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stz_field::Dims;

    /// A scratch directory owned by one test: tests run concurrently, and
    /// each removes its directory when done, so no two may share one.
    fn dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("stz_cli_test_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn argv(s: &[String]) -> Vec<String> {
        std::iter::once("stz".to_string()).chain(s.iter().cloned()).collect()
    }

    #[test]
    fn compress_decompress_cycle() {
        let d = dir("compress");
        let raw = d.join("in.f32");
        let stz = d.join("in.stz");
        let out = d.join("out.f32");
        let dims = Dims::d3(16, 16, 16);
        let field = stz_data::synth::miranda_like(dims, 5);
        write_raw(&raw, &field).unwrap();

        run(&argv(&[
            "compress".into(),
            "-i".into(),
            raw.display().to_string(),
            "-o".into(),
            stz.display().to_string(),
            "-d".into(),
            "16x16x16".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "1e-3".into(),
        ]))
        .unwrap();
        run(&argv(&[
            "decompress".into(),
            "-i".into(),
            stz.display().to_string(),
            "-o".into(),
            out.display().to_string(),
        ]))
        .unwrap();

        let restored: Field<f32> = read_raw(&out, dims).unwrap();
        let err = stz_data::metrics::max_abs_error(&field, &restored);
        assert!(err <= 1e-3);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn preview_and_roi_commands() {
        let d = dir("preview_roi");
        let raw = d.join("a.f32");
        let stz = d.join("a.stz");
        let dims = Dims::d3(16, 16, 16);
        let field = stz_data::synth::miranda_like(dims, 6);
        write_raw(&raw, &field).unwrap();
        run(&argv(&[
            "compress".into(),
            "-i".into(),
            raw.display().to_string(),
            "-o".into(),
            stz.display().to_string(),
            "-d".into(),
            "16x16x16".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "1e-2".into(),
            "--levels".into(),
            "2".into(),
        ]))
        .unwrap();

        // Bare archives serve previews through the same unified store API
        // as containers and servers (a single-entry MemStore).
        let prev = d.join("p.f32");
        run(&argv(&[
            "preview".into(),
            "-i".into(),
            stz.display().to_string(),
            "-o".into(),
            prev.display().to_string(),
            "-l".into(),
            "1".into(),
        ]))
        .unwrap();
        let p: Field<f32> = read_raw(&prev, Dims::d3(8, 8, 8)).unwrap();
        assert_eq!(p.dims().as_array(), [8, 8, 8]);

        let roi_out = d.join("r.f32");
        run(&argv(&[
            "roi".into(),
            "-i".into(),
            stz.display().to_string(),
            "-o".into(),
            roi_out.display().to_string(),
            "-r".into(),
            "2:6,0:16,4:8".into(),
        ]))
        .unwrap();
        let r: Field<f32> = read_raw(&roi_out, Dims::d3(4, 16, 4)).unwrap();
        assert_eq!(r.len(), 4 * 16 * 4);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn pack_inspect_extract_preview_cycle() {
        let d = dir("pack");
        let dims = Dims::d3(16, 16, 16);
        let (raw_a, raw_b) = (d.join("step0.f32"), d.join("step1.f32"));
        let fa = stz_data::synth::miranda_like(dims, 7);
        let fb = stz_data::synth::miranda_like(dims, 8);
        write_raw(&raw_a, &fa).unwrap();
        write_raw(&raw_b, &fb).unwrap();

        let container = d.join("steps.stzc");
        run(&argv(&[
            "pack".into(),
            "-i".into(),
            format!("{},{}", raw_a.display(), raw_b.display()),
            "-o".into(),
            container.display().to_string(),
            "-d".into(),
            "16x16x16".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "1e-3".into(),
        ]))
        .unwrap();
        run(&argv(&["inspect".into(), "--from".into(), container.display().to_string()])).unwrap();
        run(&argv(&["list".into(), "--from".into(), container.display().to_string()])).unwrap();

        // extract --region from the named second entry, addressed by URI.
        let roi_out = d.join("roi.f32");
        run(&argv(&[
            "extract".into(),
            "--from".into(),
            container.display().to_string(),
            "-o".into(),
            roi_out.display().to_string(),
            "-r".into(),
            "2:6,0:16,4:8".into(),
            "--entry".into(),
            "step1".into(),
        ]))
        .unwrap();
        let roi: Field<f32> = read_raw(&roi_out, Dims::d3(4, 16, 4)).unwrap();
        let expect = StzCompressor::new(StzConfig::three_level(1e-3))
            .compress(&fb)
            .unwrap()
            .decompress_region(&stz_field::Region::d3(2..6, 0..16, 4..8))
            .unwrap();
        assert_eq!(roi, expect, "container extract must match in-memory ROI");

        // preview --level from a container (-i stays an alias for --from).
        let prev = d.join("p.f32");
        run(&argv(&[
            "preview".into(),
            "-i".into(),
            container.display().to_string(),
            "-o".into(),
            prev.display().to_string(),
            "-l".into(),
            "1".into(),
        ]))
        .unwrap();
        let p: Field<f32> = read_raw(&prev, Dims::d3(4, 4, 4)).unwrap();
        assert_eq!(p.dims().as_array(), [4, 4, 4]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn append_delete_compact_cycle() {
        let d = dir("mutate");
        let dims = Dims::d3(16, 16, 16);
        let fields: Vec<_> = (0..3).map(|i| stz_data::synth::miranda_like(dims, 40 + i)).collect();
        for (i, f) in fields.iter().enumerate() {
            write_raw(&d.join(format!("step{i}.f32")), f).unwrap();
        }

        // pack writes an immutable v2 container; the first mutation verb
        // upgrades it to v3 in place.
        let container = d.join("live.stzc");
        run(&argv(&[
            "pack".into(),
            "-i".into(),
            d.join("step0.f32").display().to_string(),
            "-o".into(),
            container.display().to_string(),
            "-d".into(),
            "16x16x16".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "1e-3".into(),
        ]))
        .unwrap();
        assert!(mut_info_at(&container).is_none(), "packed containers stay v2");

        run(&argv(&[
            "append".into(),
            "-i".into(),
            format!("{},{}", d.join("step1.f32").display(), d.join("step2.f32").display()),
            "--to".into(),
            container.display().to_string(),
            "-d".into(),
            "16x16x16".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "1e-3".into(),
        ]))
        .unwrap();
        let info = mut_info_at(&container).expect("append upgrades to v3");
        assert_eq!(info.generation, 2, "upgrade is gen 1, the append commit gen 2");
        // The superseded generation's footer stays behind as dead bytes.
        let dead_after_append = info.dead_bytes;
        run(&argv(&["inspect".into(), "--from".into(), container.display().to_string()])).unwrap();
        run(&argv(&[
            "inspect".into(),
            "--from".into(),
            container.display().to_string(),
            "--json".into(),
        ]))
        .unwrap();

        // Appended entries decode byte-identically to an in-memory pipeline.
        let out = d.join("step1.out");
        run(&argv(&[
            "extract".into(),
            "--from".into(),
            container.display().to_string(),
            "--entry".into(),
            "step1".into(),
            "-o".into(),
            out.display().to_string(),
        ]))
        .unwrap();
        let restored: Field<f32> = read_raw(&out, dims).unwrap();
        let expect = StzCompressor::new(StzConfig::three_level(1e-3))
            .compress(&fields[1])
            .unwrap()
            .decompress()
            .unwrap();
        assert_eq!(restored, expect, "appended entry must match in-memory decode");

        // delete leaves dead bytes; compact reclaims them.
        run(&argv(&[
            "delete".into(),
            "--to".into(),
            container.display().to_string(),
            "--entry".into(),
            "step0".into(),
        ]))
        .unwrap();
        let info = mut_info_at(&container).unwrap();
        assert!(info.dead_bytes > dead_after_append, "deleted payload stays as dead bytes");
        run(&argv(&["compact".into(), "--to".into(), container.display().to_string()])).unwrap();
        let info = mut_info_at(&container).unwrap();
        assert_eq!(info.dead_bytes, 0, "compaction reclaims dead bytes");

        // The survivors still decode; the deleted entry errors cleanly.
        run(&argv(&[
            "extract".into(),
            "--from".into(),
            container.display().to_string(),
            "--entry".into(),
            "step2".into(),
            "-o".into(),
            d.join("step2.out").display().to_string(),
        ]))
        .unwrap();
        assert!(run(&argv(&[
            "extract".into(),
            "--from".into(),
            container.display().to_string(),
            "--entry".into(),
            "step0".into(),
            "-o".into(),
            d.join("gone.out").display().to_string(),
        ]))
        .is_err());

        // Mutation over the wire is rejected with a clear diagnostic.
        assert!(run(&argv(&[
            "delete".into(),
            "--to".into(),
            "stz://127.0.0.1:4815/steps".into(),
            "--entry".into(),
            "step2".into(),
        ]))
        .unwrap_err()
        .contains("read-only over the wire"));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn threads_flag_produces_identical_outputs() {
        let d = dir("threads");
        let dims = Dims::d3(16, 16, 16);
        let (raw_a, raw_b) = (d.join("s0.f32"), d.join("s1.f32"));
        write_raw(&raw_a, &stz_data::synth::miranda_like(dims, 21)).unwrap();
        write_raw(&raw_b, &stz_data::synth::miranda_like(dims, 22)).unwrap();

        let compress_with = |threads: &str, out: &std::path::Path| {
            run(&argv(&[
                "compress".into(),
                "-i".into(),
                raw_a.display().to_string(),
                "-o".into(),
                out.display().to_string(),
                "-d".into(),
                "16x16x16".into(),
                "-t".into(),
                "f32".into(),
                "-e".into(),
                "1e-3".into(),
                "--threads".into(),
                threads.into(),
            ]))
            .unwrap();
        };
        let (one, four) = (d.join("t1.stz"), d.join("t4.stz"));
        compress_with("1", &one);
        compress_with("4", &four);
        assert_eq!(std::fs::read(&one).unwrap(), std::fs::read(&four).unwrap());

        let pack_with = |threads: &str, out: &std::path::Path| {
            run(&argv(&[
                "pack".into(),
                "-i".into(),
                format!("{},{}", raw_a.display(), raw_b.display()),
                "-o".into(),
                out.display().to_string(),
                "-d".into(),
                "16x16x16".into(),
                "-t".into(),
                "f32".into(),
                "-e".into(),
                "1e-3".into(),
                "--threads".into(),
                threads.into(),
            ]))
            .unwrap();
        };
        let (c1, c4) = (d.join("c1.stzc"), d.join("c4.stzc"));
        pack_with("1", &c1);
        pack_with("4", &c4);
        assert_eq!(std::fs::read(&c1).unwrap(), std::fs::read(&c4).unwrap());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn backend_flag_roundtrips_every_engine() {
        let d = dir("backend");
        let raw = d.join("b.f32");
        let dims = Dims::d3(16, 16, 16);
        let field = stz_data::synth::miranda_like(dims, 9);
        write_raw(&raw, &field).unwrap();

        for backend in ["stz", "sz3", "zfp", "sperr", "mgard"] {
            let arc = d.join(format!("b.{backend}"));
            let out = d.join(format!("b.{backend}.out"));
            run(&argv(&[
                "compress".into(),
                "-i".into(),
                raw.display().to_string(),
                "-o".into(),
                arc.display().to_string(),
                "-d".into(),
                "16x16x16".into(),
                "-t".into(),
                "f32".into(),
                "-e".into(),
                "1e-3".into(),
                "--backend".into(),
                backend.into(),
            ]))
            .unwrap();
            // No --backend on decompress: the engine is sniffed from magic.
            run(&argv(&[
                "decompress".into(),
                "-i".into(),
                arc.display().to_string(),
                "-o".into(),
                out.display().to_string(),
            ]))
            .unwrap();
            let restored: Field<f32> = read_raw(&out, dims).unwrap();
            let err = stz_data::metrics::max_abs_error(&field, &restored);
            assert!(err <= 1e-3 * (1.0 + 1e-6), "{backend}: err {err}");
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn backend_pack_inspect_extract_cycle() {
        let d = dir("backend_pack");
        let dims = Dims::d3(16, 16, 16);
        let raw = d.join("s0.f32");
        let field = stz_data::synth::miranda_like(dims, 13);
        write_raw(&raw, &field).unwrap();

        let container = d.join("zfp.stzc");
        run(&argv(&[
            "pack".into(),
            "-i".into(),
            raw.display().to_string(),
            "-o".into(),
            container.display().to_string(),
            "-d".into(),
            "16x16x16".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "1e-3".into(),
            "--backend".into(),
            "zfp".into(),
        ]))
        .unwrap();
        run(&argv(&["inspect".into(), "--from".into(), container.display().to_string()])).unwrap();

        // Extract works on foreign entries (full decode + crop).
        let roi_out = d.join("roi.f32");
        run(&argv(&[
            "extract".into(),
            "--from".into(),
            container.display().to_string(),
            "-o".into(),
            roi_out.display().to_string(),
            "-r".into(),
            "2:6,0:16,4:8".into(),
        ]))
        .unwrap();
        let roi: Field<f32> = read_raw(&roi_out, Dims::d3(4, 16, 4)).unwrap();
        assert_eq!(roi.len(), 4 * 16 * 4);

        // Preview needs the stz hierarchy: a zfp entry errors, no panic.
        let prev = d.join("p.f32");
        assert!(run(&argv(&[
            "preview".into(),
            "--from".into(),
            container.display().to_string(),
            "-o".into(),
            prev.display().to_string(),
            "-l".into(),
            "1".into(),
        ]))
        .is_err());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn unknown_backend_and_stz_flags_rejected() {
        assert!(run(&argv(&[
            "compress".into(),
            "-i".into(),
            "/nonexistent".into(),
            "-o".into(),
            "/tmp/x".into(),
            "-d".into(),
            "4x4x4".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "1e-3".into(),
            "--backend".into(),
            "lz4".into(),
        ]))
        .unwrap_err()
        .contains("unknown backend"));
        // Hierarchy flags are stz-only.
        assert!(run(&argv(&[
            "compress".into(),
            "-i".into(),
            "/nonexistent".into(),
            "-o".into(),
            "/tmp/x".into(),
            "-d".into(),
            "4x4x4".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "1e-3".into(),
            "--backend".into(),
            "zfp".into(),
            "--levels".into(),
            "3".into(),
        ]))
        .unwrap_err()
        .contains("--levels"));
    }

    #[test]
    fn uri_and_alias_commands_roundtrip_against_inprocess_server() {
        let d = dir("remote");
        let dims = Dims::d3(16, 16, 16);
        let raw = d.join("t0.f32");
        let field = stz_data::synth::miranda_like(dims, 31);
        write_raw(&raw, &field).unwrap();
        let container = d.join("steps.stzc");
        run(&argv(&[
            "pack".into(),
            "-i".into(),
            raw.display().to_string(),
            "-o".into(),
            container.display().to_string(),
            "-d".into(),
            "16x16x16".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "1e-3".into(),
        ]))
        .unwrap();

        let server = Server::bind(ServeOptions {
            root: d.clone(),
            addr: "127.0.0.1:0".into(),
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.spawn().unwrap();
        let uri = format!("stz://{addr}/steps");

        // The unified spellings.
        run(&argv(&["list".into(), "--from".into(), format!("stz://{addr}")])).unwrap();
        run(&argv(&["list".into(), "--from".into(), d.display().to_string()])).unwrap();
        run(&argv(&["inspect".into(), "--from".into(), uri.clone(), "--json".into()])).unwrap();

        // remote extract == local extract, byte for byte — one code path,
        // two transports.
        let (remote_out, local_out) = (d.join("remote.f32"), d.join("local.f32"));
        run(&argv(&[
            "extract".into(),
            "--from".into(),
            uri.clone(),
            "-o".into(),
            remote_out.display().to_string(),
            "-r".into(),
            "2:6,0:16,4:8".into(),
        ]))
        .unwrap();
        run(&argv(&[
            "extract".into(),
            "--from".into(),
            container.display().to_string(),
            "-o".into(),
            local_out.display().to_string(),
            "-r".into(),
            "2:6,0:16,4:8".into(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&remote_out).unwrap(),
            std::fs::read(&local_out).unwrap(),
            "remote extract must be byte-identical to local extract"
        );

        // -i stays an alias for --from, for remote locations too.
        run(&argv(&[
            "preview".into(),
            "-i".into(),
            uri.clone(),
            "-o".into(),
            d.join("prev.f32").display().to_string(),
            "-l".into(),
            "1".into(),
        ]))
        .unwrap();

        // Unknown container errors cleanly over the wire.
        assert!(run(&argv(&["inspect".into(), "--from".into(), format!("stz://{addr}/nope"),]))
            .is_err());

        // stats works against the live server (table and JSON) and
        // against the local container (this process's registry).
        run(&argv(&["stats".into(), "--from".into(), uri.clone()])).unwrap();
        run(&argv(&["stats".into(), "--from".into(), uri.clone(), "--json".into()])).unwrap();
        run(&argv(&["stats".into(), "--from".into(), container.display().to_string()])).unwrap();

        // trace works against the live server (the extracts above left
        // retained traces), in both renderings, and against the local
        // container (tracing one in-process fetch).
        run(&argv(&["trace".into(), "--from".into(), uri.clone()])).unwrap();
        run(&argv(&["trace".into(), "--from".into(), uri.clone(), "--json".into()])).unwrap();
        run(&argv(&["trace".into(), "--from".into(), container.display().to_string()])).unwrap();

        handle.stop();
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(run(&argv(&["frobnicate".into()])).is_err());
        assert!(run(&argv(&["compress".into()])).is_err());
        assert!(run(&argv(&["extract".into(), "-o".into(), "/tmp/x".into()])).is_err());
        assert!(run(&argv(&[
            "extract".into(),
            "--from".into(),
            "stz://missing-a-port/steps".into(),
            "-o".into(),
            "/tmp/x".into(),
        ]))
        .is_err());
        assert!(run(&argv(&[
            "compress".into(),
            "-i".into(),
            "/nonexistent".into(),
            "-o".into(),
            "/tmp/x".into(),
            "-d".into(),
            "4x4x4".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "-1".into(),
        ]))
        .is_err());

        // A corrupt f32 archive reports its own error, not an f64 retry's.
        let d = dir("corrupt_f32");
        let (raw, stz) = (d.join("in.f32"), d.join("in.stz"));
        write_raw(&raw, &stz_data::synth::miranda_like(Dims::d3(16, 16, 16), 5)).unwrap();
        run(&argv(&[
            "compress".into(),
            "-i".into(),
            raw.display().to_string(),
            "-o".into(),
            stz.display().to_string(),
            "-d".into(),
            "16x16x16".into(),
            "-t".into(),
            "f32".into(),
            "-e".into(),
            "1e-3".into(),
        ]))
        .unwrap();
        let mut bytes = std::fs::read(&stz).unwrap();
        bytes[9] = 1; // nx: the level blocks no longer fit the geometry
        std::fs::write(&stz, bytes).unwrap();
        let (stz, out) = (stz.display().to_string(), d.join("out.f32").display().to_string());
        for args in [
            vec!["info".into(), "-i".into(), stz.clone()],
            vec!["inspect".into(), "-i".into(), stz.clone()],
            vec!["decompress".into(), "-i".into(), stz, "-o".into(), out],
        ] {
            let err = run(&argv(&args)).unwrap_err();
            assert!(err.contains("level 2 has 7 blocks, geometry requires"), "{args:?}: {err}");
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_f64_archive_reports_its_own_error() {
        let d = dir("corrupt_f64");
        let (raw, stz) = (d.join("in.f64"), d.join("in.stz"));
        let field =
            Field::from_fn(Dims::d3(16, 16, 16), |z, y, x| ((z * y + x) as f64 * 0.01).sin());
        write_raw(&raw, &field).unwrap();
        run(&argv(&[
            "compress".into(),
            "-i".into(),
            raw.display().to_string(),
            "-o".into(),
            stz.display().to_string(),
            "-d".into(),
            "16x16x16".into(),
            "-t".into(),
            "f64".into(),
            "-e".into(),
            "1e-3".into(),
        ]))
        .unwrap();
        let bytes = std::fs::read(&stz).unwrap();
        let out = d.join("out.f64").display().to_string();
        let verbs = |stz: &str| -> [Vec<String>; 3] {
            [
                vec!["info".into(), "-i".into(), stz.into()],
                vec!["inspect".into(), "-i".into(), stz.into()],
                vec!["decompress".into(), "-i".into(), stz.into(), "-o".into(), out.clone()],
            ]
        };
        let mut corrupt = bytes.clone();
        corrupt[9] = 1; // nx: the level blocks no longer fit the geometry
        std::fs::write(&stz, corrupt).unwrap();
        for args in verbs(&stz.display().to_string()) {
            let err = run(&argv(&args)).unwrap_err();
            assert!(err.contains("level 2 has 7 blocks, geometry requires"), "{args:?}: {err}");
        }
        // Cut before the type tag: no tag to dispatch on, still a clean error.
        std::fs::write(&stz, &bytes[..5]).unwrap();
        for args in verbs(&stz.display().to_string()) {
            assert!(run(&argv(&args)).is_err(), "{args:?}");
        }
        let _ = std::fs::remove_dir_all(&d);
    }
}
