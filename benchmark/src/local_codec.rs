//! `local_codec`: the library used in process on one thread — no pool, no
//! container, no socket. Three fields of 67 MB each (32x the 2 MiB L2):
//! `nyx256` (ratio ~190, entropy coding nearly free, grid traffic dominates),
//! `magrec256` (ratio ~11, the entropy-heaviest case) and `warpx512` (f64, so
//! a change that specialises the f32 path cannot hide a slower f64 path).

use crate::report::{EndToEnd, Outcome, Tally};
use crate::trace::{Phase, Tracer};
use crate::util::{geomean, quantile_of, timed, Rng};
use crate::yardstick::Yardstick;
use crate::{windows, Ctx, WindowStats};
use std::time::Instant;
use stz::core::{StzArchive, StzCompressor, StzConfig};
use stz::data::{metrics::max_abs_error, synth};
use stz::field::{Dims, Field, Region, Scalar};

/// Relative error bound used by every workload.
pub const REL_EB: f64 = 1e-3;

/// Operations of one block on one field: 1 compress, 1 decompress, then
/// these many previews, cube ROIs and z-slice ROIs.
const PREVIEWS: usize = 3;
const CUBES: usize = 4;
const SLICES: usize = 2;

/// Blocks every field must complete before the window may close.
const MIN_BLOCKS: usize = 2;

/// Percentile of the cube-ROI latencies reported as `roi_tail_ms`: a block
/// yields 4 samples per field, so a run has a few dozen and p75 is the
/// highest percentile with a usable number of samples beyond it.
const TAIL_Q: f64 = 0.75;

/// The absolute bound for `field`: [`REL_EB`] times its value range.
pub fn error_bound<T: Scalar>(field: &Field<T>) -> f64 {
    let (lo, hi) = field.value_range();
    REL_EB * (hi - lo)
}

/// Whether a measured maximum error is within `eb`, with the slack the
/// workspace's own tests allow for f32 rounding.
pub fn honours_bound(err: f64, eb: f64) -> bool {
    err <= eb * (1.0 + 1e-6) + 1e-12
}

/// Seed of every generated field, in every workload and run. `--seed` moves
/// ROI offsets, key pools and request order but not the fields: their content
/// alone moves codec time by 5-8 % (`nyx_like` halos), which a reader of the
/// results could not tell from a regression.
pub const FIELD_SEED: u64 = 2025;

/// The three fields, generated on two fresh threads (the two f32 fields cost
/// the same, the f64 one less than half). Fresh, because a thread that has
/// decoded once runs the generators' libm-heavy scalar code ~6x slower, and
/// the micro-measurements generate after the workload has decoded.
pub struct CodecFields {
    pub nyx: Field<f32>,
    pub magrec: Field<f32>,
    pub warpx: Field<f64>,
}

pub fn generate_fields() -> CodecFields {
    let mut rng = Rng::new(FIELD_SEED);
    let (s_nyx, s_magrec, s_warpx) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
    std::thread::scope(|scope| {
        let magrec = scope.spawn(move || synth::magrec_like(Dims::d3(256, 256, 256), s_magrec));
        let others = scope.spawn(move || {
            let nyx = synth::nyx_like(Dims::d3(256, 256, 256), s_nyx);
            (nyx, synth::warpx_like(Dims::d3(128, 128, 512), s_warpx))
        });
        let (nyx, warpx) = others.join().expect("generator thread");
        CodecFields { nyx, magrec: magrec.join().expect("generator thread"), warpx }
    })
}

#[derive(Default)]
struct Samples {
    compress_ms: Vec<f64>,
    decompress_ms: Vec<f64>,
    preview_ms: Vec<f64>,
    cube_ms: Vec<f64>,
    ops: u64,
    busy_s: f64,
}

/// One field with its compressor, generic over the element type behind
/// [`Case`] so the f32 and f64 fields run through the same loop.
struct TypedCase<T: Scalar> {
    name: &'static str,
    field: Field<T>,
    /// The stride-2 lattice of `field`, which a level-2 preview reconstructs.
    preview_ref: Field<T>,
    eb: f64,
    compressor: StzCompressor,
    archive: Option<StzArchive<T>>,
    samples: Samples,
}

trait Case {
    fn name(&self) -> &'static str;
    fn raw_bytes(&self) -> usize;
    fn stored_bytes(&self) -> usize;
    fn samples(&self) -> &Samples;
    fn reset_samples(&mut self);
    /// One block of operations; with `warm_up` a shortened one held against
    /// the caller's yardstick sample, else one that takes its own.
    fn block(
        &mut self,
        tr: &mut Tracer,
        yard: &mut Yardstick,
        rng: &mut Rng,
        tally: &mut Tally,
        warm_up: bool,
    );
}

impl<T: Scalar> TypedCase<T> {
    fn new(name: &'static str, field: Field<T>) -> TypedCase<T> {
        let eb = error_bound(&field);
        TypedCase {
            name,
            preview_ref: field.downsample(2),
            compressor: StzCompressor::new(StzConfig::three_level(eb)),
            field,
            eb,
            archive: None,
            samples: Samples::default(),
        }
    }

    /// A region of 1/64 of the volume (a quarter per axis) at a drawn offset.
    fn cube(&self, rng: &mut Rng) -> Region {
        let [nz, ny, nx] = self.field.dims().as_array();
        let mut axis = |n: usize| {
            let side = n / 4;
            let lo = rng.below(n - side + 1);
            lo..lo + side
        };
        Region::d3(axis(nz), axis(ny), axis(nx))
    }

    /// Time one call into `stz-core` under a `bench` root span that also
    /// covers the check of its output; returns the call's seconds at the
    /// yardstick's reference speed, by a sample taken just before the call
    /// (`fresh`) or by the newest there is.
    #[allow(clippy::too_many_arguments)]
    fn op<R>(
        &mut self,
        tr: &mut Tracer,
        yard: &mut Yardstick,
        fresh: bool,
        name: &'static str,
        call: impl FnOnce(&Self) -> stz::codec::Result<R>,
        check: impl FnOnce(&Self, &R) -> Result<(), String>,
        tally: &mut Tally,
    ) -> Option<(R, f64)> {
        if fresh {
            yard.sample();
        }
        tr.call("bench", name, |tr| {
            let (out, secs) = timed(|| tr.call("stz-core", name, |_| call(self)));
            let secs = yard.at_reference(secs);
            self.samples.ops += 1;
            self.samples.busy_s += secs;
            match out {
                Ok(out) => match check(self, &out) {
                    Ok(()) => {
                        tally.ok();
                        Some((out, secs))
                    }
                    Err(why) => {
                        tally.fail(format!("{} {name}: {why}", self.name));
                        None
                    }
                },
                Err(e) => {
                    tally.fail(format!("{} {name}: {e}", self.name));
                    None
                }
            }
        })
    }

    fn within_bound(&self, reference: &Field<T>, got: &Field<T>) -> Result<(), String> {
        if reference.dims() != got.dims() {
            return Err(format!("dims {} instead of {}", got.dims(), reference.dims()));
        }
        let err = max_abs_error(reference, got);
        if honours_bound(err, self.eb) {
            Ok(())
        } else {
            Err(format!("max error {err:e} above the bound {:e}", self.eb))
        }
    }
}

impl<T: Scalar> Case for TypedCase<T> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn raw_bytes(&self) -> usize {
        self.field.nbytes()
    }

    fn stored_bytes(&self) -> usize {
        self.archive.as_ref().map_or(0, |a| a.compressed_len())
    }

    fn samples(&self) -> &Samples {
        &self.samples
    }

    fn reset_samples(&mut self) {
        self.samples = Samples::default();
    }

    fn block(
        &mut self,
        tr: &mut Tracer,
        yard: &mut Yardstick,
        rng: &mut Rng,
        tally: &mut Tally,
        warm_up: bool,
    ) {
        // A fresh sample before each of the two long calls and before each
        // group of short ones: the host's speed moves within a second.
        let fresh = !warm_up;
        let compressed = self.op(
            tr,
            yard,
            fresh,
            "compress",
            |c| c.compressor.compress(&c.field),
            |_, _| Ok(()),
            tally,
        );
        if let Some((archive, secs)) = compressed {
            self.samples.compress_ms.push(secs * 1e3);
            self.archive = Some(archive);
        }
        let Some(archive) = self.archive.take() else { return };

        let full = self.op(
            tr,
            yard,
            fresh,
            "decompress",
            |_| archive.decompress(),
            |c, out| c.within_bound(&c.field, out),
            tally,
        );
        if let Some((_, secs)) = full {
            self.samples.decompress_ms.push(secs * 1e3);
        }
        let (previews, cubes, slices) = if warm_up { (1, 1, 1) } else { (PREVIEWS, CUBES, SLICES) };
        for i in 0..previews {
            let preview = self.op(
                tr,
                yard,
                fresh && i == 0,
                "preview",
                |_| archive.decompress_level(2),
                |c, out| c.within_bound(&c.preview_ref, out),
                tally,
            );
            if let Some((_, secs)) = preview {
                self.samples.preview_ms.push(secs * 1e3);
            }
        }
        for i in 0..cubes + slices {
            let is_cube = i < cubes;
            let region = if is_cube {
                self.cube(rng)
            } else {
                let dims = self.field.dims();
                Region::slice_z(dims, rng.below(dims.nz()))
            };
            let roi = self.op(
                tr,
                yard,
                fresh && i == 0,
                if is_cube { "roi_cube" } else { "roi_slice" },
                |_| archive.decompress_region(&region),
                |c, out| c.within_bound(&c.field.extract_region(&region), out),
                tally,
            );
            if let (Some((_, secs)), true) = (roi, is_cube) {
                self.samples.cube_ms.push(secs * 1e3);
            }
        }
        self.archive = Some(archive);
    }
}

/// One field's share of the set-up; adds its seconds, at the reference speed
/// by a yardstick sample taken just before, to `setup_s`.
fn set_up<T: Scalar>(
    name: &'static str,
    field: Field<T>,
    tr: &mut Tracer,
    yard: &mut Yardstick,
    rng: &mut Rng,
    tally: &mut Tally,
    setup_s: &mut f64,
) -> Box<dyn Case> {
    yard.sample();
    let (case, secs) = timed(|| {
        let mut case = TypedCase::new(name, field);
        case.block(tr, yard, rng, tally, true);
        case
    });
    *setup_s += yard.at_reference(secs);
    Box::new(case)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut tally = Tally::default();
    let (fields, generate_s) = timed(generate_fields);
    let mut rng = Rng::new(ctx.seed ^ 0x10CA1);

    // Set-up as a library user pays it: bound, compressor and the first, cold
    // call of every operation on every field. Done once: it is ~3 s of
    // deterministic single-threaded compute, each field's share held against
    // a yardstick sample of its own.
    let CodecFields { nyx, magrec, warpx } = fields;
    let (tr, yard) = (&mut ctx.tracer, &mut ctx.yardstick);
    let mut setup_s = 0.0;
    let mut cases: Vec<Box<dyn Case>> = vec![
        set_up("nyx256", nyx, tr, yard, &mut rng, &mut tally, &mut setup_s),
        set_up("magrec256", magrec, tr, yard, &mut rng, &mut tally, &mut setup_s),
        set_up("warpx512", warpx, tr, yard, &mut rng, &mut tally, &mut setup_s),
    ];

    let (stats, overhead) = windows(ctx, |secs, tr, yard| {
        tr.set_phase(Phase::Window);
        for case in &mut cases {
            case.reset_samples();
        }
        let start = Instant::now();
        'window: loop {
            for i in 0..cases.len() {
                cases[i].block(tr, yard, &mut rng, &mut tally, false);
                let enough = cases.iter().all(|c| c.samples().compress_ms.len() >= MIN_BLOCKS);
                if enough && start.elapsed().as_secs_f64() >= secs {
                    break 'window;
                }
            }
        }
        let ops: u64 = cases.iter().map(|c| c.samples().ops).sum();
        let busy: f64 = cases.iter().map(|c| c.samples().busy_s).sum();
        WindowStats { ops, wall_s: busy }
    });

    let peak_heap_mb = crate::heap::peak_mb();
    let per_field = |f: &dyn Fn(&dyn Case) -> f64| geomean(cases.iter().map(|c| f(c.as_ref())));
    // Raw MB per second, given milliseconds per call.
    let mbps = |c: &dyn Case, ms: f64| c.raw_bytes() as f64 / 1e3 / ms;
    let end_to_end = EndToEnd {
        setup_s,
        write_mbps: per_field(&|c| mbps(c, quantile_of(&c.samples().compress_ms, 0.5))),
        full_p50_ms: per_field(&|c| quantile_of(&c.samples().decompress_ms, 0.5)),
        preview_p50_ms: per_field(&|c| quantile_of(&c.samples().preview_ms, 0.5)),
        roi_p50_ms: per_field(&|c| quantile_of(&c.samples().cube_ms, 0.5)),
        roi_tail_ms: per_field(&|c| quantile_of(&c.samples().cube_ms, TAIL_Q)),
        read_mbps: per_field(&|c| mbps(c, quantile_of(&c.samples().decompress_ms, 0.5))),
        ops_per_s: stats.ops as f64 / stats.wall_s,
        stored_ratio: cases.iter().map(|c| c.stored_bytes()).sum::<usize>() as f64
            / cases.iter().map(|c| c.raw_bytes()).sum::<usize>() as f64,
        peak_heap_mb,
    };
    for case in &cases {
        let s = case.samples();
        let spread = |v: &[f64]| {
            let at = |q| quantile_of(v, q);
            format!("{:.1}/{:.1}/{:.1} ({})", at(0.0), at(0.5), at(1.0), v.len())
        };
        println!(
            "# {:<10} min/median/max ms (samples): compress {}, decompress {}, preview {}, \
             cube ROI {}",
            case.name(),
            spread(&s.compress_ms),
            spread(&s.decompress_ms),
            spread(&s.preview_ms),
            spread(&s.cube_ms),
        );
    }
    drop(cases);

    let mut outcome = Outcome { tally, end_to_end, layers: Default::default() };
    crate::finish_trace(ctx, &mut outcome, generate_s, stats, overhead);
    outcome
}
