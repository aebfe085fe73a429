//! Runtime-dispatched SIMD kernels for the STZ hot loops.
//!
//! The three inner loops that dominate STZ's compress/decompress time —
//! interpolation prediction, linear quantization, and the stride-2
//! sub-lattice gather/scatter — are ported here as batch kernels with one
//! implementation per instruction set:
//!
//! * **x86_64** — SSE2 (the architectural baseline, always available) and
//!   AVX2 (detected at runtime with `is_x86_feature_detected!`),
//! * **aarch64** — NEON (the architectural baseline),
//! * **scalar** — a portable reference implementation that defines the
//!   exact semantics every vector lane must reproduce.
//!
//! ## The byte-identity contract
//!
//! Every lane produces **bit-identical** results to the scalar reference:
//! the same compressed streams and the same decoded fields, byte for byte
//! (ARCHITECTURE.md invariant 8). The kernels vectorize *across*
//! independent output points and keep the scalar operation order *inside*
//! each lane — no FMA contraction, no reassociation, no horizontal
//! reductions. IEEE 754 then guarantees identical results, because packed
//! add/sub/mul/div/compare/convert round exactly like their scalar
//! counterparts. Where an instruction set lacks an exact primitive (SSE2
//! has no round-to-nearest-away-from-zero and no packed truncate), the
//! kernel falls back to scalar code for that portion rather than
//! approximate.
//!
//! ## Dispatch
//!
//! [`active_lane`] picks the widest available lane once per process,
//! overridable with the `STZ_SIMD` environment variable
//! (`auto`/`scalar`/`sse2`/`avx2`/`neon`). Requesting a lane the host
//! cannot run (or an unknown name) logs a warning and falls back to
//! scalar, so a typo can never produce illegal instructions — or wrong
//! bytes. The selected lane is recorded in the
//! `stz_simd_dispatch{lane="…"}` gauge of the global telemetry registry.
//! Tests iterate [`available_lanes`] and pin a specific lane with
//! [`override_lane`].
//!
//! See `docs/SIMD.md` for the full dispatch rules and a checklist for
//! adding a lane.

#![warn(missing_docs)]

mod kernels;
#[cfg(target_arch = "aarch64")]
mod neon;
pub mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use kernels::{
    crc32_update, gather2_f32, gather2_f64, narrow_run, predict_quantize_dense,
    predict_recon_dense, predict_recon_run_f32, predict_recon_run_f64, quantize_run_f32,
    quantize_run_f64, scatter2_f32, scatter2_f64, widen_run, Bound, GridElem, Stencil,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// One SIMD instruction-set lane the kernels can dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Portable scalar reference (defines the semantics).
    Scalar,
    /// x86_64 SSE2: 2×f64 / 4×f32 (baseline, always available on x86_64).
    Sse2,
    /// x86_64 AVX2: 4×f64 / 8×f32 (runtime-detected).
    Avx2,
    /// aarch64 NEON: 2×f64 / 4×f32 (baseline on aarch64).
    Neon,
}

impl Lane {
    /// Stable lower-case name, matching the `STZ_SIMD` values.
    pub const fn name(self) -> &'static str {
        match self {
            Lane::Scalar => "scalar",
            Lane::Sse2 => "sse2",
            Lane::Avx2 => "avx2",
            Lane::Neon => "neon",
        }
    }

    fn from_u8(v: u8) -> Lane {
        match v {
            1 => Lane::Sse2,
            2 => Lane::Avx2,
            3 => Lane::Neon,
            _ => Lane::Scalar,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Lane::Scalar => 0,
            Lane::Sse2 => 1,
            Lane::Avx2 => 2,
            Lane::Neon => 3,
        }
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lanes the current host can execute, always starting with
/// [`Lane::Scalar`] and ending with the lane `auto` would pick.
pub fn available_lanes() -> Vec<Lane> {
    let mut lanes = vec![Lane::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        lanes.push(Lane::Sse2);
        if std::arch::is_x86_feature_detected!("avx2") {
            lanes.push(Lane::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        lanes.push(Lane::Neon);
    }
    lanes
}

fn is_available(lane: Lane) -> bool {
    available_lanes().contains(&lane)
}

/// `STZ_SIMD=none` (0) or a forced lane (`lane.to_u8() + 1`).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);
static ACTIVE: OnceLock<Lane> = OnceLock::new();

/// The lane every kernel dispatches to in this process.
///
/// Resolved once from `STZ_SIMD` + CPU detection and cached; a test-time
/// [`override_lane`] takes precedence. Because every lane is
/// byte-identical, flipping the override mid-stream cannot change any
/// result — only which instructions compute it.
pub fn active_lane() -> Lane {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => *ACTIVE.get_or_init(resolve),
        v => Lane::from_u8(v - 1),
    }
}

/// Force the dispatched lane (`Some`) or restore `STZ_SIMD`/auto
/// resolution (`None`). Returns the previous override.
///
/// Testing hook for the lane-width identity suites; process-global, so
/// concurrent tests under different overrides are safe only because all
/// lanes produce identical bytes.
///
/// # Panics
/// If the requested lane is not executable on this host.
pub fn override_lane(lane: Option<Lane>) -> Option<Lane> {
    if let Some(l) = lane {
        assert!(is_available(l), "lane {l} is not available on this host");
    }
    let prev = OVERRIDE.swap(lane.map_or(0, |l| l.to_u8() + 1), Ordering::Relaxed);
    match prev {
        0 => None,
        v => Some(Lane::from_u8(v - 1)),
    }
}

/// Force lane resolution now (normally it happens lazily on the first
/// kernel call), so the `stz_simd_dispatch` gauge is registered even in
/// processes that never touch a hot loop. Returns the resolved lane.
pub fn announce() -> Lane {
    let _ = *ACTIVE.get_or_init(resolve);
    active_lane()
}

fn resolve() -> Lane {
    let lane = match std::env::var("STZ_SIMD") {
        Err(_) => best_available(),
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => best_available(),
            "scalar" => Lane::Scalar,
            "sse2" => requested(Lane::Sse2),
            "avx2" => requested(Lane::Avx2),
            "neon" => requested(Lane::Neon),
            other => {
                stz_telemetry::log_warn!(
                    "stz_simd",
                    "unknown STZ_SIMD value {other:?}, falling back to scalar"
                );
                Lane::Scalar
            }
        },
    };
    stz_telemetry::global().gauge("stz_simd_dispatch", &[("lane", lane.name())]).set(1);
    lane
}

fn requested(lane: Lane) -> Lane {
    if is_available(lane) {
        lane
    } else {
        stz_telemetry::log_warn!(
            "stz_simd",
            "STZ_SIMD={} is not available on this host, falling back to scalar",
            lane.name()
        );
        Lane::Scalar
    }
}

fn best_available() -> Lane {
    *available_lanes().last().expect("scalar is always available")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        let lanes = available_lanes();
        assert_eq!(lanes[0], Lane::Scalar);
        assert!(is_available(active_lane()));
    }

    #[test]
    fn override_roundtrip() {
        let prev = override_lane(Some(Lane::Scalar));
        assert_eq!(active_lane(), Lane::Scalar);
        override_lane(prev);
    }

    #[test]
    fn names_are_stable() {
        for lane in [Lane::Scalar, Lane::Sse2, Lane::Avx2, Lane::Neon] {
            assert_eq!(format!("{lane}"), lane.name());
        }
    }

    #[test]
    fn dispatch_gauge_registered() {
        // announce() resolves the STZ_SIMD/auto lane (ignoring any test
        // override) and registers the dispatch gauge as a side effect.
        announce();
        let text = stz_telemetry::global().render();
        assert!(
            text.contains("stz_simd_dispatch{lane=\""),
            "gauge missing from exposition:\n{text}"
        );
    }
}
