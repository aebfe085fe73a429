//! Property tests of the backend contract: for **every** registered codec,
//! `max |x - x'| <= eps` — on random fields of random shapes in both
//! element types, on all-constant fields, and on NaN-free adversarial
//! slabs (white noise, isolated spikes, sign-alternating checkerboards)
//! where prediction-based engines get no help from smoothness.

use stz::backend::{registry, BackendScalar, Codec, ErrorBound};
use stz::data::metrics;
use stz::prelude::*;
use stz_fuzz::rng::{property, FuzzRng};

/// Cases per property (kept few: each case runs five full compressions).
const CASES: usize = 12;

/// Small random dims, 1..=10 per axis.
fn dims(rng: &mut FuzzRng) -> Dims {
    let mut axis = || rng.range(1, 10) as usize;
    Dims::d3(axis(), axis(), axis())
}

/// Dims, a field seed and a bound's exponent in -4..-1.
fn field_case(rng: &mut FuzzRng) -> (Dims, u64, i32) {
    (dims(rng), rng.next_u64(), rng.range(-4, -2) as i32)
}

/// Uniform pseudo-random value in `[-1, 1)` from a hash of the coordinates.
fn noise(seed: u64, z: usize, y: usize, x: usize) -> f64 {
    let h = stz::data::synth::noise::hash64(
        seed ^ ((z as u64) << 40) ^ ((y as u64) << 20) ^ (x as u64),
    );
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Compress/decompress through the registry and assert the bound.
fn assert_bound<T: BackendScalar>(codec: &dyn Codec, field: &Field<T>, eb: f64, what: &str) {
    let bytes = stz::backend::compress(codec, field, &ErrorBound::Absolute(eb))
        .unwrap_or_else(|e| panic!("{}/{what}: compress failed: {e}", codec.name()));
    let recon: Field<T> = stz::backend::decompress(codec, &bytes)
        .unwrap_or_else(|e| panic!("{}/{what}: decompress failed: {e}", codec.name()));
    let err = metrics::max_abs_error(field, &recon);
    assert!(
        err <= eb * (1.0 + 1e-6),
        "{}/{what}: err {err} > eb {eb} on {:?}",
        codec.name(),
        field.dims()
    );
}

#[test]
fn every_backend_error_bounded_f32() {
    property("every_backend_error_bounded_f32", CASES, field_case, |&(dims, seed, eb_exp)| {
        let eb = 10f64.powi(eb_exp);
        let f = Field::from_fn(dims, |z, y, x| {
            noise(seed, z, y, x) as f32 + ((z + y + x) as f32 * 0.1).sin()
        });
        for codec in registry().all() {
            assert_bound(codec, &f, eb, "random-f32");
        }
    });
}

#[test]
fn every_backend_error_bounded_f64() {
    property("every_backend_error_bounded_f64", CASES, field_case, |&(dims, seed, eb_exp)| {
        let eb = 10f64.powi(eb_exp);
        // Large offset + small signal: stresses absolute-bound handling in
        // double precision (the WarpX regime, where fields sit at ~1e7).
        let f = Field::from_fn(dims, |z, y, x| {
            1.0e6 * eb + noise(seed, z, y, x) + (x as f64 * 0.2).cos()
        });
        for codec in registry().all() {
            assert_bound(codec, &f, eb, "random-f64");
        }
    });
}

#[test]
fn every_backend_handles_constant_fields() {
    // A constant in -100..100 and a bound's exponent in -6..-1.
    let draw =
        |rng: &mut FuzzRng| (dims(rng), rng.uniform(-100.0, 100.0), rng.range(-6, -2) as i32);
    property("every_backend_handles_constant_fields", CASES, draw, |&(dims, value, eb_exp)| {
        let eb = 10f64.powi(eb_exp);
        let f32_field = Field::from_fn(dims, |_, _, _| value as f32);
        let f64_field = Field::from_fn(dims, |_, _, _| value);
        for codec in registry().all() {
            assert_bound(codec, &f32_field, eb, "constant-f32");
            assert_bound(codec, &f64_field, eb, "constant-f64");
        }
    });
}

/// Adversarial NaN-free slabs: structures chosen to defeat each engine's
/// prediction model rather than to resemble simulation output.
fn adversarial_slabs(seed: u64) -> Vec<(&'static str, Field<f32>)> {
    let dims = Dims::d3(9, 11, 13);
    vec![
        // Dense white noise — no spatial correlation at all.
        ("white-noise", Field::from_fn(dims, |z, y, x| noise(seed, z, y, x) as f32 * 50.0)),
        // Mostly-zero field with isolated large spikes (escape-path stress).
        (
            "spikes",
            Field::from_fn(
                dims,
                |z, y, x| {
                    if noise(seed ^ 1, z, y, x) > 0.95 {
                        1.0e4
                    } else {
                        0.0
                    }
                },
            ),
        ),
        // Sign-alternating checkerboard at the Nyquist frequency.
        (
            "checkerboard",
            Field::from_fn(dims, |z, y, x| if (z + y + x) % 2 == 0 { 1.0 } else { -1.0 }),
        ),
        // A step discontinuity (interpolators overshoot at edges).
        ("step", Field::from_fn(dims, |_, _, x| if x < 6 { -25.0 } else { 25.0 })),
        // Extreme-magnitude but finite values (exponent-handling stress).
        (
            "large-magnitude",
            Field::from_fn(dims, |z, y, x| (noise(seed ^ 2, z, y, x) as f32) * 1.0e30),
        ),
    ]
}

#[test]
fn every_backend_error_bounded_on_adversarial_slabs() {
    for (what, f) in adversarial_slabs(2025) {
        let (lo, hi) = f.value_range();
        let range = hi - lo;
        // A relative bound keeps eps meaningful across the wildly different
        // amplitudes of the slabs.
        let eb = if range > 0.0 { 1e-3 * range } else { 1e-3 };
        for codec in registry().all() {
            assert_bound(codec, &f, eb, what);
        }
    }
}

#[test]
fn every_backend_error_bounded_on_adversarial_f64_slabs() {
    let dims = Dims::d3(7, 9, 11);
    let slabs: Vec<(&str, Field<f64>)> = vec![
        ("white-noise-f64", Field::from_fn(dims, |z, y, x| noise(7, z, y, x) * 1.0e8)),
        (
            "checkerboard-f64",
            Field::from_fn(dims, |z, y, x| if (z + y + x) % 2 == 0 { 1.0e-6 } else { -1.0e-6 }),
        ),
    ];
    for (what, f) in slabs {
        let (lo, hi) = f.value_range();
        let eb = 1e-3 * (hi - lo).max(1e-12);
        for codec in registry().all() {
            assert_bound(codec, &f, eb, what);
        }
    }
}
