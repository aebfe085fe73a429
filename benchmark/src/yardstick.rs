//! The yardstick: a fixed piece of work in the benchmark's own code, timed
//! beside the workload so that every timing can be stated at one reference
//! host speed.
//!
//! The sandbox is a few cores of a shared host, and the same binary on the
//! same inputs runs up to 20 % faster or slower for minutes at a time; every
//! operation of every workload moves together. Ten runs spread over such a
//! drift differ by more than any bound worth gating on. So each run times the
//! yardstick at quiet points all through set-up and window (the workload
//! waits while a sample is taken), and every duration it measures is divided
//! by the newest sample's slowdown against [`REFERENCE_MS`]; rates are
//! computed from those durations. Over ten runs in a restless hour that
//! halves the quartile spread of the timings (README.md has the numbers).
//!
//! A sample has three parts, one per resource the crates' hot paths lean on
//! and the host shares out unevenly: a dependent integer chain in registers
//! (the core), a predict-and-quantise pass streaming 16 MB (memory
//! bandwidth), and mapping, faulting in and unmapping 16 MiB (the kernel's
//! memory path, where the decoder's large grids live). Its slowdown is the
//! geometric mean of the three parts' slowdowns, so no part outweighs the
//! others. It runs on a thread of its own that never executes the crates'
//! code: a thread that has decoded once runs scalar floating-point code
//! several times slower (see README.md).

use crate::util::{geomean, median, timed};
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// What the three parts take on the sandbox this was written on, on a
/// middling day. Only a scale: it makes reference-speed values read like the
/// clock's.
pub const REFERENCE_MS: [f64; 3] = [3.4, 7.5, 7.4];

const CHAIN_STEPS: u64 = 1_500_000;
const STREAM_POINTS: usize = 2_000_000;
/// Above glibc's largest mmap threshold (32 MiB), so each sample maps anew.
const MAPPED_BYTES: usize = 34 << 20;
const TOUCHED_BYTES: usize = 16 << 20;

#[inline(never)]
fn chain(steps: u64) -> u64 {
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for i in 0..steps {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i);
        acc ^= x;
    }
    acc
}

#[inline(never)]
fn stream(src: &[f32], dst: &mut [i32]) -> i64 {
    let mut acc = 0i64;
    for i in 1..src.len() {
        let predicted = 0.5 * (src[i - 1] + src[i]);
        let code = ((src[i] - predicted) * 1000.0).round() as i32;
        dst[i] = code;
        acc += code as i64;
    }
    acc
}

#[inline(never)]
fn map_and_touch() -> u8 {
    let mut pages = vec![0u8; MAPPED_BYTES];
    for at in (0..TOUCHED_BYTES).step_by(4096) {
        pages[at] = 1;
    }
    pages[TOUCHED_BYTES / 2]
}

pub struct Yardstick {
    ask: Option<Sender<()>>,
    answer: Receiver<[f64; 3]>,
    thread: Option<JoinHandle<()>>,
    /// Slowdown against the reference of every sample taken, newest last.
    slowdowns: Vec<f64>,
}

impl Yardstick {
    pub fn start() -> Yardstick {
        let (ask, asked) = channel::<()>();
        let (reply, answer) = channel::<[f64; 3]>();
        let thread = std::thread::Builder::new()
            .name("yardstick".into())
            .spawn(move || {
                let src: Vec<f32> =
                    (0..STREAM_POINTS).map(|i| ((i % 4093) as f32 * 0.37).fract()).collect();
                let mut dst = vec![0i32; STREAM_POINTS];
                while asked.recv().is_ok() {
                    let parts = [
                        timed(|| black_box(chain(black_box(CHAIN_STEPS)))).1,
                        timed(|| black_box(stream(&src, &mut dst))).1,
                        timed(|| black_box(map_and_touch())).1,
                    ];
                    if reply.send(parts.map(|secs| secs * 1e3)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn the yardstick thread");
        let mut yardstick =
            Yardstick { ask: Some(ask), answer, thread: Some(thread), slowdowns: Vec::new() };
        // The first sample pays for the thread's buffers; the second counts.
        yardstick.sample();
        yardstick.slowdowns.clear();
        yardstick.sample();
        yardstick
    }

    /// Take one sample (~20 ms) and return its slowdown; the caller waits, so
    /// nothing else is busy. Timings are held against the newest sample, so
    /// take one just before what is to be timed, and again every second or so.
    pub fn sample(&mut self) -> f64 {
        let ask = self.ask.as_ref().expect("yardstick is running");
        ask.send(()).expect("yardstick thread is alive");
        let parts = self.answer.recv().expect("yardstick thread answers");
        let slowdowns = parts.iter().zip(REFERENCE_MS).map(|(ms, reference)| ms / reference);
        self.slowdowns.push(geomean(slowdowns));
        self.latest()
    }

    /// How much slower than the reference the host ran in the newest sample.
    fn latest(&self) -> f64 {
        *self.slowdowns.last().expect("start() takes a sample")
    }

    /// `secs` read off the clock just now, at the reference host speed.
    pub fn at_reference(&self, secs: f64) -> f64 {
        secs / self.latest()
    }

    /// One line for the log: how many samples, and how the host ran.
    pub fn summary(&self) -> String {
        let mut sorted = self.slowdowns.clone();
        let mid = median(&mut sorted);
        format!(
            "yardstick: {} samples, host slowdown against the reference min {:.3} median {mid:.3} \
             max {:.3}; times are divided and rates multiplied by it, sample by sample",
            sorted.len(),
            sorted[0],
            sorted[sorted.len() - 1],
        )
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        self.ask = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
