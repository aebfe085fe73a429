//! Small tools every workload shares: the seeded generator, order
//! statistics, the payload digest, `/proc` readers and the scratch directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: the one source of randomness, so a seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what any
    /// workload here could see.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Run `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median seconds of `reps` calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&mut secs)
}

/// Median of `values` (sorts them); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    quantile(values, 0.5)
}

/// Nearest-rank quantile of unsorted `values`, which are left as they are.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    quantile(&sorted, q)
}

/// The smallest of `values`; infinite when empty.
pub fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile of an ascending-sorted slice; NaN when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Geometric mean; NaN when empty. Fields of different cost are combined
/// this way because pooling their samples gives a bimodal median that jumps.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

/// 64-bit digest of a payload, used to compare a response with the
/// reference answer. Not a CRC: the byte-at-a-time `crc32` of `stz-stream`
/// would cost a tenth of a hit-path request, this costs well under 1 %.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ (h >> 32)
}

/// The value of a `Vm*` line of `/proc/self/status`, in MB (10^6 bytes).
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Peak resident set of this process so far.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set of this process now.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Reset the peak-RSS mark to the current RSS (`clear_refs` code 5).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Kernel-side CPU seconds and minor page faults of this process so far.
pub struct ProcStat {
    pub stime_s: f64,
    pub minor_faults: f64,
}

pub fn proc_stat() -> ProcStat {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let num = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(f64::NAN);
    // After ')': state is field 0, minflt field 7, stime field 12, in USER_HZ
    // ticks, which Linux fixes at 100 for every architecture it reports to.
    ProcStat { stime_s: num(12) / 100.0, minor_faults: num(7) }
}

/// The benchmark's package directory: `CARGO_MANIFEST_DIR` as `cargo run`
/// sets it, else the one recorded at compile time.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// A run's private directory `work/<workload>-<pid>/`, removed on drop so no
/// run leaves containers behind and no two runs ever share one.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(workload: &str) -> std::io::Result<Scratch> {
        let dir = package_dir().join("work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One line of machine facts, printed with every run.
pub fn machine_facts() -> String {
    let cache = |index: &str| {
        std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/{index}/size"))
            .map_or_else(|_| "?".to_string(), |s| s.trim().to_string())
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={cores} L2={} L3={} (shared with the host) stz-simd lane={} {}",
        cache("index2"),
        cache("index3"),
        stz::simd::announce(),
        env!("BENCH_RUSTC_VERSION"),
    )
}
