//! Pipelined container packing: compress on the pool, write in order.
//!
//! [`ContainerWriter::add_archive`](crate::ContainerWriter::add_archive) is
//! strictly sequential — sections must land in the file in order. But the
//! *production* of archives (reading a time step, compressing it) is
//! embarrassingly parallel across entries. [`pack_pipelined`] overlaps the
//! two on [`stz_core::pool::pipeline`]: the pool's threads run the
//! compression jobs while the calling thread, one of them, appends each
//! finished archive as soon as it — and all of its predecessors — are done,
//! preserving the exact entry order (and therefore the exact container
//! bytes) of a sequential pack.
//!
//! Memory stays bounded by the pool's window: no job `i` starts before
//! `i < written + 2 × threads`, so at most `2 × threads` started-but-unwritten
//! entries (in flight or buffered) exist at any moment — independent of how
//! many entries the container will hold.

use crate::writer::{ContainerWriter, PackEntry};
use std::io::Write;
use stz_codec::Result;
use stz_core::pool;

/// Outcome of one compression job: a named [`PackEntry`] — an `f32` or `f64`
/// STZ archive or a foreign codec's bytes, mixed freely within one run (each
/// converts via `.into()`).
/// A job's [`CodecError`](stz_codec::CodecError) keeps its class, so an I/O
/// problem (an unreadable input, say) surfaces as `CodecError::Io`, not
/// payload corruption; `std::io::Error` converts via `?`.
type JobResult = Result<(String, PackEntry)>;

/// Pack `jobs` into a container on `out`, compressing on `threads` pool
/// threads while the calling thread appends finished entries **in job
/// order** — the resulting bytes are identical to running every job
/// sequentially through [`ContainerWriter`].
///
/// `run` maps one job to a named archive; it runs on a pool thread (`Sync`,
/// called once per job) at a width of `threads`, where a nested pool run —
/// [`StzCompressor::compress_parallel`](stz_core::StzCompressor::compress_parallel),
/// say — runs inline: entries already occupy every thread. A single job
/// runs on the calling thread, so its nested runs get the whole width. A
/// failed job or write stops the pipeline and returns its error; a panicking
/// job is raised again on the calling thread after every thread has stopped.
///
/// With `threads <= 1` (or fewer than two jobs) no threads are spawned and
/// jobs run inline, preserving the bounded-memory compress → add → drop
/// loop of a sequential pack.
pub fn pack_pipelined<W, J, F>(out: W, jobs: Vec<J>, threads: usize, run: F) -> Result<W>
where
    W: Write,
    J: Send,
    F: Fn(J) -> JobResult + Sync,
{
    let mut writer = ContainerWriter::new(out)?;
    pool::with_threads(threads.max(1), || {
        pool::pipeline(jobs, run, |job| {
            let (name, entry) = job?;
            writer.add_entry(&name, &entry)
        })
    })?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_to_vec;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;
    use stz_codec::CodecError;
    use stz_core::{StzArchive, StzCompressor, StzConfig};
    use stz_field::{Dims, Field};
    use stz_telemetry::trace;

    fn field(seed: f32) -> Field<f32> {
        Field::from_fn(Dims::d3(16, 16, 16), |z, y, x| {
            ((z as f32) * 0.2 + seed).sin() + ((y as f32) * 0.1).cos() + x as f32 * 0.01
        })
    }

    fn compress(seed: f32) -> StzArchive<f32> {
        StzCompressor::new(StzConfig::three_level(1e-3)).compress(&field(seed)).unwrap()
    }

    fn pipelined_image(threads: usize, n: usize) -> Vec<u8> {
        pack_pipelined(Vec::new(), (0..n).collect::<Vec<usize>>(), threads, |i| {
            Ok((format!("t{i}"), compress(i as f32).into()))
        })
        .unwrap()
    }

    #[test]
    fn pipelined_bytes_match_sequential_pack() {
        let archives: Vec<StzArchive<f32>> = (0..6).map(|i| compress(i as f32)).collect();
        let named: Vec<(String, &StzArchive<f32>)> =
            archives.iter().enumerate().map(|(i, a)| (format!("t{i}"), a)).collect();
        let refs: Vec<(&str, &StzArchive<f32>)> =
            named.iter().map(|(n, a)| (n.as_str(), *a)).collect();
        let sequential = pack_to_vec(&refs).unwrap();
        for threads in [1, 2, 4, 8] {
            assert_eq!(pipelined_image(threads, 6), sequential, "threads {threads}");
        }
    }

    #[test]
    fn failed_job_aborts_with_its_error() {
        let err = pack_pipelined(Vec::new(), (0..8).collect::<Vec<usize>>(), 4, |i| {
            if i == 3 {
                Err(std::io::Error::other("job 3 exploded").into())
            } else {
                Ok((format!("t{i}"), compress(i as f32).into()))
            }
        })
        .unwrap_err();
        // The job's own error kind must survive — an I/O failure must not
        // be re-labelled as payload corruption.
        assert!(matches!(err, CodecError::Io { .. }), "got: {err}");
        assert!(err.to_string().contains("job 3 exploded"), "got: {err}");
    }

    #[test]
    fn panicking_job_propagates_with_payload() {
        let result = std::panic::catch_unwind(|| {
            pack_pipelined(Vec::new(), (0..8).collect::<Vec<usize>>(), 4, |i| {
                if i == 5 {
                    panic!("pack worker boom");
                }
                Ok((format!("t{i}"), compress(i as f32).into()))
            })
        });
        let payload = result.expect_err("worker panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "pack worker boom");
    }

    #[test]
    fn single_job_and_single_thread_run_inline() {
        assert_eq!(pipelined_image(8, 1), pipelined_image(1, 1));
        assert_eq!(pipelined_image(1, 3), pipelined_image(4, 3));
    }

    /// A sink that counts what it takes, lags on every write so the writer
    /// trails the jobs, and fails a write that would pass `limit` bytes.
    #[derive(Debug)]
    struct Lagging<'a> {
        written: &'a AtomicUsize,
        limit: usize,
    }

    impl Write for Lagging<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::thread::sleep(Duration::from_micros(500));
            if self.written.load(SeqCst) + buf.len() > self.limit {
                return Err(std::io::Error::other("the sink is full"));
            }
            self.written.fetch_add(buf.len(), SeqCst);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Entries a sink holds, where each is `entry` bytes written in one piece.
    fn entries_in(written: &AtomicUsize, entry: usize) -> usize {
        written.load(SeqCst).saturating_sub(crate::format::HEADER_LEN as usize) / entry
    }

    #[test]
    fn at_most_two_entries_per_thread_are_started_and_not_written() {
        let archive = compress(0.0);
        let entry = archive.as_bytes().len();
        for threads in [2, 4, 8] {
            let window = 2 * threads;
            let (written, started, most) =
                (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
            let sink = Lagging { written: &written, limit: usize::MAX };
            let jobs: Vec<usize> = (0..3 * window + 1).collect();
            pack_pipelined(sink, jobs, threads, |i| {
                let started = started.fetch_add(1, SeqCst) + 1;
                most.fetch_max(started.saturating_sub(entries_in(&written, entry)), SeqCst);
                Ok((format!("t{i}"), archive.clone().into()))
            })
            .unwrap();
            let most = most.load(SeqCst);
            assert!(most <= window, "{most} entries started and not written on {threads} threads");
        }
    }

    #[test]
    fn a_failed_write_stops_every_thread_with_its_io_error() {
        for threads in [2, 8] {
            // A hang here is a failure: the pack runs on a thread of its own.
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let archive = compress(0.0);
                let (entry, header) = (archive.as_bytes().len(), crate::format::HEADER_LEN);
                let (written, running, started) =
                    (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
                // Three entries fit; the fourth's write fails.
                let sink = Lagging { written: &written, limit: header as usize + 3 * entry };
                let err = pack_pipelined(sink, (0..64).collect(), threads, |i: usize| {
                    running.fetch_add(1, SeqCst);
                    started.fetch_add(1, SeqCst);
                    let job = Ok((format!("t{i}"), archive.clone().into()));
                    running.fetch_sub(1, SeqCst);
                    job
                })
                .unwrap_err();
                let _ = tx.send((err, running.load(SeqCst), started.load(SeqCst)));
            });
            let (err, running, started) = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("a failed write on {threads} threads: {e}"));
            assert!(matches!(err, CodecError::Io { .. }), "got: {err}");
            assert!(err.to_string().contains("the sink is full"), "got: {err}");
            assert_eq!(running, 0, "a job ran on after the pack returned");
            let window = 2 * threads;
            assert!(started <= 3 + window, "{started} jobs started after entry 3 failed");
        }
    }

    #[test]
    fn a_job_runs_at_the_runs_width_with_nested_runs_inline_in_the_callers_trace() {
        let collector = Box::leak(Box::new(trace::TraceCollector::new(true)));
        let seen = Mutex::new(Vec::new());
        let (trace_id, caller) = {
            let root = collector.start("test", "request", None);
            let span = trace::span("pack");
            let caller = trace::current_context().unwrap().span_id();
            let image = pool::with_threads(4, || {
                pack_pipelined(Vec::new(), (0..4).collect(), 2, |i: usize| {
                    let _job = trace::span("job");
                    let here = std::thread::current().id();
                    let nested =
                        pool::map((0..8).collect(), |_: usize| std::thread::current().id());
                    let inline = nested.iter().all(|&id| id == here);
                    seen.lock().unwrap().push((pool::threads(), inline));
                    Ok((format!("t{i}"), compress(i as f32).into()))
                })
            });
            assert_eq!(image.unwrap(), pipelined_image(1, 4));
            drop(span);
            (root.trace_id().unwrap(), caller)
        };
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, [(2, true); 4], "each job's (width, whether its nested map ran inline)");
        let t = collector.snapshot().into_iter().find(|t| t.trace_id == trace_id).unwrap();
        let named = |name: &'static str| t.spans.iter().filter(move |s| s.name == name);
        assert_eq!(named("job").filter(|s| s.parent == caller).count(), 4, "a job left the trace");
        let waits = named("queue_wait").filter(|s| s.parent == caller).count();
        assert_eq!(waits, 1, "one queue_wait per spawned worker");
    }
}
