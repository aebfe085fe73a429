//! Pipelined container packing: compress on workers, write in order.
//!
//! [`ContainerWriter::add_archive`](crate::ContainerWriter::add_archive) is
//! strictly sequential — sections must land in the file in order. But the
//! *production* of archives (reading a time step, compressing it) is
//! embarrassingly parallel across entries. [`pack_pipelined`] overlaps the
//! two: worker threads run the compression jobs while the calling thread
//! appends each finished archive as soon as it — and all of its
//! predecessors — are done, preserving the exact entry order (and therefore
//! the exact container bytes) of a sequential pack.
//!
//! Memory stays bounded by a sliding window: a worker may not *start* job
//! `i` until `i` is within `window` entries of the write cursor, so at most
//! `window` started-but-unwritten entries (in flight or buffered) exist at
//! any moment — independent of how many entries the container will hold.

use crate::writer::{ContainerWriter, PackEntry};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use stz_codec::{CodecError, Result};
use stz_field::Scalar;

/// Outcome of one compression job, keyed by its entry index: a named
/// [`PackEntry`] — a native STZ archive or a foreign codec's bytes
/// (`StzArchive` converts via `.into()`). A job's [`CodecError`] keeps its
/// class, so an I/O problem (an unreadable input, say) surfaces as
/// [`CodecError::Io`], not payload corruption; `std::io::Error` converts
/// via `?`.
type JobResult<T> = Result<(String, PackEntry<T>)>;

/// Shared pipeline state: finished jobs waiting for the writer, the write
/// cursor governing the window, and abort/panic bookkeeping.
struct State<T: Scalar> {
    /// Finished jobs not yet written, keyed by entry index.
    done: BTreeMap<usize, JobResult<T>>,
    /// Next entry index the writer will append.
    cursor: usize,
    /// Set when the writer hit an error or a worker panicked; workers stop
    /// picking up new jobs.
    abort: bool,
    /// First worker panic payload, re-raised on the calling thread.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared<T: Scalar> {
    state: Mutex<State<T>>,
    changed: Condvar,
}

impl<T: Scalar> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Pack `jobs` into a container on `out`, compressing on `threads` worker
/// threads while the calling thread appends finished entries **in job
/// order** — the resulting bytes are identical to running every job
/// sequentially through [`ContainerWriter`].
///
/// `run` maps one job to a named archive; it executes on a worker thread
/// (`Sync`, called once per job). Jobs run with entry-level parallelism
/// only — `run` should use the plain serial
/// [`StzCompressor::compress`](stz_core::StzCompressor::compress), since
/// entries already saturate the workers. A failed job aborts the pipeline
/// and returns its error; a panicking job is re-raised on the calling
/// thread after all workers have stopped.
///
/// With `threads <= 1` (or fewer than two jobs) no threads are spawned and
/// jobs run inline, preserving the bounded-memory compress → add → drop
/// loop of a sequential pack.
pub fn pack_pipelined<T, W, J, F>(out: W, jobs: Vec<J>, threads: usize, run: F) -> Result<W>
where
    T: Scalar,
    W: Write,
    J: Send,
    F: Fn(J) -> JobResult<T> + Sync,
{
    let mut writer = ContainerWriter::new(out)?;
    run_pipelined(jobs, threads, run, |name, entry| writer.add_entry(&name, &entry))?;
    writer.finish()
}

/// The pipeline engine behind [`pack_pipelined`], decoupled from the
/// container writer: compress `jobs` on `threads` workers, hand each
/// finished entry to `emit` **in job order** on the calling thread. The
/// mutable-archive append path reuses this to stage parallel ingestion
/// into an existing container, with the same window backpressure and the
/// same ordering guarantee (`emit` sees the exact sequence a serial run
/// would produce).
pub fn run_pipelined<T, J, F, E>(jobs: Vec<J>, threads: usize, run: F, mut emit: E) -> Result<()>
where
    T: Scalar,
    J: Send,
    F: Fn(J) -> JobResult<T> + Sync,
    E: FnMut(String, PackEntry<T>) -> Result<()>,
{
    let total = jobs.len();
    if threads <= 1 || total < 2 {
        for job in jobs {
            let (name, entry) = run(job)?;
            emit(name, entry)?;
        }
        return Ok(());
    }

    let workers = threads.min(total);
    // Started-but-unwritten entries allowed before workers stall (the
    // backpressure condition below is `i < cursor + window`). Two per
    // worker keeps everyone busy across entry-size imbalance while
    // bounding live archives — in flight or awaiting the writer — at
    // `window`.
    let window = workers * 2;

    let jobs: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next_job = std::sync::atomic::AtomicUsize::new(0);
    let shared: Shared<T> = Shared {
        state: Mutex::new(State { done: BTreeMap::new(), cursor: 0, abort: false, panic: None }),
        changed: Condvar::new(),
    };

    let mut write_error: Option<CodecError> = None;

    std::thread::scope(|scope| {
        for w in 0..workers {
            let jobs = &jobs;
            let next_job = &next_job;
            let shared = &shared;
            let run = &run;
            std::thread::Builder::new()
                .name(format!("stz-pack-{w}"))
                .spawn_scoped(scope, move || loop {
                    let i = next_job.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= total {
                        return;
                    }
                    // Window backpressure: wait until entry i is within
                    // `window` of the write cursor.
                    {
                        let mut st = shared.lock();
                        while !st.abort && i >= st.cursor + window {
                            st = shared
                                .changed
                                .wait(st)
                                .unwrap_or_else(|poisoned| poisoned.into_inner());
                        }
                        if st.abort {
                            return;
                        }
                    }
                    let job = jobs[i]
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .take()
                        .expect("each job index is claimed exactly once");
                    match catch_unwind(AssertUnwindSafe(|| run(job))) {
                        Ok(result) => {
                            let mut st = shared.lock();
                            st.done.insert(i, result);
                            shared.changed.notify_all();
                        }
                        Err(payload) => {
                            let mut st = shared.lock();
                            if st.panic.is_none() {
                                st.panic = Some(payload);
                            }
                            st.abort = true;
                            shared.changed.notify_all();
                            return;
                        }
                    }
                })
                .expect("spawning a pack worker cannot fail");
        }

        // The calling thread is the writer: consume entries in order.
        for i in 0..total {
            let result = {
                let mut st = shared.lock();
                loop {
                    if st.abort {
                        break None;
                    }
                    if let Some(r) = st.done.remove(&i) {
                        break Some(r);
                    }
                    st = shared.changed.wait(st).unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            let outcome = match result {
                None => break, // aborted by a worker panic
                Some(Ok((name, entry))) => emit(name, entry),
                Some(Err(e)) => Err(e),
            };
            match outcome {
                Ok(()) => {
                    let mut st = shared.lock();
                    st.cursor = i + 1;
                    shared.changed.notify_all();
                }
                Err(e) => {
                    write_error = Some(e);
                    let mut st = shared.lock();
                    st.abort = true;
                    shared.changed.notify_all();
                    break;
                }
            }
        }
        // Unblock any worker still waiting on the window.
        let mut st = shared.lock();
        st.abort = st.abort || st.cursor < total;
        shared.changed.notify_all();
    });

    if let Some(payload) = shared.lock().panic.take() {
        resume_unwind(payload);
    }
    if let Some(e) = write_error {
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_to_vec;
    use stz_core::{StzArchive, StzCompressor, StzConfig};
    use stz_field::{Dims, Field};

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
        let err =
            pack_pipelined::<f32, _, _, _>(Vec::new(), (0..8).collect::<Vec<usize>>(), 4, |i| {
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
            pack_pipelined::<f32, _, _, _>(Vec::new(), (0..8).collect::<Vec<usize>>(), 4, |i| {
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
}
