//! The one thread pool: a level's units in either codec direction, and a
//! container's entries in a pipelined pack or append.
//!
//! [`map`] runs a function over a list of items on scoped threads, the
//! calling thread being the last worker, and returns the results in item
//! order; [`pipeline`] hands each result to a consumer on the calling thread
//! instead, in item order, as soon as it and every earlier one are done, and
//! keeps no more than two items per thread started and not yet handed on.
//! Both are one loop: workers claim item indices in list order, so what a
//! run returns does not depend on the width or timing. A run started from
//! inside a worker runs inline, in order: the outer one already uses every
//! thread.
//!
//! The width is [`threads`]: the innermost [`with_threads`] scope, else
//! `STZ_THREADS` if it is a positive integer, else the machine's available
//! parallelism. Workers run at their run's width and under its caller's
//! trace context, so spans opened in an item parent where the caller's do.

use std::any::Any;
use std::cell::Cell;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;
use stz_telemetry::{trace, Counter};

thread_local! {
    /// The width set by the innermost `with_threads` on this thread.
    static WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
    /// Whether this thread is running a pool run's items.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("STZ_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The number of threads a [`map`] called here runs on.
pub fn threads() -> usize {
    WIDTH.with(Cell::get).unwrap_or_else(default_threads)
}

/// Run `op` with the width at `n` (`0`: the default width).
pub fn with_threads<R>(n: usize, op: impl FnOnce() -> R) -> R {
    let n = if n == 0 { default_threads() } else { n };
    let _scope = Scope::enter(n, IN_WORKER.with(Cell::get));
    op()
}

/// A thread's previous width and worker flag, put back on drop.
struct Scope(Option<usize>, bool);

impl Scope {
    fn enter(width: usize, worker: bool) -> Scope {
        Scope(WIDTH.with(|w| w.replace(Some(width))), IN_WORKER.with(|w| w.replace(worker)))
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        WIDTH.with(|w| w.set(self.0));
        IN_WORKER.with(|w| w.set(self.1));
    }
}

fn tasks() -> &'static Counter {
    static TASKS: OnceLock<Arc<Counter>> = OnceLock::new();
    TASKS.get_or_init(|| stz_telemetry::global().counter("stz_pool_tasks_total", &[]))
}

/// Run `f` on every item and return the results in item order: inline where
/// the width is 1, there is one item or none, or this is a worker; else on
/// `min(width, items)` threads. A panic in `f` stops further claims and is
/// raised again here, with its payload, once every worker has stopped.
pub fn map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut out = Vec::with_capacity(items.len());
    let collected = run(items, usize::MAX, f, |r| {
        out.push(r);
        Ok::<_, Infallible>(())
    });
    if let Err(never) = collected {
        match never {}
    }
    out
}

/// Run `f` on every item as [`map`] does, and hand each result to `emit` on
/// the calling thread, in item order, as soon as it and every earlier one are
/// done. No item `i` starts before `i < emitted + 2 × width`, so at most twice
/// as many results as threads are started and not yet handed on. An error
/// from `emit`, like a panic in `f` or `emit`, stops further claims and is
/// returned (a panic raised again) once every worker has stopped.
pub fn pipeline<T: Send, R: Send, E>(
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
    emit: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E> {
    run(items, 2, f, emit)
}

/// The one claim / run / hand-on loop behind [`map`] and [`pipeline`]: a
/// thread may start up to `ahead` items past the last one handed on.
fn run<T: Send, R: Send, E>(
    items: Vec<T>,
    ahead: usize,
    f: impl Fn(T) -> R + Sync,
    mut emit: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E> {
    let width = threads();
    tasks().add(items.len() as u64);
    if width == 1 || items.len() <= 1 || IN_WORKER.with(Cell::get) {
        return items.into_iter().try_for_each(|item| emit(f(item)));
    }
    let (n, window) = (items.len(), width.saturating_mul(ahead));
    let (items, done) = (items.into_iter().map(Some).collect(), (0..n).map(|_| None).collect());
    let progress =
        Mutex::new(Progress { items, done, next: 0, emitted: 0, stopped: false, panic: None });
    // Signalled when a result is done or handed on, or the run stops.
    let changed = Condvar::new();
    let stop = |p: &mut Progress<T, R>, payload| {
        p.stopped = true;
        p.panic.get_or_insert(payload);
    };
    // Claim items in index order and run them until none is left or the run
    // stops. The calling thread brings the consumer: it hands on the next
    // result as soon as it is done and returns once every one is handed on.
    // A thread with nothing to run or hand on sleeps.
    let work = |mut consume: Option<&mut dyn FnMut(R) -> bool>| {
        let mut p = lock(&progress);
        while !p.stopped {
            let (next, emitted) = (p.next, p.emitted);
            let ready = |p: &Progress<T, R>| p.done.get(emitted).is_some_and(Option::is_some);
            if let Some(consume) = consume.as_mut().filter(|_| ready(&p)) {
                let r = p.done[emitted].take().expect("a result is ready");
                drop(p);
                let handed = catch_unwind(AssertUnwindSafe(|| consume(r)));
                p = lock(&progress);
                match handed {
                    Ok(true) => p.emitted += 1,
                    Ok(false) => p.stopped = true,
                    Err(payload) => stop(&mut p, payload),
                }
            } else if next < n && next < emitted.saturating_add(window) {
                p.next += 1;
                let item = p.items[next].take().expect("each index is claimed once");
                drop(p);
                let r = catch_unwind(AssertUnwindSafe(|| f(item)));
                p = lock(&progress);
                match r {
                    Ok(r) => p.done[next] = Some(r),
                    Err(payload) => stop(&mut p, payload),
                }
            } else if next == n && (consume.is_none() || emitted == n) {
                return;
            } else {
                p = changed.wait(p).expect("a panic never holds a run's lock");
                continue;
            }
            changed.notify_all();
        }
    };
    let (context, start) = (trace::current_context(), Instant::now());
    let spawned = |w: usize| {
        let _scope = Scope::enter(width, true);
        let _trace = trace::install_context(context.clone());
        // From the call to this worker's first claim: its start-up.
        trace::record_span("queue_wait", start, Instant::now(), &[("worker", w.to_string())]);
        work(None);
    };
    let mut failed = None;
    let mut consume = |r| emit(r).map_err(|e| failed = Some(e)).is_ok();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..width.min(n) - 1)
            .map(|w| {
                let spawn = std::thread::Builder::new().name(format!("stz-pool-{w}"));
                spawn.spawn_scoped(s, move || spawned(w)).expect("spawning a pool worker")
            })
            .collect();
        let _scope = Scope::enter(width, true);
        work(Some(&mut consume));
        // The scope alone waits only for each worker's closure; a join waits
        // for its thread to exit, so what the thread frees as it ends (its
        // handle, its name) is freed before the run returns, not during the
        // caller's next call.
        for worker in workers {
            worker.join().expect("a worker catches every panic in `f`");
        }
    });
    if let Some(payload) = lock(&progress).panic.take() {
        resume_unwind(payload);
    }
    failed.map_or(Ok(()), Err)
}

/// A run's items and results, shared by its threads under one lock.
struct Progress<T, R> {
    /// Items not yet claimed.
    items: Vec<Option<T>>,
    /// Results done and not yet handed on.
    done: Vec<Option<R>>,
    /// The next index to claim.
    next: usize,
    /// How many results have been handed on, all in index order.
    emitted: usize,
    /// Set by a panic or a consumer's error: no more claims.
    stopped: bool,
    /// The first panic's payload, raised again on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

/// Lock a run's progress: none of `f` or the consumer runs under it.
fn lock<T>(progress: &Mutex<T>) -> MutexGuard<'_, T> {
    progress.lock().expect("a panic never holds a run's lock")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn ordered_results_at_every_width() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3).collect();
        for n in [1, 2, 3, 8] {
            assert_eq!(with_threads(n, || map(items.clone(), |x| x * 3)), expect, "width {n}");
        }
    }

    #[test]
    fn work_actually_runs_on_multiple_threads() {
        // No item finishes before all four are running, so four workers
        // must each hold one.
        let all_running = Barrier::new(4);
        let ids = with_threads(4, || {
            map((0..4).collect(), |_: usize| {
                all_running.wait();
                std::thread::current().id()
            })
        });
        assert_eq!(ids.into_iter().collect::<HashSet<_>>().len(), 4);
    }

    #[test]
    fn install_scopes_the_thread_count() {
        assert!(threads() >= 1);
        let outer = threads();
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(5, || assert_eq!(threads(), 5));
            assert_eq!(threads(), 3);
            let unwound = catch_unwind(|| with_threads(7, || panic!("inside a scope")));
            assert!(unwound.is_err());
            assert_eq!(threads(), 3, "an unwinding scope puts the width back");
        });
        assert_eq!(threads(), outer);
    }

    #[test]
    fn builder_zero_resolves_to_default() {
        assert_eq!(with_threads(0, threads), default_threads());
        assert_eq!(with_threads(3, || with_threads(0, threads)), default_threads());
        assert_eq!(with_threads(7, threads), 7);
    }

    #[test]
    fn workers_inherit_the_pool_width() {
        let widths = with_threads(4, || map((0..64).collect(), |_: usize| threads()));
        assert!(widths.into_iter().all(|w| w == 4));
    }

    #[test]
    fn nested_operations_run_sequentially_not_exponentially() {
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let sums = with_threads(4, || {
            map((0..8).collect(), |outer: usize| {
                // A map from inside a worker.
                let inner = map((0..4).collect(), |inner: usize| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(200));
                    live.fetch_sub(1, Ordering::SeqCst);
                    outer * 4 + inner
                });
                inner.into_iter().sum::<usize>()
            })
        });
        assert_eq!(sums, (0..8).map(|o| 16 * o + 6).collect::<Vec<_>>());
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= 4, "{peak} items ran at once on a width of 4");
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let result = catch_unwind(|| {
            with_threads(4, || {
                map((0..64).collect(), |i: usize| {
                    if i == 17 {
                        panic!("boom from a worker");
                    }
                    i
                })
            })
        });
        let payload = result.expect_err("a worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom from a worker"));
        assert!(!IN_WORKER.with(Cell::get), "the caller is no longer a worker");
        assert_eq!(with_threads(4, || map(vec![1, 2, 3], |x| x * 2)), [2, 4, 6]);
    }

    #[test]
    fn short_and_serial_maps_stay_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |x: usize| (x, std::thread::current().id() == caller);
        assert_eq!(with_threads(8, || map(vec![7], on_caller)), [(7, true)]);
        assert!(with_threads(8, || map(Vec::new(), on_caller)).is_empty());
        let serial = with_threads(1, || map((0..16).collect(), on_caller));
        assert!(serial.iter().all(|&(_, here)| here), "a width of 1 spawns nothing");
    }

    #[test]
    fn every_item_runs_once_at_every_length() {
        for width in 1..=5 {
            for n in 0..=12 {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = with_threads(width, || {
                    map((0..n).collect(), |i: usize| {
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        i
                    })
                });
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "width {width}, {n} items");
                let once = runs.iter().all(|r| r.load(Ordering::Relaxed) == 1);
                assert!(once, "width {width}, {n} items: an item ran twice or not at all");
            }
        }
    }

    #[test]
    fn no_more_threads_than_items_and_the_caller_is_one() {
        let caller = std::thread::current().id();
        // Each of three items waits for the other two, so three threads run
        // them at a width of 8.
        let all_running = Barrier::new(3);
        let ids = with_threads(8, || {
            map((0..3).collect(), |_: usize| {
                all_running.wait();
                std::thread::current().id()
            })
        });
        let ids: HashSet<_> = ids.into_iter().collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.contains(&caller), "the caller is the last worker");
        let ids =
            with_threads(2, || map((0..64).collect(), |_: usize| std::thread::current().id()));
        assert!(ids.into_iter().collect::<HashSet<_>>().len() <= 2);
    }

    #[test]
    fn a_panic_drops_every_item_and_result_once() {
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (items, results, ran) = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                map((0..64).map(|_| Counted(&items)).collect(), |item| {
                    if ran.fetch_add(1, Ordering::SeqCst) == 10 {
                        panic!("the eleventh item");
                    }
                    drop(item);
                    Counted(&results)
                })
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(items.load(Ordering::SeqCst), 64, "claimed or not, every item is dropped");
        let finished = ran.load(Ordering::SeqCst) - 1;
        assert_eq!(results.load(Ordering::SeqCst), finished, "every finished result is dropped");
    }

    #[test]
    fn workers_open_their_spans_under_the_callers_span() {
        let collector = Box::leak(Box::new(trace::TraceCollector::new(true)));
        let (trace_id, caller) = {
            let root = collector.start("test", "request", None);
            let span = trace::span("caller");
            let caller = trace::current_context().unwrap().span_id();
            with_threads(4, || map((0..3).collect(), |_: usize| drop(trace::span("item"))));
            drop(span);
            (root.trace_id().unwrap(), caller)
        };
        let t = collector.snapshot().into_iter().find(|t| t.trace_id == trace_id).unwrap();
        let named = |name: &'static str| t.spans.iter().filter(move |s| s.name == name);
        assert_eq!(named("item").count(), 3);
        assert!(named("item").all(|s| s.parent == caller), "an item's span left the trace");
        let mut workers: Vec<&str> = named("queue_wait")
            .inspect(|s| assert_eq!(s.parent, caller))
            .map(|s| s.attrs[0].1.as_str())
            .collect();
        workers.sort_unstable();
        assert_eq!(workers, ["0", "1"], "one queue_wait per spawned worker");
    }

    #[test]
    fn telemetry_counts_every_chunk() {
        // The counter is shared with tests running alongside, so assert the
        // least this run adds.
        let before = tasks().get();
        with_threads(4, || map((0..64).collect(), |x: usize| x));
        assert!(tasks().get() >= before + 64, "a 64-item map counts 64 tasks");
        let before = tasks().get();
        with_threads(1, || map(vec![1u8, 2, 3], |x| x));
        assert!(tasks().get() >= before + 3, "the inline path counts items too");
    }

    #[test]
    fn pooled_decode_spans_join_the_callers_trace() {
        use crate::{StzCompressor, StzConfig};
        use stz_field::{Dims, Field};
        // On the pool a decode splits each level into units, two at a width
        // of 2; a `reconstruct` span's `unit` is the unit's index.
        let field = Field::from_fn(Dims::d3(128, 128, 128), |z, y, x| {
            ((z * 3 + y * 5 + x * 7) as f32 * 0.01).sin()
        });
        let archive = StzCompressor::new(StzConfig::three_level(1e-3)).compress(&field).unwrap();
        let collector = Box::leak(Box::new(trace::TraceCollector::new(true)));
        let trace_id = {
            let root = collector.start("test", "request", None);
            with_threads(2, || archive.decompress_parallel()).unwrap();
            root.trace_id().unwrap()
        };
        let t = collector.snapshot().into_iter().find(|t| t.trace_id == trace_id).unwrap();
        let named = |name: &'static str| t.spans.iter().filter(move |s| s.name == name);
        let mut pooled = 0;
        for level in named("level_decode") {
            let mut units: Vec<usize> = named("reconstruct")
                .filter(|s| s.parent == level.id)
                .map(|s| s.attrs.iter().find(|(k, _)| k == "unit").unwrap().1.parse().unwrap())
                .collect();
            units.sort_unstable();
            assert_eq!(units, (0..units.len()).collect::<Vec<_>>(), "a unit's span is missing");
            let waits = named("queue_wait").filter(|s| s.parent == level.id).count();
            assert_eq!(waits, usize::from(units.len() > 1), "one queue_wait per spawned worker");
            pooled += waits;
        }
        assert!(pooled >= 1, "no level of a 128^3 field ran on two threads");
        let levels: HashSet<u64> = named("level_decode").map(|s| s.id).collect();
        assert!(named("reconstruct").all(|s| levels.contains(&s.parent)));
        assert_eq!(named("queue_wait").count(), pooled);
    }
}
