//! Order-preserving parallel map over scoped OS threads.
//!
//! Extracted from the bench engine (which re-exports it as
//! `convmeter_bench::engine::pool`) so the simulators can parallelise
//! sweep-point evaluation *inside* one dataset build without depending on
//! the experiment harness. The metric names keep their historical
//! `engine.pool.*` prefix.
//!
//! The workspace has no data-parallel runtime dependency, so the engine
//! brings its own scheduler: `run_ordered` fans N items out to
//! at most `jobs` worker threads pulling from a shared atomic work index,
//! and returns results in input order regardless of completion order.
//!
//! Worker panics are caught (`catch_unwind`) and surfaced as a typed
//! [`WorkerPanic`] instead of tearing down the thread scope, so the caller
//! decides how to report the failure. The pool
//! also reports itself to the observability layer: a worker-count gauge,
//! a peak-queue-depth gauge, and an items counter
//! (`engine.pool.{workers,queue_depth_max,items}`).
//!
//! Every worker adopts the caller's open span path
//! (`convmeter_obs::span::adopt`), so spans opened inside a work item nest
//! under the span that was open around the `run_ordered` call — through
//! nested pools too — exactly as they do when the items run inline.
//!
//! Retries and the watchdog are not the pool's business: the experiment
//! engine wraps each item in its own per-attempt policy and hands the
//! wrapped closure to [`run_ordered`] like any other caller.

#![warn(missing_docs)]

use convmeter_obs as obs;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[doc(hidden)]
pub mod sys {
    //! Sync primitives for the ordered-pool core: `std` in production, the
    //! `loom` shim under `--cfg loom` so the claim/store/collect protocol is
    //! model-checked against every sampled interleaving
    //! (`tests/loom_pool.rs`). The aliases keep the *same* worker code on
    //! both paths — what loom verifies is what production runs.
    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicUsize, Ordering};
    #[cfg(loom)]
    pub use loom::sync::Mutex;
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicUsize, Ordering};
    #[cfg(not(loom))]
    pub use std::sync::Mutex;
}

use sys::{AtomicUsize, Mutex, Ordering};

/// A panic that escaped a work item, captured by [`run_ordered`].
#[derive(Debug)]
pub struct WorkerPanic {
    /// Input index of the item whose closure panicked.
    pub index: usize,
    /// Rendered panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work item {} panicked: {}", self.index, self.message)
    }
}

/// Render a caught panic payload: `&str`/`String` payloads verbatim,
/// anything else as a placeholder.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One result slot per input item, all starting empty.
#[doc(hidden)]
pub fn new_slots<R>(n: usize) -> Vec<Mutex<Option<Result<R, WorkerPanic>>>> {
    (0..n).map(|_| Mutex::new(None)).collect()
}

/// The worker loop shared by every pool thread: claim the next input index
/// from the shared counter, run the item, store the outcome in its slot.
/// Exposed (hidden) so the loom suite can model-check exactly this code.
#[doc(hidden)]
pub fn drain_work<T, R, F>(
    next: &AtomicUsize,
    slots: &[Mutex<Option<Result<R, WorkerPanic>>>],
    items: &[T],
    run_one: &F,
) where
    F: Fn(usize, &T) -> Result<R, WorkerPanic>,
{
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        #[cfg(not(loom))]
        obs::gauge!("engine.pool.queue_depth_max").record_max((items.len() - i) as u64);
        let out = run_one(i, &items[i]);
        // Recover from poisoning: a slot is poisoned only when the *store*
        // operation itself panicked, and the `Option` write is atomic
        // enough that the inner value is still coherent.
        *slots[i]
            // analyzer:allow(CP0005, reason = "the per-slot mutex IS the result-publication protocol (one uncontended lock per work item); checked by the loom suite")
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
    }
}

/// Drain the slots in input order. Any panic outcome surfaces as the
/// [`WorkerPanic`] with the lowest input index; the remaining results are
/// discarded. Exposed (hidden) for the loom suite.
#[doc(hidden)]
pub fn collect_ordered<R>(
    slots: &[Mutex<Option<Result<R, WorkerPanic>>>],
) -> Result<Vec<R>, WorkerPanic> {
    slots
        .iter()
        .map(|slot| {
            // analyzer:allow(CP0005, reason = "the per-slot mutex IS the result-publication protocol; the workers are done, so every lock is uncontended")
            slot.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                // analyzer:allow(CA0004, reason = "drain_work stores a result into every claimed slot before returning; checked by the loom suite")
                .expect("every work item produces a result")
        })
        .collect()
}

/// Apply `f` to every item on up to `jobs` threads, returning the results
/// in input order. `f` receives `(index, &item)`.
///
/// With `jobs <= 1` (or a single item) everything runs on the calling
/// thread, which keeps stack traces and panic messages simple in tests.
/// Worker threads adopt the caller's open span path, so the span tree is
/// the same either way.
///
/// If any item's closure panics, the panic is caught and the call returns
/// the [`WorkerPanic`] with the *lowest input index* (deterministic even
/// under parallel scheduling); results of the other items are discarded.
pub fn run_ordered<T, R, F>(items: &[T], jobs: usize, f: F) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.max(1).min(items.len());
    obs::gauge!("engine.pool.workers").record_max(workers as u64);
    obs::counter!("engine.pool.items").add(items.len() as u64);
    let run_one = |i: usize, t: &T| -> Result<R, WorkerPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(|payload| WorkerPanic {
            index: i,
            message: panic_message(payload),
        })
    };
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| run_one(i, t))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots = new_slots(items.len());
    let caller = obs::span::current_path();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _adopted = obs::span::adopt(&caller);
                drain_work(&next, &slots, items, &run_one);
            });
        }
    });
    collect_ordered(&slots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = run_ordered(&items, 8, |i, &x| {
            // Stagger completion so late items can finish before early ones.
            std::thread::sleep(std::time::Duration::from_micros(((64 - i) % 7) as u64));
            x * 2
        })
        .expect("no panics");
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback() {
        let items = [1, 2, 3];
        assert_eq!(
            run_ordered(&items, 0, |_, &x| x + 1).unwrap(),
            vec![2, 3, 4]
        );
        assert_eq!(
            run_ordered(&items, 1, |_, &x| x + 1).unwrap(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = run_ordered(&items, 4, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_input() {
        let items: [usize; 0] = [];
        assert!(run_ordered(&items, 4, |_, &x| x).unwrap().is_empty());
    }

    #[test]
    fn panics_become_typed_errors() {
        let items: Vec<usize> = (0..16).collect();
        let err = run_ordered(&items, 4, |_, &x| {
            if x % 5 == 3 {
                panic!("item {x} exploded");
            }
            x
        })
        .unwrap_err();
        // Lowest panicking index wins deterministically.
        assert_eq!(err.index, 3);
        assert_eq!(err.message, "item 3 exploded");
    }

    #[test]
    fn nested_pool_spans_nest_under_the_caller() {
        let session = obs::Session::begin();
        {
            let _outer = obs::span!("pool_nest.outer");
            run_ordered(&[0, 1], 2, |_, _| {
                let _inner = obs::span!("pool_nest.inner");
                run_ordered(&[0, 1], 2, |_, _| {
                    let _leaf = obs::span!("pool_nest.leaf");
                })
                .unwrap();
            })
            .unwrap();
        }
        let snap = session.span_snapshot();
        let outer = &snap.children["pool_nest.outer"];
        let inner = &outer.children["pool_nest.inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.children["pool_nest.leaf"].count, 4);
        assert!(!snap.children.contains_key("pool_nest.inner"));
        assert!(!snap.children.contains_key("pool_nest.leaf"));
    }

    #[test]
    fn sequential_panics_are_caught_too() {
        let items = [1, 2];
        let err = run_ordered(&items, 1, |_, &x: &i32| -> i32 { panic!("boom {x}") }).unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(err.message, "boom 1");
    }
}
