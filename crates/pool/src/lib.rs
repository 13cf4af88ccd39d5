//! Order-preserving parallel map over scoped OS threads, plus the
//! fault-tolerant quarantine runner.
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
//! [`run_quarantined`] is the graceful-degradation variant: every item gets
//! bounded retries with deterministic exponential backoff, an optional
//! watchdog timeout, and per-attempt failure records instead of run-aborting
//! errors. It runs attempts on *detached* threads (a hung attempt cannot be
//! cancelled, only abandoned), so it is only engaged when the caller opted
//! into quarantine semantics; `run_ordered` remains the byte-identical
//! default path.

#![warn(missing_docs)]

use convmeter_obs as obs;
use serde::Serialize;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
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
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| drain_work(&next, &slots, items, &run_one));
        }
    });
    collect_ordered(&slots)
}

/// How one failed attempt ended, for typed error mapping in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AttemptKind {
    /// The work closure returned an error.
    Error,
    /// The work closure panicked (caught).
    Panic,
    /// The watchdog deadline passed; the attempt was abandoned.
    Timeout,
}

/// One failed attempt at a quarantined work item.
#[derive(Debug, Clone, Serialize)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: usize,
    /// How the attempt failed.
    pub kind: AttemptKind,
    /// Rendered error chain, panic payload, or timeout description.
    pub error: String,
    /// Wall time this attempt consumed, seconds (the watchdog budget for
    /// timeouts).
    pub elapsed_seconds: f64,
    /// Backoff scheduled before the *next* attempt, milliseconds (0 when
    /// this failure was final).
    pub backoff_ms: u64,
}

/// Outcome of one quarantined work item: the value when any attempt
/// succeeded, plus every failed attempt along the way.
#[derive(Debug)]
pub struct QuarantineOutcome<R> {
    /// The successful result, or `None` when every attempt failed.
    pub value: Option<R>,
    /// Failed attempts, in attempt order (empty on first-try success).
    pub attempts: Vec<AttemptRecord>,
    /// Total wall time across all attempts, seconds.
    pub elapsed_seconds: f64,
}

/// Retry/watchdog policy for [`run_quarantined`].
#[derive(Debug, Clone)]
pub struct QuarantinePlan {
    /// Maximum attempts in flight at once.
    pub jobs: usize,
    /// Retries after the first attempt (total attempts = `retries + 1`).
    pub retries: usize,
    /// Per-attempt watchdog; `None` disables timeouts.
    pub timeout: Option<Duration>,
    /// Base backoff before retry `k+1` is `backoff_base_ms << (k-1)` — the
    /// schedule is a pure function of the attempt number, so backoff
    /// accounting in the manifest is deterministic.
    pub backoff_base_ms: u64,
}

enum Msg<R> {
    Started {
        index: usize,
        attempt: usize,
    },
    Done {
        index: usize,
        attempt: usize,
        outcome: Result<R, (AttemptKind, String)>,
        elapsed_seconds: f64,
    },
}

/// Run every item with bounded retries, deterministic backoff, and an
/// optional per-attempt watchdog. Returns one [`QuarantineOutcome`] per item
/// in input order — failures are *recorded*, never propagated, so one bad
/// item cannot take down the rest of the run.
///
/// Attempts execute on detached threads: when the watchdog fires, the hung
/// thread is abandoned (its eventual result is discarded) rather than
/// cancelled, and the scheduler moves on. The backoff sleep happens on the
/// worker before the attempt starts; the watchdog clock only starts once
/// the attempt reports in, so backoff never eats into the timeout budget.
pub fn run_quarantined<T, R, F>(
    items: Vec<T>,
    plan: &QuarantinePlan,
    f: F,
) -> Vec<QuarantineOutcome<R>>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> Result<R, String> + Send + Sync + 'static,
{
    let jobs = plan.jobs.max(1);
    obs::gauge!("engine.pool.workers").record_max(jobs.min(items.len().max(1)) as u64);
    obs::counter!("engine.pool.items").add(items.len() as u64);
    let mut results: Vec<QuarantineOutcome<R>> = items
        .iter()
        .map(|_| QuarantineOutcome {
            value: None,
            attempts: Vec::new(),
            elapsed_seconds: 0.0,
        })
        .collect();
    if items.is_empty() {
        return results;
    }
    let items = Arc::new(items);
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<Msg<R>>();

    // (item index, attempt number, backoff before running).
    let mut pending: VecDeque<(usize, usize, u64)> = (0..items.len()).map(|i| (i, 1, 0)).collect();
    // In-flight attempts; the deadline appears once `Started` arrives.
    let mut in_flight: HashMap<(usize, usize), Option<Instant>> = HashMap::new();
    // Attempts whose watchdog fired; their late `Done` is discarded.
    let mut abandoned: HashSet<(usize, usize)> = HashSet::new();

    let spawn_attempt =
        |index: usize, attempt: usize, backoff_ms: u64, tx: &mpsc::Sender<Msg<R>>| {
            let items = Arc::clone(&items);
            let f = Arc::clone(&f);
            let tx = tx.clone();
            std::thread::spawn(move || {
                if backoff_ms > 0 {
                    std::thread::sleep(Duration::from_millis(backoff_ms));
                }
                // A dropped send means the supervisor already returned (it
                // abandoned this attempt); nothing left to report to.
                let _ = tx.send(Msg::Started { index, attempt });
                let started = obs::clock::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| f(index, &items[index])))
                    .map_err(|payload| (AttemptKind::Panic, panic_message(payload)))
                    .and_then(|r| r.map_err(|msg| (AttemptKind::Error, msg)));
                let _ = tx.send(Msg::Done {
                    index,
                    attempt,
                    outcome,
                    elapsed_seconds: started.elapsed().as_secs_f64(),
                });
            });
        };

    while !pending.is_empty() || !in_flight.is_empty() {
        while in_flight.len() < jobs {
            let Some((index, attempt, backoff_ms)) = pending.pop_front() else {
                break;
            };
            spawn_attempt(index, attempt, backoff_ms, &tx);
            in_flight.insert((index, attempt), None);
        }
        let now = obs::clock::now();
        let nearest = in_flight.values().flatten().min().copied();
        let wait = match nearest {
            Some(deadline) => deadline.saturating_duration_since(now),
            // Everything in flight is still in its backoff sleep (or
            // timeouts are disabled); wake periodically to re-check.
            None => Duration::from_millis(50),
        };
        match rx.recv_timeout(wait) {
            Ok(Msg::Started { index, attempt }) => {
                if let (Some(t), Some(slot)) = (plan.timeout, in_flight.get_mut(&(index, attempt)))
                {
                    *slot = Some(obs::clock::now() + t);
                }
            }
            Ok(Msg::Done {
                index,
                attempt,
                outcome,
                elapsed_seconds,
            }) => {
                if abandoned.remove(&(index, attempt)) {
                    continue; // Stale result from a timed-out attempt.
                }
                in_flight.remove(&(index, attempt));
                results[index].elapsed_seconds += elapsed_seconds;
                match outcome {
                    Ok(value) => results[index].value = Some(value),
                    Err((kind, error)) => {
                        record_failure(
                            &mut results[index],
                            &mut pending,
                            plan,
                            index,
                            attempt,
                            kind,
                            error,
                            elapsed_seconds,
                        );
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let now = obs::clock::now();
                let expired: Vec<(usize, usize)> = in_flight
                    .iter()
                    .filter(|(_, deadline)| deadline.is_some_and(|d| d <= now))
                    .map(|(k, _)| *k)
                    // analyzer:allow(CP0003, reason = "watchdog-timeout branch only; materialised so in_flight can be mutated while walking the expired keys")
                    .collect();
                for (index, attempt) in expired {
                    in_flight.remove(&(index, attempt));
                    abandoned.insert((index, attempt));
                    let budget = plan.timeout.unwrap_or_default().as_secs_f64();
                    results[index].elapsed_seconds += budget;
                    record_failure(
                        &mut results[index],
                        &mut pending,
                        plan,
                        index,
                        attempt,
                        AttemptKind::Timeout,
                        // analyzer:allow(CP0001, reason = "renders the failure message, once per timed-out attempt")
                        format!("watchdog timeout after {budget:.1}s"),
                        budget,
                    );
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // analyzer:allow(CA0004, reason = "supervisor keeps a live sender, so the channel cannot disconnect before a verdict")
                unreachable!("supervisor holds a sender; the channel cannot disconnect")
            }
        }
    }
    results
}

#[allow(clippy::too_many_arguments)]
fn record_failure<R>(
    result: &mut QuarantineOutcome<R>,
    pending: &mut VecDeque<(usize, usize, u64)>,
    plan: &QuarantinePlan,
    index: usize,
    attempt: usize,
    kind: AttemptKind,
    error: String,
    elapsed_seconds: f64,
) {
    let will_retry = attempt <= plan.retries;
    let backoff_ms = if will_retry {
        plan.backoff_base_ms << (attempt - 1)
    } else {
        0
    };
    result.attempts.push(AttemptRecord {
        attempt,
        kind,
        error,
        elapsed_seconds,
        backoff_ms,
    });
    if will_retry {
        pending.push_back((index, attempt + 1, backoff_ms));
    }
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
    fn sequential_panics_are_caught_too() {
        let items = [1, 2];
        let err = run_ordered(&items, 1, |_, &x: &i32| -> i32 { panic!("boom {x}") }).unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(err.message, "boom 1");
    }

    fn plan(jobs: usize, retries: usize, timeout_ms: Option<u64>) -> QuarantinePlan {
        QuarantinePlan {
            jobs,
            retries,
            timeout: timeout_ms.map(Duration::from_millis),
            backoff_base_ms: 1,
        }
    }

    #[test]
    fn quarantine_records_panics_and_errors_without_aborting() {
        let items: Vec<usize> = (0..8).collect();
        let out = run_quarantined(items, &plan(4, 0, None), |_, &x| {
            if x == 2 {
                panic!("item {x} exploded");
            }
            if x == 5 {
                return Err(format!("item {x} failed politely"));
            }
            Ok(x * 10)
        });
        assert_eq!(out.len(), 8);
        for (i, o) in out.iter().enumerate() {
            match i {
                2 => {
                    assert!(o.value.is_none());
                    assert_eq!(o.attempts.len(), 1);
                    assert_eq!(o.attempts[0].kind, AttemptKind::Panic);
                    assert_eq!(o.attempts[0].error, "item 2 exploded");
                }
                5 => {
                    assert!(o.value.is_none());
                    assert_eq!(o.attempts[0].kind, AttemptKind::Error);
                    assert_eq!(o.attempts[0].error, "item 5 failed politely");
                }
                _ => {
                    assert_eq!(o.value, Some(i * 10));
                    assert!(o.attempts.is_empty());
                }
            }
        }
    }

    #[test]
    fn quarantine_retries_with_deterministic_backoff_schedule() {
        // Fails twice, succeeds on the third attempt.
        let calls = Arc::new(AtomicUsize::new(0));
        let calls_in = Arc::clone(&calls);
        let out = run_quarantined(vec![()], &plan(1, 3, None), move |_, _| {
            let n = calls_in.fetch_add(1, Ordering::SeqCst) + 1;
            if n < 3 {
                Err(format!("transient {n}"))
            } else {
                Ok(n)
            }
        });
        assert_eq!(out[0].value, Some(3));
        assert_eq!(out[0].attempts.len(), 2);
        // Backoff doubles deterministically: base<<0, base<<1.
        assert_eq!(out[0].attempts[0].backoff_ms, 1);
        assert_eq!(out[0].attempts[1].backoff_ms, 2);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn quarantine_exhausted_retries_record_every_attempt() {
        let out = run_quarantined(vec![()], &plan(1, 2, None), |_, _| {
            Err::<(), _>("always down".to_string())
        });
        assert!(out[0].value.is_none());
        assert_eq!(out[0].attempts.len(), 3);
        assert_eq!(
            out[0]
                .attempts
                .iter()
                .map(|a| a.attempt)
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // The final attempt schedules no further backoff.
        assert_eq!(out[0].attempts.last().unwrap().backoff_ms, 0);
    }

    #[test]
    fn quarantine_watchdog_abandons_hung_items() {
        let items: Vec<u64> = vec![0, 1, 2];
        let started = Instant::now();
        let out = run_quarantined(items, &plan(3, 0, Some(100)), |_, &x| {
            if x == 1 {
                // Hang well past the watchdog; the thread is abandoned.
                std::thread::sleep(Duration::from_millis(10_000));
            }
            Ok(x)
        });
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "watchdog must not wait for the hung item"
        );
        assert_eq!(out[0].value, Some(0));
        assert_eq!(out[2].value, Some(2));
        assert!(out[1].value.is_none());
        assert_eq!(out[1].attempts.len(), 1);
        assert_eq!(out[1].attempts[0].kind, AttemptKind::Timeout);
        assert!(out[1].attempts[0].error.contains("watchdog timeout"));
    }

    #[test]
    fn quarantine_outcomes_are_in_input_order_and_deterministic() {
        // Mixed panics and errors across parallel workers must land in the
        // same per-index slots on every run.
        for _ in 0..3 {
            let items: Vec<usize> = (0..12).collect();
            let out = run_quarantined(items, &plan(4, 1, None), |_, &x| {
                if x % 3 == 0 {
                    panic!("p{x}");
                }
                Ok(x)
            });
            for (i, o) in out.iter().enumerate() {
                if i % 3 == 0 {
                    assert!(o.value.is_none());
                    assert_eq!(o.attempts.len(), 2, "item {i}");
                    assert!(o.attempts.iter().all(|a| a.kind == AttemptKind::Panic));
                    assert!(o.attempts.iter().all(|a| a.error == format!("p{i}")));
                } else {
                    assert_eq!(o.value, Some(i));
                }
            }
        }
    }

    #[test]
    fn quarantine_empty_input() {
        let out = run_quarantined(Vec::<u8>::new(), &plan(4, 2, Some(50)), |_, &x| Ok(x));
        assert!(out.is_empty());
    }
}
