//! The per-attempt policy every experiment runs under.
//!
//! [`Engine::run`](super::Engine::run) hands [`run`] to `pool::run_ordered`
//! as the work closure, so one call schedules every experiment whatever the
//! fault-tolerance flags say. The policy makes `retries + 1` attempts,
//! sleeping a deterministic backoff on the worker before each retry,
//! catches panics, and records every failed attempt as an
//! [`AttemptRecord`].
//!
//! Without a watchdog the attempt runs inline on the pool worker, so a
//! default run keeps exactly the threads and span nesting of a plain
//! `run_ordered` call. With `timeout_secs` set, the attempt runs on a
//! detached thread awaited with `recv_timeout`: a hung attempt cannot be
//! cancelled, only abandoned, and its eventual result is discarded.

use super::{DatasetStore, EngineError, Experiment, RunContext, RunOutput};
use convmeter_metrics::obs;
use convmeter_pool as pool;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Base of the exponential retry backoff: retry `k+1` waits
/// `BACKOFF_BASE_MS << (k-1)` milliseconds. The schedule is a pure function
/// of the attempt number, so the manifest's backoff accounting is
/// deterministic.
pub const BACKOFF_BASE_MS: u64 = 250;

/// How one failed attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AttemptKind {
    /// The experiment returned an error.
    Error,
    /// The experiment panicked (caught).
    Panic,
    /// The watchdog deadline passed; the attempt was abandoned.
    Timeout,
}

/// One failed attempt at an experiment.
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

/// Everything the policy learned about one experiment.
pub(super) struct Outcome {
    /// The output, or the typed error of the final attempt.
    pub result: Result<RunOutput, EngineError>,
    /// Failed attempts, in attempt order (empty on first-try success).
    pub attempts: Vec<AttemptRecord>,
    /// Wall time across all attempts, backoff excluded, seconds.
    pub elapsed_seconds: f64,
}

/// Why one attempt failed, before it is rendered into a record.
enum Failure {
    Error(EngineError),
    Panic(String),
    /// The watchdog budget, seconds.
    Timeout(u64),
}

impl Failure {
    /// The manifest record of this failure as attempt number `attempt`.
    fn record(&self, attempt: usize, elapsed_seconds: f64, backoff_ms: u64) -> AttemptRecord {
        let (kind, error) = match self {
            Failure::Error(e) => (AttemptKind::Error, error_chain(e)),
            Failure::Panic(message) => (AttemptKind::Panic, message.clone()),
            Failure::Timeout(_) => (
                AttemptKind::Timeout,
                format!("watchdog timeout after {elapsed_seconds:.1}s"),
            ),
        };
        AttemptRecord {
            attempt,
            kind,
            error,
            elapsed_seconds,
            backoff_ms,
        }
    }

    /// The typed error a final failure of experiment `name` aborts with.
    fn into_error(self, name: &str) -> EngineError {
        let name = name.to_string();
        match self {
            Failure::Error(e) => e,
            Failure::Panic(message) => EngineError::ExperimentPanicked { name, message },
            Failure::Timeout(seconds) => EngineError::TimedOut { name, seconds },
        }
    }
}

/// Run `exp` under the policy: up to `retries + 1` attempts, each watched
/// for `timeout_secs` when that is set.
pub(super) fn run(
    exp: &'static dyn Experiment,
    store: &Arc<DatasetStore>,
    retries: usize,
    timeout_secs: Option<u64>,
) -> Outcome {
    // Sized for the usual small retry budget, not for an arbitrary one.
    let mut attempts = Vec::with_capacity(retries.min(7) + 1);
    let mut elapsed_seconds = 0.0;
    let mut attempt = 1;
    loop {
        let started = obs::clock::now();
        let result = match timeout_secs {
            None => attempt_once(exp, store),
            Some(secs) => attempt_watched(exp, store, secs),
        };
        let elapsed = match &result {
            Err(Failure::Timeout(secs)) => *secs as f64,
            _ => started.elapsed().as_secs_f64(),
        };
        elapsed_seconds += elapsed;
        let failure = match result {
            Ok(output) => {
                return Outcome {
                    result: Ok(output),
                    attempts,
                    elapsed_seconds,
                }
            }
            Err(failure) => failure,
        };
        let backoff_ms = if attempt <= retries {
            BACKOFF_BASE_MS << (attempt - 1)
        } else {
            0
        };
        attempts.push(failure.record(attempt, elapsed, backoff_ms));
        if backoff_ms == 0 {
            return Outcome {
                result: Err(failure.into_error(exp.name())),
                attempts,
                elapsed_seconds,
            };
        }
        eprintln!(
            "{} attempt {attempt} failed; retrying in {backoff_ms} ms",
            exp.name()
        );
        std::thread::sleep(Duration::from_millis(backoff_ms));
        attempt += 1;
    }
}

/// One attempt on the calling thread, under the experiment's span.
fn attempt_once(exp: &dyn Experiment, store: &DatasetStore) -> Result<RunOutput, Failure> {
    let _span = obs::span::span(format!("experiment:{}", exp.name()));
    catch_unwind(AssertUnwindSafe(|| exp.run(&RunContext { store })))
        .map_err(|payload| Failure::Panic(pool::panic_message(payload)))?
        .map_err(Failure::Error)
}

/// One attempt on a detached thread, abandoned after `secs` seconds.
fn attempt_watched(
    exp: &'static dyn Experiment,
    store: &Arc<DatasetStore>,
    secs: u64,
) -> Result<RunOutput, Failure> {
    let (tx, rx) = mpsc::channel();
    let store = Arc::clone(store);
    std::thread::spawn(move || {
        // A failed send means the watchdog already abandoned this attempt.
        let _ = tx.send(attempt_once(exp, &store));
    });
    let budget = Duration::from_secs(secs);
    let started = obs::clock::now();
    match rx.recv_timeout(budget) {
        // `recv_timeout` may spin past a short deadline before giving up;
        // a result that lands after the budget is late all the same.
        Ok(result) if started.elapsed() <= budget => result,
        Ok(_) | Err(mpsc::RecvTimeoutError::Timeout) => Err(Failure::Timeout(secs)),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(Failure::Panic(
            "attempt thread exited without a result".to_string(),
        )),
    }
}

/// Render an error and its `source()` chain on one line, for the attempt
/// records in the manifest.
fn error_chain(err: &dyn std::error::Error) -> String {
    use std::fmt::Write as _;
    let mut out = err.to_string();
    let mut source = err.source();
    while let Some(cause) = source {
        let _ = write!(out, " — caused by: {cause}");
        source = cause.source();
    }
    out
}
