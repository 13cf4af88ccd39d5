//! Observability substrate for the ConvMeter workspace.
//!
//! This crate is intentionally at the very bottom of the dependency graph
//! (nothing but the vendored `serde` shims below it), so *every* layer —
//! `convmeter-graph` and `convmeter-linalg` included — can report spans
//! and metrics. The public face for the rest of the workspace is the
//! re-export `convmeter_metrics::obs`.
//!
//! Three pieces:
//!
//! * [`span`](mod@span) — RAII span guards with thread-local nesting, monotonic
//!   clocks, and an aggregation sink that only locks when a thread's
//!   outermost span closes;
//! * [`metric`] — a typed registry of counters, gauges, and fixed
//!   log-scale (power-of-two bucket) histograms;
//! * [`profile`] — the versioned snapshot schema written to
//!   `BENCH_profile.json` and compared by `tools/perf_gate.sh`.
//!
//! Everything is off by default and free-ish when off (one relaxed atomic
//! load per guard). A [`Session`] switches recording on:
//!
//! ```
//! use convmeter_obs as obs;
//!
//! let session = obs::Session::begin();
//! {
//!     let _outer = obs::span!("demo.outer");
//!     let _inner = obs::span!("demo.inner");
//!     obs::counter!("demo.events").inc();
//! }
//! let spans = session.span_snapshot();
//! assert_eq!(spans.children["demo.outer"].children["demo.inner"].count, 1);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod metric;
pub mod profile;
pub mod prometheus;
pub mod span;

pub use metric::{counter, gauge, histogram, Counter, Gauge, Histogram, MetricsSnapshot};
pub use profile::{GateFinding, GateReport, Profile, SpanNode, PROFILE_FORMAT};
pub use span::{enabled, span, Span, SpanAgg};

use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

static SESSION_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static IN_SESSION: Cell<bool> = const { Cell::new(false) };
}

/// An exclusive recording session: resets all spans and metrics, enables
/// recording, and disables it again on drop.
///
/// Sessions are process-global and serialised by a lock, so concurrent
/// callers (parallel tests, mostly) queue up instead of corrupting each
/// other's data. A `begin` on a thread that already owns a session *joins*
/// it instead of deadlocking: the join is a no-op handle whose snapshot
/// reads the shared state and whose drop changes nothing — that is how
/// the engine records into an enclosing `convmeter profile` session.
pub struct Session {
    guard: Option<MutexGuard<'static, ()>>,
}

impl Session {
    /// Start (or join, if this thread already holds one) a session.
    pub fn begin() -> Session {
        if IN_SESSION.with(Cell::get) {
            return Session { guard: None };
        }
        let guard = SESSION_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        IN_SESSION.with(|f| f.set(true));
        span::reset();
        metric::reset();
        span::set_enabled(true);
        Session { guard: Some(guard) }
    }

    /// Whether this handle owns the session (vs having joined an enclosing
    /// one).
    pub fn owns(&self) -> bool {
        self.guard.is_some()
    }

    /// Snapshot the aggregated span tree (root is synthetic; its children
    /// are the outermost spans closed so far).
    pub fn span_snapshot(&self) -> SpanAgg {
        span::snapshot()
    }

    /// Snapshot every registered metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        metric::snapshot()
    }

    /// Freeze the session into a [`Profile`].
    pub fn profile(&self, workload: &str) -> Profile {
        Profile::capture(workload, &self.span_snapshot(), &self.metrics_snapshot())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.guard.is_some() {
            span::set_enabled(false);
            IN_SESSION.with(|f| f.set(false));
        }
    }
}

/// Open a span named by a string literal: `let _g = span!("linalg.fit");`.
/// Sugar for [`span::span`]; prefer it in hot paths for grep-ability.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::span($name)
    };
}

/// A cached counter handle: `counter!("hwsim.kernel_evals").inc()`. The
/// registry lookup happens once per call site; afterwards each event is a
/// single relaxed atomic add.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metric::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metric::counter($name))
    }};
}

/// A cached gauge handle: `gauge!("engine.pool.workers").set(n)`.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metric::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metric::gauge($name))
    }};
}

/// A cached histogram handle: `histogram!("linalg.qr.rows").record(m)`.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::metric::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::metric::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_resets_and_disables() {
        {
            let session = Session::begin();
            assert!(session.owns());
            assert!(enabled());
            counter!("test.session.events").add(3);
            {
                let _g = span!("test.session.span");
            }
            let p = session.profile("quick");
            assert_eq!(p.metrics.counters["test.session.events"], 3);
            assert_eq!(
                p.spans
                    .iter()
                    .filter(|s| s.name == "test.session.span")
                    .count(),
                1
            );
        }
        // After the owning session drops, recording is off and the next
        // session starts clean.
        let session = Session::begin();
        assert_eq!(
            session.profile("quick").metrics.counters["test.session.events"],
            0
        );
        assert!(!session
            .span_snapshot()
            .children
            .contains_key("test.session.span"));
    }

    #[test]
    fn nested_begin_joins_instead_of_deadlocking() {
        let outer = Session::begin();
        counter!("test.join.events").inc();
        {
            let inner = Session::begin();
            assert!(!inner.owns());
            counter!("test.join.events").inc();
            // Joining must not have reset anything.
            assert_eq!(inner.metrics_snapshot().counters["test.join.events"], 2);
        }
        // Inner drop must not have disabled recording.
        assert!(enabled());
        counter!("test.join.events").inc();
        assert_eq!(outer.metrics_snapshot().counters["test.join.events"], 3);
    }
}
