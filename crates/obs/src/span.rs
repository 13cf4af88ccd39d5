//! RAII span tracing with thread-local nesting and an amortised-lock sink.
//!
//! A [`Span`] guard marks one timed region. Guards nest through a
//! thread-local stack, so a span opened while another is active becomes its
//! child in the aggregated tree. Completed spans accumulate into a
//! *thread-local* tree first; the global sink's mutex is only taken when a
//! thread's outermost span closes, so hot paths never contend on a lock
//! per span ("lock-free-ish": the common case is two `Instant` reads and a
//! thread-local map update).
//!
//! Worker threads can *adopt* a caller's open span path
//! ([`current_path`] on the caller, [`adopt`] on the worker): the worker's
//! spans then nest under the caller's in the aggregated tree instead of
//! landing at its root. `convmeter_pool::run_ordered` does this for every
//! worker it spawns, nested pools included, so a parallel run aggregates
//! into the same tree as a sequential one.
//!
//! Spans close on panic unwinding too — the guard's `Drop` runs during
//! unwind — so a panicking experiment still reports the time it spent.
//!
//! Tracing is off by default ([`enabled`] returns `false` and guards are
//! no-ops); an [`crate::Session`] switches it on for its lifetime. A
//! generation counter ties every guard to the session that opened it:
//! guards that outlive their session are discarded instead of leaking into
//! the next one.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Span names are `'static` in the hot paths; owned strings are accepted
/// for dynamic labels like `experiment:table1`.
pub type SpanName = Cow<'static, str>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<SpanAgg> = Mutex::new(SpanAgg::new());

/// Whether a tracing session is active. Callers may use this to skip
/// building dynamic span names when nobody is listening.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub(crate) fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Start a new generation and clear the global sink. Called by
/// [`crate::Session::begin`]; spans still open at this point belong to the
/// previous generation and will be discarded when they close.
pub(crate) fn reset() {
    GENERATION.fetch_add(1, Ordering::SeqCst);
    lock_sink().children.clear();
}

fn lock_sink() -> std::sync::MutexGuard<'static, SpanAgg> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One node of the aggregated span tree: how often a span path ran and how
/// long it took in total. The root node is synthetic (count 0) and only
/// carries children.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Completions of this exact span path.
    pub count: u64,
    /// Summed wall time across completions.
    pub total: Duration,
    /// Child spans, by name.
    pub children: BTreeMap<SpanName, SpanAgg>,
}

impl SpanAgg {
    const fn new() -> Self {
        SpanAgg {
            count: 0,
            total: Duration::ZERO,
            children: BTreeMap::new(),
        }
    }

    /// Wall time not attributed to any child, saturating at zero (children
    /// on other threads can exceed the parent's own wall time).
    pub fn self_time(&self) -> Duration {
        let children: Duration = self.children.values().map(|c| c.total).sum();
        self.total.saturating_sub(children)
    }

    fn merge_from(&mut self, other: SpanAgg) {
        self.count += other.count;
        self.total += other.total;
        for (name, child) in other.children {
            self.children.entry(name).or_default().merge_from(child);
        }
    }

    /// Depth-first search for the first node named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanAgg> {
        if let Some(hit) = self.children.get(name) {
            return Some(hit);
        }
        self.children.values().find_map(|c| c.find(name))
    }
}

impl Default for SpanAgg {
    fn default() -> Self {
        SpanAgg::new()
    }
}

struct LocalState {
    generation: u64,
    root: SpanAgg,
    /// Adopted ancestry ([`adopt`]): spans on this thread nest under it.
    base: Vec<SpanName>,
    stack: Vec<(SpanName, Instant)>,
}

impl LocalState {
    /// Drop everything recorded for an older session and join `generation`.
    fn rebase(&mut self, generation: u64) {
        self.generation = generation;
        self.root = SpanAgg::new();
        self.base.clear();
        self.stack.clear();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalState> = const {
        RefCell::new(LocalState {
            generation: 0,
            root: SpanAgg::new(),
            base: Vec::new(),
            stack: Vec::new(),
        })
    };
}

/// The span ancestry open on one thread, for another thread to [`adopt`].
#[derive(Debug, Clone, Default)]
pub struct SpanPath {
    generation: u64,
    names: Vec<SpanName>,
}

/// The calling thread's open span path, outermost first, including any
/// path the thread itself adopted (so nested pools nest all the way down).
/// Empty when tracing is off.
pub fn current_path() -> SpanPath {
    if !enabled() {
        return SpanPath::default();
    }
    let generation = GENERATION.load(Ordering::SeqCst);
    LOCAL.with(|local| {
        let local = local.borrow();
        if local.generation != generation {
            return SpanPath::default();
        }
        SpanPath {
            generation,
            names: local
                .base
                .iter()
                .chain(local.stack.iter().map(|(name, _)| name))
                // analyzer:allow(CP0002, reason = "once per pool fan-out: copies the caller's few open span names for its workers to adopt")
                .cloned()
                .collect(),
        }
    })
}

/// Nest every span this thread opens, until the returned guard drops,
/// under `path` (taken by [`current_path`] on another thread). Call it with
/// no span open on this thread — a pool worker right after it starts.
pub fn adopt(path: &SpanPath) -> Adoption {
    if path.names.is_empty() {
        return Adoption { previous: None };
    }
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if local.generation != path.generation {
            local.rebase(path.generation);
        }
        Adoption {
            previous: Some(std::mem::replace(&mut local.base, path.names.clone())),
        }
    })
}

/// Guard returned by [`adopt`]; restores the thread's previous ancestry.
#[must_use = "the adopted path only holds while the guard is alive"]
pub struct Adoption {
    previous: Option<Vec<SpanName>>,
}

impl Drop for Adoption {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            LOCAL.with(|local| local.borrow_mut().base = previous);
        }
    }
}

/// Open a span. Drop the returned guard to close it; use [`crate::span!`]
/// for the cached-literal form. A no-op when tracing is disabled.
pub fn span(name: impl Into<SpanName>) -> Span {
    if !enabled() {
        return Span { generation: None };
    }
    let generation = GENERATION.load(Ordering::SeqCst);
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if local.generation != generation {
            // A new session started since this thread last traced: drop
            // everything accumulated for the old one.
            local.rebase(generation);
        }
        local.stack.push((name.into(), crate::clock::now()));
    });
    Span {
        generation: Some(generation),
    }
}

/// RAII guard for one span. Closing order is enforced by scoping: the guard
/// for an inner span must drop before its parent's (Rust's drop order for
/// locals guarantees this for the `let _guard = span(..)` idiom).
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    /// Generation the span was opened under; `None` for disabled no-ops.
    generation: Option<u64>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(generation) = self.generation else {
            return;
        };
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            if local.generation != generation {
                // The session this span belonged to is gone.
                return;
            }
            let Some((name, started)) = local.stack.pop() else {
                return;
            };
            let elapsed = started.elapsed();
            // Walk the local tree along the adopted and the still-open
            // ancestry, then the closing span's own name.
            let LocalState {
                root, base, stack, ..
            } = &mut *local;
            let ancestry = base.iter().chain(stack.iter().map(|(n, _)| n));
            let mut node = &mut *root;
            for ancestor in ancestry {
                node = node.children.entry(ancestor.clone()).or_default();
            }
            let leaf = node.children.entry(name).or_default();
            leaf.count += 1;
            leaf.total += elapsed;
            if stack.is_empty() {
                // Outermost span closed: publish this thread's tree in one
                // locked merge and start fresh. Adopted ancestors travel as
                // zero-count nodes; the caller's own spans fill them in.
                let tree = std::mem::take(root);
                if GENERATION.load(Ordering::SeqCst) == generation {
                    lock_sink().merge_from(tree);
                }
            }
        });
    }
}

/// Clone the aggregated global tree. Only *closed* outermost spans are
/// visible; take snapshots after joining worker threads and dropping the
/// root guard.
pub fn snapshot() -> SpanAgg {
    lock_sink().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    #[test]
    fn spans_nest_and_aggregate() {
        let session = Session::begin();
        {
            let _root = span("root");
            for _ in 0..3 {
                let _child = span("child");
                let _grand = span("grand");
            }
            let _other = span("sibling");
        }
        let snap = session.span_snapshot();
        let root = snap.children.get("root").expect("root recorded");
        assert_eq!(root.count, 1);
        let child = root.children.get("child").expect("child recorded");
        assert_eq!(child.count, 3);
        assert_eq!(child.children.get("grand").unwrap().count, 3);
        assert_eq!(root.children.get("sibling").unwrap().count, 1);
        assert!(root.total >= child.total);
        assert!(root.self_time() <= root.total);
    }

    #[test]
    fn disabled_spans_are_noops() {
        // No session: nothing may be recorded.
        {
            let _g = span("orphan");
        }
        let session = Session::begin();
        let snap = session.span_snapshot();
        assert!(!snap.children.contains_key("orphan"));
    }

    #[test]
    fn panic_unwind_closes_spans() {
        let session = Session::begin();
        let result = std::panic::catch_unwind(|| {
            let _outer = span("unwind_outer");
            let _inner = span("unwind_inner");
            panic!("boom");
        });
        assert!(result.is_err());
        // Both spans closed during unwind and flushed at depth zero.
        let snap = session.span_snapshot();
        let outer = snap.children.get("unwind_outer").expect("outer flushed");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.children.get("unwind_inner").unwrap().count, 1);
        // The thread-local stack is clean: a fresh span roots at top level.
        {
            let _g = span("after_unwind");
        }
        let snap = session.span_snapshot();
        assert_eq!(snap.children.get("after_unwind").unwrap().count, 1);
    }

    #[test]
    fn worker_thread_spans_merge_into_the_sink() {
        let session = Session::begin();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _g = span("worker");
                    let _inner = span("worker_inner");
                });
            }
        });
        let snap = session.span_snapshot();
        let worker = snap.children.get("worker").expect("workers flushed");
        assert_eq!(worker.count, 4);
        assert_eq!(worker.children.get("worker_inner").unwrap().count, 4);
    }

    #[test]
    fn adopted_paths_nest_nested_worker_spans_under_the_caller() {
        let session = Session::begin();
        {
            let _outer = span("adopt.outer");
            let caller = current_path();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _adopted = adopt(&caller);
                        let _inner = span("adopt.inner");
                        // A pool inside a worker: its path must carry the
                        // adopted ancestry, not just the worker's own stack.
                        let worker = current_path();
                        std::thread::scope(|scope| {
                            for _ in 0..2 {
                                scope.spawn(|| {
                                    let _adopted = adopt(&worker);
                                    let _leaf = span("adopt.leaf");
                                });
                            }
                        });
                    });
                }
            });
        }
        let snap = session.span_snapshot();
        let roots: Vec<&str> = snap
            .children
            .keys()
            .map(std::convert::AsRef::as_ref)
            .filter(|k| k.starts_with("adopt."))
            .collect();
        assert_eq!(roots, ["adopt.outer"], "stray root nodes");
        let outer = &snap.children["adopt.outer"];
        assert_eq!(outer.count, 1);
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children["adopt.inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.children.len(), 1);
        let leaf = &inner.children["adopt.leaf"];
        assert_eq!(leaf.count, 4);
        assert!(leaf.children.is_empty());
    }

    #[test]
    fn adoption_ends_with_its_guard() {
        let session = Session::begin();
        let caller = {
            let _outer = span("adopt_end.outer");
            current_path()
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                {
                    let _adopted = adopt(&caller);
                    let _g = span("adopt_end.adopted");
                }
                let _g = span("adopt_end.free");
            });
        });
        let snap = session.span_snapshot();
        let outer = &snap.children["adopt_end.outer"];
        assert_eq!(outer.children["adopt_end.adopted"].count, 1);
        assert_eq!(snap.children["adopt_end.free"].count, 1);
    }

    #[test]
    fn find_locates_nested_nodes() {
        let session = Session::begin();
        {
            let _a = span("find_a");
            let _b = span("find_b");
            let _c = span("find_c");
        }
        let snap = session.span_snapshot();
        assert!(snap.find("find_c").is_some());
        assert!(snap.find("find_missing").is_none());
    }
}
