//! CB lock-discipline rules: a lock-region analysis over the def-use
//! scaffolding in `dataflow`.
//!
//! | code | violation |
//! |------|-----------|
//! | CB0001 | a guard is held across a *directly* blocking operation (socket accept/read/write, channel recv, file I/O, `pool::run_ordered`, sleeps — and telemetry macros, whose cold path takes the metrics-registry mutex) |
//! | CB0002 | a guard is held across a call to a workspace fn that may block *transitively* (per a bottom-up may-block summary; the finding names the concrete blocking call) |
//! | CB0003 | lock-order inversion: two guards are acquired in order (A, B) at one site and (B, A) at another within the same crate |
//!
//! A *lock region* runs from an acquisition (`.lock()`, zero-argument
//! `.read()`/`.write()`, or a call to a guard-returning helper like
//! `lock_jobs`) to the guard's death: `drop(guard)`, a condvar
//! `wait`/`wait_timeout` consuming it (waits release the lock — they end
//! the region and are exempt themselves), or the end of the enclosing
//! block. A lock chain that keeps calling past the guard (e.g.
//! `m.lock().unwrap().len()`) is a statement-long temporary region.
//! Guards over stdout/stderr/stdin are exempt: writing under them is the
//! point.

use crate::callgraph::FileAnalysis;
use crate::dataflow::{self, Resolver};
use crate::lexer::{Token, TokenKind};
use crate::parser::{CallSite, FnDef};
use crate::symbols::crate_key_of;
use crate::Finding;
use std::collections::BTreeMap;

/// Zero-argument methods that block the calling thread.
const BLOCKING_METHODS_0: &[&str] = &["accept", "recv", "flush", "join"];
/// Argument-taking methods that block the calling thread.
const BLOCKING_METHODS_N: &[&str] = &[
    "recv_timeout",
    "recv_deadline",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "write_all",
];
/// Path-qualified free/associated calls that block: `(path tail, name)`,
/// with `"*"` matching any name.
const BLOCKING_PATHS: &[(&str, &str)] = &[
    ("thread", "sleep"),
    ("fs", "*"),
    ("File", "open"),
    ("File", "create"),
    ("TcpListener", "bind"),
    ("TcpStream", "connect"),
];
/// Workspace pool entry point: it runs closures on worker threads and
/// block until the batch drains.
const BLOCKING_BARE: &[&str] = &["run_ordered"];
/// Telemetry macros: the per-callsite handle is a `OnceLock` whose cold
/// path interns through the metrics-registry mutex.
const TELEMETRY_MACROS: &[&str] = &["counter", "gauge", "histogram"];
/// Methods that merely unwrap a poisoned-lock result: a chain ending in
/// these still yields a *named* guard when let-bound.
const GUARD_TRAILERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];
/// Condvar waits: they atomically release the consumed guard.
const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout", "wait_while"];
/// Receivers whose lock is *for* serialized blocking writes.
const EXEMPT_RECEIVERS: &[&str] = &["stdout", "stderr", "stdin"];

/// One lock acquisition and the region its guard lives in.
struct LockRegion {
    /// Display label: the locked field/helper target (`jobs`, `cache`).
    label: String,
    /// 1-based line of the acquisition.
    line: u32,
    /// Code-token region (exclusive bounds) the guard is live in.
    start: usize,
    end: usize,
    /// Whether the guard is let-bound (named regions host CB0003 pairs).
    named: bool,
}

/// A blocking operation found inside a region.
struct BlockingOp {
    idx: usize,
    line: u32,
    what: String,
}

/// Run the CB family over every parsed file, appending findings.
pub fn cb_rules(files: &[FileAnalysis], out: &mut Vec<Finding>) {
    let resolver = Resolver::build(files);
    let helper_labels = guard_helper_labels(files, &resolver);
    let may_block = may_block_summaries(files, &resolver);

    // (crate-qualified first label, second label) -> first observed site.
    let mut pairs: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();

    for (fi, fa) in files.iter().enumerate() {
        for f in &fa.parsed.fns {
            if fa.file.in_test_region(f.line) {
                continue;
            }
            let toks = code_toks(fa);
            let regions = lock_regions(&toks, files, fi, f, &resolver, &helper_labels);
            for region in &regions {
                // CB0001: direct blocking operations under the guard.
                for op in blocking_ops(&toks, f, region) {
                    out.push(Finding::new(
                        "CB0001",
                        &fa.file,
                        op.line,
                        format!(
                            "guard `{}` (acquired line {}) is held across blocking {}; \
                             move the operation outside the critical section or drop \
                             the guard first",
                            region.label, region.line, op.what
                        ),
                    ));
                }
                // CB0002: calls into workspace fns that may block.
                for call in &f.calls {
                    if !(region.start < call.idx && call.idx < region.end) {
                        continue;
                    }
                    if is_blocking_call(call) {
                        continue; // already a CB0001
                    }
                    let Some(route) = resolver
                        .resolve(files, fi, f, call)
                        .into_iter()
                        .find_map(|n| may_block[n].clone())
                    else {
                        continue;
                    };
                    out.push(Finding::new(
                        "CB0002",
                        &fa.file,
                        call.line,
                        format!(
                            "guard `{}` (acquired line {}) is held across {}(), \
                             which may block: {}; hoist the call out of the \
                             critical section",
                            region.label,
                            region.line,
                            call.name,
                            route.join(" -> ")
                        ),
                    ));
                }
                // CB0003 pair collection: second acquisitions inside a
                // named region, keyed within the acquiring crate.
                if region.named {
                    for inner in &regions {
                        if inner.start > region.start
                            && inner.start < region.end
                            && inner.label != region.label
                        {
                            let crate_key = crate_key_of(&fa.file.path);
                            pairs
                                .entry((
                                    format!("{crate_key}:{}", region.label),
                                    format!("{crate_key}:{}", inner.label),
                                ))
                                .or_insert((fa.file.path.clone(), inner.line));
                        }
                    }
                }
            }
        }
    }

    // CB0003: emit one finding per inverted pair, at the
    // lexicographically-greater ordering's site.
    for ((a, b), (path, line)) in &pairs {
        if a <= b {
            continue;
        }
        let Some((other_path, other_line)) = pairs.get(&(b.clone(), a.clone())) else {
            continue;
        };
        let strip = |q: &str| q.split(':').nth(1).unwrap_or(q).to_string();
        out.push(Finding {
            code: "CB0003".to_string(),
            path: path.clone(),
            line: *line,
            message: format!(
                "lock-order inversion: `{}` is acquired while holding `{}` here, \
                 but {}:{} acquires `{}` while holding `{}`; pick one acquisition \
                 order",
                strip(b),
                strip(a),
                other_path,
                other_line,
                strip(a),
                strip(b)
            ),
        });
    }
}

fn code_toks(fa: &FileAnalysis) -> Vec<&Token> {
    fa.parsed.code.iter().map(|&i| &fa.file.tokens[i]).collect()
}

/// Is this call site a *direct* lock acquisition? Returns its label.
fn direct_acquisition(call: &CallSite) -> Option<String> {
    if !call.is_method {
        return None;
    }
    let zero_arg = call.args.0 + 1 == call.args.1;
    let acquires = match call.name.as_str() {
        "lock" => zero_arg,
        "read" | "write" => zero_arg,
        _ => false,
    };
    if !acquires {
        return None;
    }
    let stripped: Vec<&str> = call
        .recv
        .iter()
        .map(|r| r.strip_suffix("()").unwrap_or(r))
        .collect();
    if stripped.iter().any(|r| EXEMPT_RECEIVERS.contains(r)) {
        return None;
    }
    Some(
        stripped
            .iter()
            .rev()
            .find(|r| **r != "self")
            .map_or_else(|| format!("<{}>", call.name), |r| (*r).to_string()),
    )
}

/// Where a call chain starting after `close` stops, skipping poison
/// trailers (`.unwrap()`, `.expect(..)`, `.unwrap_or_else(..)`).
fn chain_end_after_trailers(toks: &[&Token], close: usize, limit: usize) -> usize {
    let mut j = close;
    loop {
        if toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(j + 2).is_some_and(|t| {
                t.kind == TokenKind::Ident && GUARD_TRAILERS.contains(&t.text.as_str())
            })
            && toks.get(j + 3).is_some_and(|t| t.is_punct('('))
        {
            j = dataflow::matching_delim(toks, j + 3, limit);
            continue;
        }
        return j;
    }
}

/// Whether the chain ends the statement there — i.e. the expression's
/// value *is* the guard, not something derived from it.
fn chain_yields_guard(toks: &[&Token], close: usize, stmt_end: usize) -> bool {
    let j = chain_end_after_trailers(toks, close, stmt_end);
    j >= stmt_end && !toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
}

/// Labels of guard-returning helpers: fns whose tail expression is a lock
/// chain (`fn lock_jobs(&self) -> MutexGuard<..> { self.jobs.lock()... }`).
/// A tail that keeps calling *past* the guard (`..lock().unwrap().len()`)
/// returns a derived value, not the guard. Indexed like `resolver.nodes`.
fn guard_helper_labels(files: &[FileAnalysis], resolver: &Resolver) -> Vec<Option<String>> {
    let mut labels: Vec<Option<String>> = vec![None; resolver.nodes.len()];
    // Two passes let a helper wrap another helper.
    for _pass in 0..2 {
        for (n, &(fi, ki)) in resolver.nodes.iter().enumerate() {
            if labels[n].is_some() {
                continue;
            }
            let fa = &files[fi];
            let f = &fa.parsed.fns[ki];
            let toks = code_toks(fa);
            let stmts = dataflow::statements(&toks, f.body);
            let Some(tail) = stmts.iter().find(|s| s.is_tail) else {
                continue;
            };
            labels[n] = f
                .calls
                .iter()
                .filter(|c| {
                    (tail.range.0..=tail.range.1).contains(&c.idx)
                        && chain_yields_guard(&toks, c.args.1, tail.range.1)
                })
                .find_map(|c| {
                    direct_acquisition(c).or_else(|| {
                        resolver
                            .resolve(files, fi, f, c)
                            .into_iter()
                            .find_map(|m| labels[m].clone())
                    })
                });
        }
    }
    labels
}

/// Whether a call site matches the direct blocking tables.
fn is_blocking_call(call: &CallSite) -> bool {
    let zero_arg = call.args.0 + 1 == call.args.1;
    if call.is_method {
        if BLOCKING_METHODS_0.contains(&call.name.as_str()) && zero_arg {
            return true;
        }
        if BLOCKING_METHODS_N.contains(&call.name.as_str()) {
            return true;
        }
    }
    if let Some(tail) = call.path.last() {
        if BLOCKING_PATHS
            .iter()
            .any(|(p, n)| p == tail && (*n == "*" || n == &call.name))
        {
            return true;
        }
    }
    BLOCKING_BARE.contains(&call.name.as_str())
}

/// Diagnostic label for a blocking call.
fn blocking_what(call: &CallSite) -> String {
    let qual = call
        .path
        .last()
        .map(|p| format!("{p}::"))
        .unwrap_or_default();
    format!("{}{}() (line {})", qual, call.name, call.line)
}

/// Bottom-up may-block summaries: `Some(route)` when the fn directly
/// performs a blocking operation or (transitively) calls one that does.
/// Telemetry macros count — their cold path takes the registry mutex.
fn may_block_summaries(files: &[FileAnalysis], resolver: &Resolver) -> Vec<Option<Vec<String>>> {
    let mut summaries: Vec<Option<Vec<String>>> = vec![None; resolver.nodes.len()];
    // Seed: direct blocking ops.
    for (n, &(fi, ki)) in resolver.nodes.iter().enumerate() {
        let f = &files[fi].parsed.fns[ki];
        if let Some(call) = f.calls.iter().find(|c| is_blocking_call(c)) {
            summaries[n] = Some(vec![format!(
                "{} in {}",
                blocking_what(call),
                f.qualified_name()
            )]);
        } else if let Some(m) = f
            .macros
            .iter()
            .find(|m| TELEMETRY_MACROS.contains(&m.name.as_str()))
        {
            summaries[n] = Some(vec![format!(
                "{}!(..) registry access (line {}) in {}",
                m.name,
                m.line,
                f.qualified_name()
            )]);
        }
    }
    // Propagate through resolved calls, bounding route length.
    for _pass in 0..8 {
        let mut changed = false;
        for (n, &(fi, ki)) in resolver.nodes.iter().enumerate() {
            if summaries[n].is_some() {
                continue;
            }
            let f = &files[fi].parsed.fns[ki];
            let hit = f.calls.iter().find_map(|c| {
                resolver
                    .resolve(files, fi, f, c)
                    .into_iter()
                    .find_map(|m| summaries[m].as_ref().map(|r| (c, r.clone())))
            });
            if let Some((call, mut route)) = hit {
                route.truncate(5);
                route.insert(0, format!("{}() (line {})", call.name, call.line));
                summaries[n] = Some(route);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    summaries
}

/// Every lock region in one fn body.
fn lock_regions(
    toks: &[&Token],
    files: &[FileAnalysis],
    fi: usize,
    f: &FnDef,
    resolver: &Resolver,
    helper_labels: &[Option<String>],
) -> Vec<LockRegion> {
    let stmts = dataflow::statements(toks, f.body);
    let mut out = Vec::new();
    for call in &f.calls {
        let label = direct_acquisition(call).or_else(|| {
            resolver
                .resolve(files, fi, f, call)
                .into_iter()
                .find_map(|n| helper_labels[n].clone())
        });
        let Some(label) = label else {
            continue;
        };
        let Some(stmt) = stmts
            .iter()
            .find(|s| (s.range.0..=s.range.1).contains(&call.idx))
        else {
            continue;
        };
        // Does the chain end the statement (modulo poison trailers)? Then
        // the let/assign target is a live guard; otherwise the guard is a
        // statement-long temporary.
        let chain_ends_stmt = chain_yields_guard(toks, call.args.1, stmt.range.1);
        let target = stmt
            .binders
            .first()
            .cloned()
            .or_else(|| stmt.assign.clone());
        if let (true, Some(name)) = (chain_ends_stmt, target) {
            let end = region_end(toks, &name, stmt.range.1 + 1, f.body.1);
            out.push(LockRegion {
                label,
                line: call.line,
                start: call.args.1,
                end,
                named: true,
            });
        } else {
            out.push(LockRegion {
                label,
                line: call.line,
                start: call.args.1,
                end: stmt.range.1 + 1,
                named: false,
            });
        }
    }
    out
}

/// Where the named guard dies: `drop(name)`, a condvar wait consuming it,
/// or the end of the enclosing block.
fn region_end(toks: &[&Token], name: &str, from: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j <= limit && j < toks.len() {
        let t = toks[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if t.is_ident("drop")
            && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(j + 2).is_some_and(|n| n.is_ident(name))
            && toks.get(j + 3).is_some_and(|n| n.is_punct(')'))
        {
            return j;
        } else if t.kind == TokenKind::Ident
            && CONDVAR_WAITS.contains(&t.text.as_str())
            && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
        {
            // First argument is the guard, possibly behind `&mut`.
            let mut a = j + 2;
            while toks
                .get(a)
                .is_some_and(|n| n.is_punct('&') || n.is_ident("mut"))
            {
                a += 1;
            }
            if toks.get(a).is_some_and(|n| n.is_ident(name)) {
                return j;
            }
        }
        j += 1;
    }
    limit
}

/// Direct blocking operations inside a region (calls and telemetry
/// macros), for CB0001.
fn blocking_ops(toks: &[&Token], f: &FnDef, region: &LockRegion) -> Vec<BlockingOp> {
    let mut out: Vec<BlockingOp> = f
        .calls
        .iter()
        .filter(|c| region.start < c.idx && c.idx < region.end && is_blocking_call(c))
        .map(|c| BlockingOp {
            idx: c.idx,
            line: c.line,
            what: blocking_what(c),
        })
        .collect();
    for m in &f.macros {
        if TELEMETRY_MACROS.contains(&m.name.as_str())
            && region.start < m.idx
            && m.idx < region.end
            // A handle *read* (`.get()`-family) is CD0003's business, not
            // a lock hazard worth a second finding.
            && !{
                let close = dataflow::matching_delim(toks, m.idx + 2, f.body.1);
                toks.get(close + 1).is_some_and(|t| t.is_punct('.'))
                    && toks.get(close + 2).is_some_and(|t| {
                        matches!(t.text.as_str(), "get" | "value" | "snapshot")
                    })
            }
        {
            out.push(BlockingOp {
                idx: m.idx,
                line: m.line,
                what: format!(
                    "{}!(..) telemetry update (line {}) — its cold path interns \
                     through the metrics-registry mutex",
                    m.name, m.line
                ),
            });
        }
    }
    out.sort_by_key(|o| o.idx);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::FileAnalysis;

    fn findings(src: &str) -> Vec<Finding> {
        let files = vec![FileAnalysis::parse("crates/x/src/lib.rs", src)];
        let mut out = Vec::new();
        cb_rules(&files, &mut out);
        out
    }

    #[test]
    fn guard_across_accept_is_exactly_one_finding_naming_accept() {
        let out = findings(
            "pub fn serve(state: &State, listener: &TcpListener) {\n\
                 let guard = state.conns.lock().unwrap();\n\
                 let (sock, _peer) = listener.accept().unwrap();\n\
                 register(guard, sock);\n\
             }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "CB0001");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("accept()"), "{}", out[0].message);
        assert!(
            out[0].message.contains("guard `conns`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn dropping_the_guard_before_blocking_is_clean() {
        let out = findings(
            "pub fn serve(state: &State, listener: &TcpListener) {\n\
                 let guard = state.conns.lock().unwrap();\n\
                 let n = guard.len();\n\
                 drop(guard);\n\
                 let (sock, _peer) = listener.accept().unwrap();\n\
                 register(n, sock);\n\
             }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn temporary_lock_chain_does_not_extend_past_its_statement() {
        let out = findings(
            "pub fn depth(state: &State, rx: &Receiver<u32>) -> u32 {\n\
                 let d = state.jobs.lock().unwrap().len() as u32;\n\
                 let _item = rx.recv().unwrap();\n\
                 d\n\
             }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn condvar_wait_consuming_the_guard_ends_the_region_and_is_exempt() {
        let out = findings(
            "pub fn wait_for_work(q: &Queue) {\n\
                 let jobs = q.jobs.lock().unwrap();\n\
                 let jobs = q.available.wait(jobs).unwrap();\n\
                 drop(jobs);\n\
             }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn telemetry_macro_under_guard_is_cb0001() {
        let out = findings(
            "pub fn pop(q: &Queue) -> Option<Job> {\n\
                 let mut jobs = q.jobs.lock().unwrap();\n\
                 let job = jobs.pop_front();\n\
                 gauge!(\"q.depth\").set(jobs.len() as i64);\n\
                 job\n\
             }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "CB0001");
        assert!(out[0].message.contains("gauge!"), "{}", out[0].message);
    }

    #[test]
    fn guard_returning_helper_is_an_acquisition_at_the_call_site() {
        let out = findings(
            "impl Queue {\n\
                 fn lock_jobs(&self) -> MutexGuard<'_, VecDeque<Job>> {\n\
                     self.jobs.lock().unwrap_or_else(PoisonError::into_inner)\n\
                 }\n\
                 pub fn drain_to_disk(&self, f: &mut File) {\n\
                     let jobs = self.lock_jobs();\n\
                     f.write_all(render(&jobs)).unwrap();\n\
                 }\n\
             }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "CB0001");
        assert!(
            out[0].message.contains("guard `jobs`"),
            "{}",
            out[0].message
        );
        assert!(out[0].message.contains("write_all()"), "{}", out[0].message);
    }

    #[test]
    fn transitive_blocking_callee_is_cb0002_with_route() {
        let out = findings(
            "fn persist(p: &Path, s: &str) { fs::write(p, s).unwrap(); }\n\
             pub fn checkpoint(state: &State, p: &Path) {\n\
                 let snap = state.inner.lock().unwrap();\n\
                 persist(p, &render(&snap));\n\
             }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "CB0002");
        assert!(out[0].message.contains("persist()"), "{}", out[0].message);
        assert!(out[0].message.contains("fs::write()"), "{}", out[0].message);
    }

    #[test]
    fn lock_order_inversion_is_one_cb0003_finding() {
        let out = findings(
            "pub fn ab(s: &State) {\n\
                 let a = s.alpha.lock().unwrap();\n\
                 let b = s.beta.lock().unwrap();\n\
                 use_both(a, b);\n\
             }\n\
             pub fn ba(s: &State) {\n\
                 let b = s.beta.lock().unwrap();\n\
                 let a = s.alpha.lock().unwrap();\n\
                 use_both(a, b);\n\
             }\n",
        );
        let cb3: Vec<&Finding> = out.iter().filter(|f| f.code == "CB0003").collect();
        assert_eq!(cb3.len(), 1, "{out:?}");
        assert!(cb3[0].message.contains("`alpha`"), "{}", cb3[0].message);
        assert!(cb3[0].message.contains("`beta`"), "{}", cb3[0].message);
    }

    #[test]
    fn consistent_lock_order_at_two_sites_is_clean() {
        let out = findings(
            "pub fn one(s: &State) {\n\
                 let a = s.alpha.lock().unwrap();\n\
                 let b = s.beta.lock().unwrap();\n\
                 use_both(a, b);\n\
             }\n\
             pub fn two(s: &State) {\n\
                 let a = s.alpha.lock().unwrap();\n\
                 let b = s.beta.lock().unwrap();\n\
                 use_both(a, b);\n\
             }\n",
        );
        assert!(out.iter().all(|f| f.code != "CB0003"), "{out:?}");
    }

    #[test]
    fn stdout_lock_is_exempt() {
        let out = findings(
            "pub fn dump(lines: &[String]) {\n\
                 let stdout = std::io::stdout();\n\
                 let mut out = stdout.lock();\n\
                 for l in lines { out.write_all(l.as_bytes()).unwrap(); }\n\
                 out.flush().unwrap();\n\
             }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
