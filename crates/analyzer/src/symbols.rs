//! Workspace-wide symbol index: every parsed `fn` item keyed the ways a
//! call site can name it, plus the resolution policy that turns a
//! [`CallSite`] into candidate definitions.
//!
//! Resolution is deliberately conservative. A call resolves only when the
//! index narrows it to one definition site (same file, then same crate,
//! then workspace-unique); everything else is classified — not guessed at —
//! as *external* (no workspace symbol matches: std, shims) or *ambiguous*
//! (several match), and both counts surface in the report so unresolved
//! edges are never silently dropped. `#[cfg]`-gated duplicate items are the
//! one sanctioned multi-target case: a call to them gets an edge to every
//! gated twin.

use crate::parser::CallSite;
use std::collections::BTreeMap;

/// Globally unique function id: `(file index, fn index within file)`.
pub type FnKey = (usize, usize);

/// How one call site maps onto the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// All matching definitions (more than one only for `#[cfg]`-gated
    /// duplicates in one file).
    Resolved(Vec<FnKey>),
    /// No workspace definition matches: std, shims, generated code.
    External,
    /// Several workspace definitions match and no rule narrows them.
    Ambiguous,
}

/// Method names so pervasive in std/prelude types that dot-call resolution
/// would be guesswork; they are classified external without lookup.
const COMMON_METHODS: &[&str] = &[
    "new",
    "clone",
    "len",
    "is_empty",
    "iter",
    "into_iter",
    "next",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "contains",
    "fmt",
    "cmp",
    "partial_cmp",
    "eq",
    "ne",
    "hash",
    "default",
    "from",
    "into",
    "to_string",
    "to_owned",
    "as_str",
    "as_ref",
    "as_bytes",
    "parse",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "ok",
    "ok_or",
    "ok_or_else",
    "err",
    "take",
    "replace",
    "clear",
    "extend",
    "sort",
    "sort_by",
    "sort_by_key",
    "min",
    "max",
    "sum",
    "count",
    "zip",
    "rev",
    "chain",
    "join",
    "split",
    "trim",
    "starts_with",
    "ends_with",
    "abs",
    "sqrt",
    "lock",
    "read",
    "write",
    "send",
    "recv",
    "clamp",
    "floor",
    "ceil",
    "round",
    "powi",
    "powf",
    "exp",
    "ln",
    "finish",
    "update",
    "name",
    "kind",
    "key",
    "run",
];

/// One indexed function definition.
#[derive(Debug, Clone)]
struct Entry {
    key: FnKey,
    file_stem: String,
    crate_key: String,
}

/// The caller's context, for same-file / same-crate preference.
#[derive(Debug, Clone, Copy)]
pub struct CallCtx<'a> {
    /// Index of the calling file.
    pub file: usize,
    /// Crate key of the calling file (see [`crate_key_of`]).
    pub crate_key: &'a str,
    /// Self type of the calling fn's impl block, for `Self::helper(..)`.
    pub self_type: Option<&'a str>,
}

/// Symbol tables over every parsed workspace file.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// Free functions by bare name.
    free: BTreeMap<String, Vec<Entry>>,
    /// Impl methods by `(self type, name)`.
    methods: BTreeMap<(String, String), Vec<Entry>>,
    /// Impl methods by name alone, for dot-call resolution.
    methods_by_name: BTreeMap<String, Vec<Entry>>,
    /// Known crate keys, for import-alias mapping.
    crates: Vec<String>,
}

/// The crate key of a workspace-relative path: the directory under
/// `crates/`, or `""` for the root crate's `src/`.
#[must_use]
pub fn crate_key_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
        .to_string()
}

/// Map an import path root to a crate key: `convmeter_graph` names
/// `crates/graph`, `convmeter` names `crates/convmeter`, and the
/// `crate`/`self`/`super` keywords name the caller's own crate.
fn alias_to_crate(seg: &str, own: &str, known: &[String]) -> Option<String> {
    if matches!(seg, "crate" | "self" | "super") {
        return Some(own.to_string());
    }
    let candidate = if seg == "convmeter" {
        "convmeter"
    } else {
        seg.strip_prefix("convmeter_")?
    };
    known
        .iter()
        .any(|c| c == candidate)
        .then(|| candidate.to_string())
}

impl SymbolIndex {
    /// Record one fn definition. `stem` is the file stem (module name by
    /// convention), `self_type` the impl self type if any.
    pub fn record(
        &mut self,
        key: FnKey,
        name: &str,
        self_type: Option<&str>,
        path: &str,
        stem: &str,
    ) {
        let crate_key = crate_key_of(path);
        if !self.crates.iter().any(|c| c == &crate_key) {
            self.crates.push(crate_key.clone());
        }
        let entry = Entry {
            key,
            file_stem: stem.to_string(),
            crate_key,
        };
        match self_type {
            Some(ty) => {
                self.methods
                    .entry((ty.to_string(), name.to_string()))
                    .or_default()
                    .push(entry.clone());
                self.methods_by_name
                    .entry(name.to_string())
                    .or_default()
                    .push(entry);
            }
            None => self.free.entry(name.to_string()).or_default().push(entry),
        }
    }

    /// Resolve one call site against the index.
    #[must_use]
    pub fn resolve(&self, call: &CallSite, ctx: &CallCtx<'_>) -> Resolution {
        if call.is_method {
            return self.resolve_method(&call.name);
        }
        if let Some(qualifier) = call.path.last() {
            let qualifier = if qualifier == "Self" {
                match ctx.self_type {
                    Some(t) => t,
                    None => return Resolution::External,
                }
            } else {
                qualifier
            };
            if qualifier.chars().next().is_some_and(char::is_uppercase) {
                return self.resolve_typed(qualifier, &call.name, ctx);
            }
            return self.resolve_module_path(&call.path, &call.name, ctx);
        }
        self.resolve_bare(&call.name, ctx)
    }

    fn resolve_method(&self, name: &str) -> Resolution {
        if COMMON_METHODS.contains(&name) {
            return Resolution::External;
        }
        let Some(candidates) = self.methods_by_name.get(name) else {
            return Resolution::External;
        };
        narrow(candidates, None)
    }

    fn resolve_typed(&self, ty: &str, name: &str, ctx: &CallCtx<'_>) -> Resolution {
        let Some(candidates) = self.methods.get(&(ty.to_string(), name.to_string())) else {
            return Resolution::External;
        };
        narrow(candidates, Some(ctx.crate_key))
    }

    fn resolve_module_path(&self, path: &[String], name: &str, ctx: &CallCtx<'_>) -> Resolution {
        let Some(candidates) = self.free.get(name) else {
            return Resolution::External;
        };
        let crate_hint = path
            .first()
            .and_then(|seg| alias_to_crate(seg, ctx.crate_key, &self.crates));
        // The last path segment is a module-stem hint unless that segment
        // itself produced the crate hint (`convmeter_graph::peak`).
        let stem_hint = if path.len() > 1 || crate_hint.is_none() {
            path.last()
        } else {
            None
        };
        let mut pool: Vec<&Entry> = candidates.iter().collect();
        if let Some(ck) = &crate_hint {
            let filtered: Vec<&Entry> = pool
                .iter()
                .copied()
                .filter(|e| &e.crate_key == ck)
                .collect();
            if !filtered.is_empty() {
                pool = filtered;
            } else {
                return Resolution::External;
            }
        }
        if let Some(stem) = stem_hint {
            let filtered: Vec<&Entry> = pool
                .iter()
                .copied()
                .filter(|e| e.file_stem == **stem)
                .collect();
            // An inline `mod` block inside another file defeats the stem
            // hint; fall back to the crate-wide pool rather than dropping.
            if !filtered.is_empty() {
                pool = filtered;
            }
        }
        narrow_refs(&pool, Some(ctx.crate_key))
    }

    fn resolve_bare(&self, name: &str, ctx: &CallCtx<'_>) -> Resolution {
        let Some(candidates) = self.free.get(name) else {
            return Resolution::External;
        };
        let same_file: Vec<&Entry> = candidates.iter().filter(|e| e.key.0 == ctx.file).collect();
        if !same_file.is_empty() {
            // Several same-file, same-name items are `#[cfg]`-gated twins:
            // edge to all of them.
            return Resolution::Resolved(same_file.iter().map(|e| e.key).collect());
        }
        let same_crate: Vec<&Entry> = candidates
            .iter()
            .filter(|e| e.crate_key == ctx.crate_key)
            .collect();
        match same_crate.len() {
            1 => Resolution::Resolved(vec![same_crate[0].key]),
            0 => narrow_refs(&candidates.iter().collect::<Vec<_>>(), None),
            _ => Resolution::Ambiguous,
        }
    }
}

/// Narrow a candidate list to one definition (or cfg-twins in one file).
fn narrow(candidates: &[Entry], prefer_crate: Option<&str>) -> Resolution {
    narrow_refs(&candidates.iter().collect::<Vec<_>>(), prefer_crate)
}

fn narrow_refs(candidates: &[&Entry], prefer_crate: Option<&str>) -> Resolution {
    match candidates.len() {
        0 => Resolution::External,
        1 => Resolution::Resolved(vec![candidates[0].key]),
        _ => {
            // All in one file: cfg-gated twins — take them all.
            if candidates.iter().all(|e| e.key.0 == candidates[0].key.0) {
                return Resolution::Resolved(candidates.iter().map(|e| e.key).collect());
            }
            if let Some(ck) = prefer_crate {
                let same: Vec<&&Entry> = candidates.iter().filter(|e| e.crate_key == ck).collect();
                if same.len() == 1 {
                    return Resolution::Resolved(vec![same[0].key]);
                }
            }
            Resolution::Ambiguous
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(path: &[&str], name: &str, is_method: bool) -> CallSite {
        CallSite {
            line: 1,
            path: path.iter().map(|s| (*s).to_string()).collect(),
            name: name.to_string(),
            is_method,
            idx: 0,
            args: (0, 0),
            recv: Vec::new(),
        }
    }

    fn ctx(file: usize, crate_key: &'static str) -> CallCtx<'static> {
        CallCtx {
            file,
            crate_key,
            self_type: None,
        }
    }

    fn index() -> SymbolIndex {
        let mut ix = SymbolIndex::default();
        ix.record(
            (0, 0),
            "peak",
            None,
            "crates/graph/src/liveness.rs",
            "liveness",
        );
        ix.record(
            (1, 0),
            "of",
            Some("ModelMetrics"),
            "crates/metrics/src/model.rs",
            "model",
        );
        ix.record(
            (2, 0),
            "run_ordered",
            None,
            "crates/bench/src/engine/pool.rs",
            "pool",
        );
        ix.record((3, 0), "helper", None, "crates/graph/src/graph.rs", "graph");
        ix.record((3, 1), "helper", None, "crates/graph/src/graph.rs", "graph");
        ix.record((4, 0), "helper", None, "crates/hwsim/src/sweep.rs", "sweep");
        ix
    }

    #[test]
    fn crate_alias_and_stem_paths_resolve() {
        let ix = index();
        let r = ix.resolve(
            &call(&["convmeter_graph", "liveness"], "peak", false),
            &ctx(9, "metrics"),
        );
        assert_eq!(r, Resolution::Resolved(vec![(0, 0)]));
        let r = ix.resolve(&call(&["pool"], "run_ordered", false), &ctx(9, "bench"));
        assert_eq!(r, Resolution::Resolved(vec![(2, 0)]));
    }

    #[test]
    fn type_qualified_methods_resolve() {
        let ix = index();
        let r = ix.resolve(&call(&["ModelMetrics"], "of", false), &ctx(9, "hwsim"));
        assert_eq!(r, Resolution::Resolved(vec![(1, 0)]));
    }

    #[test]
    fn dot_calls_on_common_std_names_are_external() {
        let ix = index();
        assert_eq!(
            ix.resolve(&call(&[], "clone", true), &ctx(9, "graph")),
            Resolution::External
        );
        // A workspace-unique method name resolves.
        assert_eq!(
            ix.resolve(&call(&[], "of", true), &ctx(9, "graph")),
            Resolution::Resolved(vec![(1, 0)])
        );
    }

    #[test]
    fn cfg_twins_resolve_to_every_gated_item() {
        let ix = index();
        let r = ix.resolve(&call(&[], "helper", false), &ctx(3, "graph"));
        assert_eq!(r, Resolution::Resolved(vec![(3, 0), (3, 1)]));
    }

    #[test]
    fn cross_crate_same_name_without_qualifier_is_ambiguous_not_guessed() {
        let ix = index();
        let r = ix.resolve(&call(&[], "helper", false), &ctx(9, "metrics"));
        assert_eq!(r, Resolution::Ambiguous);
        // Unknown names are external.
        assert_eq!(
            ix.resolve(&call(&[], "nonexistent", false), &ctx(9, "metrics")),
            Resolution::External
        );
    }
}
