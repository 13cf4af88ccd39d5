//! Workspace call graph over the parsed `fn` items, with the two
//! reachability queries the interprocedural rules need: which functions a
//! *public library API* can reach (CA0007 panic-reachability), and which
//! functions a `span!`-instrumented function can reach (CP hot-path
//! propagation).
//!
//! Unresolved edges are counted, not dropped: the report carries how many
//! call sites resolved, how many were external (std/shims), and how many
//! were ambiguous, plus the ambiguous callee names — so the graph is
//! honest about its own coverage.

use crate::source::SourceFile;
use crate::symbols::{crate_key_of, CallCtx, FnKey, Resolution, SymbolIndex};
use serde::Serialize;
use std::collections::BTreeMap;

/// Coverage accounting for the resolver, serialised into the report.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CallGraphStats {
    /// Function items in the graph (test regions excluded).
    pub functions: usize,
    /// Public library API functions (the CA0007 roots).
    pub public_apis: usize,
    /// Functions reachable from a `span!` seed (the CP hot set).
    pub hot_functions: usize,
    /// Call sites that resolved to at least one workspace definition.
    pub calls_resolved: usize,
    /// Call sites with no matching workspace definition (std, shims).
    pub calls_external: usize,
    /// Call sites matching several definitions with no narrowing rule.
    pub calls_ambiguous: usize,
    /// Ambiguous callee names and their occurrence counts.
    pub ambiguous_names: BTreeMap<String, usize>,
}

/// One analysed file: the lexed source plus its parsed items. Built per
/// file, combined by the workspace passes.
pub struct FileAnalysis {
    /// Lexed and allow-annotated source.
    pub file: SourceFile,
    /// Item-level parse of the same token stream.
    pub parsed: crate::parser::ParsedFile,
}

impl FileAnalysis {
    /// Lex and parse one file; it depends on nothing but the file itself.
    #[must_use]
    pub fn parse(path: &str, content: &str) -> FileAnalysis {
        let file = SourceFile::parse(path, content);
        let parsed = crate::parser::parse(&file.tokens);
        FileAnalysis { file, parsed }
    }
}

/// The workspace call graph.
pub struct CallGraph {
    /// Graph node ids for every non-test fn: `ids[k] = (file, fn)`.
    pub ids: Vec<FnKey>,
    /// Forward adjacency (sorted, deduped), indexed like `ids`.
    pub edges: Vec<Vec<usize>>,
    /// Whether node `k` is reachable from a public library API.
    pub reachable_from_pub: Vec<bool>,
    /// BFS parent toward a public API root (`None` for roots/unreached).
    pub pub_parent: Vec<Option<usize>>,
    /// Whether node `k` is hot (reachable from a `span!` seed).
    pub hot: Vec<bool>,
    /// Resolver coverage accounting.
    pub stats: CallGraphStats,
    index_of: BTreeMap<FnKey, usize>,
}

/// Files whose *job* is to abort loudly: binary entry points and the bench
/// experiment drivers. Their `pub fn`s are not library API surface.
#[must_use]
pub fn is_application_path(path: &str, stem: &str) -> bool {
    if path.contains("/src/bin/") || path.ends_with("/src/main.rs") {
        return true;
    }
    crate_key_of(path) == "bench"
        && (stem.starts_with("exp_") || matches!(stem, "blocks" | "profile" | "report"))
}

impl CallGraph {
    /// Build the graph over every parsed file.
    #[must_use]
    pub fn build(files: &[FileAnalysis]) -> CallGraph {
        // Index every fn outside test regions.
        let mut index = SymbolIndex::default();
        let mut ids: Vec<FnKey> = Vec::new();
        for (fi, fa) in files.iter().enumerate() {
            for (ki, f) in fa.parsed.fns.iter().enumerate() {
                if fa.file.in_test_region(f.line) {
                    continue;
                }
                ids.push((fi, ki));
                index.record(
                    (fi, ki),
                    &f.name,
                    f.self_type.as_deref(),
                    &fa.file.path,
                    fa.file.stem(),
                );
            }
        }
        let index_of: BTreeMap<FnKey, usize> =
            ids.iter().enumerate().map(|(n, &k)| (k, n)).collect();

        let mut stats = CallGraphStats {
            functions: ids.len(),
            ..CallGraphStats::default()
        };
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
        for (n, &(fi, ki)) in ids.iter().enumerate() {
            let fa = &files[fi];
            let f = &fa.parsed.fns[ki];
            let crate_key = crate_key_of(&fa.file.path);
            let ctx = CallCtx {
                file: fi,
                crate_key: &crate_key,
                self_type: f.self_type.as_deref(),
            };
            for call in &f.calls {
                match index.resolve(call, &ctx) {
                    Resolution::Resolved(keys) => {
                        stats.calls_resolved += 1;
                        for key in keys {
                            if let Some(&target) = index_of.get(&key) {
                                edges[n].push(target);
                            }
                        }
                    }
                    Resolution::External => stats.calls_external += 1,
                    Resolution::Ambiguous => {
                        stats.calls_ambiguous += 1;
                        *stats.ambiguous_names.entry(call.name.clone()).or_default() += 1;
                    }
                }
            }
            edges[n].sort_unstable();
            edges[n].dedup();
        }

        // Roots.
        let pub_roots: Vec<usize> = ids
            .iter()
            .enumerate()
            .filter(|(_, &(fi, ki))| {
                let fa = &files[fi];
                fa.parsed.fns[ki].is_pub && !is_application_path(&fa.file.path, fa.file.stem())
            })
            .map(|(n, _)| n)
            .collect();
        let hot_roots: Vec<usize> = ids
            .iter()
            .enumerate()
            .filter(|(_, &(fi, ki))| files[fi].parsed.fns[ki].has_span)
            .map(|(n, _)| n)
            .collect();
        stats.public_apis = pub_roots.len();

        let (reachable_from_pub, pub_parent) = bfs(&edges, &pub_roots);
        let (hot, _) = bfs(&edges, &hot_roots);
        stats.hot_functions = hot.iter().filter(|&&h| h).count();

        CallGraph {
            ids,
            edges,
            reachable_from_pub,
            pub_parent,
            hot,
            stats,
            index_of,
        }
    }

    /// Graph node id of a fn, when it is in the graph.
    #[must_use]
    pub fn node(&self, key: FnKey) -> Option<usize> {
        self.index_of.get(&key).copied()
    }

    /// Diagnostic label for node `n`: `stem::name` or `stem::Type::name`.
    #[must_use]
    pub fn label(&self, files: &[FileAnalysis], n: usize) -> String {
        let (fi, ki) = self.ids[n];
        let fa = &files[fi];
        format!("{}::{}", fa.file.stem(), fa.parsed.fns[ki].qualified_name())
    }

    /// A shortest example path from some public API to node `n`, rendered
    /// `root -> .. -> n`. Deterministic: BFS visits roots and neighbours in
    /// sorted order.
    #[must_use]
    pub fn example_path_from_pub(&self, files: &[FileAnalysis], n: usize) -> Option<String> {
        if !self.reachable_from_pub.get(n).copied().unwrap_or(false) {
            return None;
        }
        let mut chain = vec![n];
        let mut cur = n;
        while let Some(parent) = self.pub_parent.get(cur).copied().flatten() {
            chain.push(parent);
            cur = parent;
        }
        chain.reverse();
        Some(
            chain
                .iter()
                .map(|&k| self.label(files, k))
                .collect::<Vec<_>>()
                .join(" -> "),
        )
    }
}

/// Multi-source BFS: reachability flags plus deterministic parents.
fn bfs(edges: &[Vec<usize>], roots: &[usize]) -> (Vec<bool>, Vec<Option<usize>>) {
    let mut seen = vec![false; edges.len()];
    let mut parent: Vec<Option<usize>> = vec![None; edges.len()];
    let mut queue = std::collections::VecDeque::new();
    let mut sorted_roots = roots.to_vec();
    sorted_roots.sort_unstable();
    for &r in &sorted_roots {
        if !seen[r] {
            seen[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &edges[u] {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (seen, parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fa(path: &str, src: &str) -> FileAnalysis {
        FileAnalysis::parse(path, src)
    }

    #[test]
    fn pub_api_reaches_private_helper_transitively() {
        let files = vec![fa(
            "crates/x/src/lib.rs",
            "pub fn api() { step(); }\nfn step() { leaf(); }\nfn leaf() {}\nfn orphan() {}\n",
        )];
        let g = CallGraph::build(&files);
        let node = |name: &str| {
            g.ids
                .iter()
                .position(|&(fi, ki)| files[fi].parsed.fns[ki].name == name)
                .unwrap()
        };
        assert!(g.reachable_from_pub[node("leaf")]);
        assert!(!g.reachable_from_pub[node("orphan")]);
        let path = g.example_path_from_pub(&files, node("leaf")).unwrap();
        assert_eq!(path, "lib::api -> lib::step -> lib::leaf");
        assert_eq!(g.stats.calls_resolved, 2);
    }

    #[test]
    fn hotness_propagates_across_crates() {
        let files = vec![
            fa(
                "crates/a/src/outer.rs",
                "pub fn outer() { let _s = span!(\"a.outer\"); convmeter_b::inner_work(); }\n",
            ),
            fa(
                "crates/b/src/lib.rs",
                "pub fn inner_work() { chop(); }\nfn chop() {}\n",
            ),
        ];
        let g = CallGraph::build(&files);
        let node = |name: &str| {
            g.ids
                .iter()
                .position(|&(fi, ki)| files[fi].parsed.fns[ki].name == name)
                .unwrap()
        };
        assert!(g.hot[node("outer")]);
        assert!(g.hot[node("inner_work")]);
        assert!(g.hot[node("chop")]);
        assert_eq!(g.stats.hot_functions, 3);
    }

    #[test]
    fn ambiguous_and_external_calls_are_counted_not_dropped() {
        let files = vec![
            fa("crates/a/src/m.rs", "pub fn twin() {}\n"),
            fa("crates/b/src/n.rs", "pub fn twin() {}\n"),
            fa(
                "crates/c/src/caller.rs",
                "pub fn go() { twin(); std_thing(); }\n",
            ),
        ];
        let g = CallGraph::build(&files);
        assert_eq!(g.stats.calls_ambiguous, 1);
        assert_eq!(g.stats.calls_external, 1);
        assert_eq!(g.stats.ambiguous_names.get("twin"), Some(&1));
    }

    #[test]
    fn application_pub_fns_are_not_api_roots() {
        let files = vec![fa(
            "crates/bench/src/exp_table2.rs",
            "pub fn drive() { helper(); }\nfn helper() {}\n",
        )];
        let g = CallGraph::build(&files);
        assert_eq!(g.stats.public_apis, 0);
        assert!(g.reachable_from_pub.iter().all(|&r| !r));
    }

    #[test]
    fn test_region_fns_stay_out_of_the_graph() {
        let files = vec![fa(
            "crates/x/src/lib.rs",
            "pub fn api() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { super::api(); }\n}\n",
        )];
        let g = CallGraph::build(&files);
        assert_eq!(g.stats.functions, 1);
    }
}
