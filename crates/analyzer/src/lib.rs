//! Determinism auditor for the ConvMeter workspace.
//!
//! `convmeter analyze` runs this crate over every workspace source file and
//! enforces the CA rule set (the source-level sibling of the CM model-lint
//! codes in `convmeter-graph::lint`):
//!
//! | code | invariant |
//! |------|-----------|
//! | CA0001 | no `HashMap`/`HashSet` in determinism-critical modules |
//! | CA0002 | no wall-clock reads outside the obs clock shim |
//! | CA0003 | no unchecked cost arithmetic where checked variants exist |
//! | CA0004 | no `unwrap`/`expect`/`panic!` in library code |
//! | CA0005 | no exact float comparison against non-zero literals |
//! | CA0006 | `fingerprint()` must account for every struct field |
//!
//! On top of the token rules sits a workspace-wide *syntactic* layer: an
//! item-level parser (`parser`), a cross-crate symbol index (`symbols`),
//! and a call graph with reachability queries (`callgraph`). They power the
//! interprocedural rules:
//!
//! | code | invariant |
//! |------|-----------|
//! | CA0007 | no panic source transitively reachable from a public API |
//! | CD0001 | no clock value flowing into a determinism sink |
//! | CD0002 | no unseeded RNG draw flowing into a determinism sink |
//! | CD0003 | no thread/queue-order observable flowing into a determinism sink |
//! | CD0004 | no summary-propagated taint (via a callee's return) into a determinism sink |
//! | CB0001 | no guard held across a directly blocking operation |
//! | CB0002 | no guard held across a call that may block transitively |
//! | CB0003 | no lock-order inversion across the workspace |
//! | CP0001 | no allocation inside a hot loop |
//! | CP0002 | no per-iteration `.clone()` in a hot loop |
//! | CP0003 | no per-iteration `.collect()` in a hot loop |
//! | CP0004 | no unsized `Vec` grown by `push` in a hot loop |
//! | CP0005 | no lock acquisition inside a hot loop |
//!
//! "Hot" is seeded by `span!` instrumentation and propagated transitively
//! over the call graph. Every run checks every rule above.
//!
//! Findings are suppressed site-by-site with an inline `analyzer:allow`
//! comment naming the CA/CP code — the justifying reason is mandatory,
//! and a malformed directive is itself reported (as `CA0000`) rather than
//! silently ignored. The pass is offline and AST-free: a hand-rolled lexer
//! (`syn` is unavailable in this build environment) feeds token-level
//! rules, which keeps the analyzer honest about what it can see — every
//! rule's scope is documented in `docs/analyzer.md`.

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub mod budget;
pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod taint;

pub use callgraph::{CallGraph, CallGraphStats, FileAnalysis};
use source::SourceFile;

/// One diagnostic: a rule violation at a source location.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Stable rule code (`CA0001`..`CA0007`, `CDxxxx`, `CBxxxx`,
    /// `CP0001`..`CP0005`, `CA0000` for broken allows).
    pub code: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(code: &str, file: &SourceFile, line: u32, message: String) -> Finding {
        Finding {
            code: code.to_string(),
            path: file.path.clone(),
            line,
            message,
        }
    }
}

/// Result of one analysis run.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Unsuppressed findings, sorted by (path, line, code).
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Findings suppressed by well-formed allow directives.
    pub suppressed: usize,
    /// Suppressed-finding counts per rule code — the suppression budget's
    /// raw material (`analyze --stats`).
    pub allow_counts: BTreeMap<String, usize>,
    /// Call-graph coverage: how much the interprocedural rules could see.
    pub call_graph: CallGraphStats,
}

impl Report {
    /// Whether the run is clean (gates exit status in the CLI).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Plain-text rendering: one `path:line: CODE message` per finding plus
    /// a one-line summary.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: {} {}\n",
                f.path, f.line, f.code, f.message
            ));
        }
        out.push_str(&format!(
            "call graph: {} fn(s), {} public API(s), {} hot, \
             edges {} resolved / {} external / {} ambiguous\n",
            self.call_graph.functions,
            self.call_graph.public_apis,
            self.call_graph.hot_functions,
            self.call_graph.calls_resolved,
            self.call_graph.calls_external,
            self.call_graph.calls_ambiguous
        ));
        out.push_str(&format!(
            "analyze: {} finding(s), {} suppressed, {} file(s) scanned\n",
            self.findings.len(),
            self.suppressed,
            self.files_scanned
        ));
        out
    }

    /// JSON rendering for `--json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Struct field lists indexed by `(crate, struct name)`, collected in a
/// first pass so CA0006 can check `fingerprint()` impls whose struct lives
/// in a sibling file. Ambiguous names (two same-named structs in one
/// crate) are dropped rather than guessed at.
#[derive(Default)]
pub struct StructIndex {
    by_key: BTreeMap<(Option<String>, String), Option<Vec<String>>>,
}

impl StructIndex {
    fn record(&mut self, crate_name: Option<&str>, name: &str, fields: Vec<String>) {
        let key = (crate_name.map(str::to_string), name.to_string());
        match self.by_key.get_mut(&key) {
            Some(existing) => *existing = None, // duplicate: ambiguous
            None => {
                self.by_key.insert(key, Some(fields));
            }
        }
    }

    /// Fields of `name` within `crate_name`, when known unambiguously.
    #[must_use]
    pub fn fields_of(&self, crate_name: Option<&str>, name: &str) -> Option<&[String]> {
        let key = (crate_name.map(str::to_string), name.to_string());
        self.by_key.get(&key)?.as_deref()
    }
}

/// Analysis failure: the filesystem, not the source, is the problem.
#[derive(Debug)]
pub enum AnalyzeError {
    /// A file or directory could not be read.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The underlying I/O error (via `Error::source`).
        source: std::io::Error,
    },
    /// The given root is not the workspace root.
    NotAWorkspace {
        /// The path that was checked.
        path: PathBuf,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Io { path, .. } => {
                write!(f, "cannot read {}", path.display())
            }
            AnalyzeError::NotAWorkspace { path } => write!(
                f,
                "{} does not look like the workspace root (no crates/ directory)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalyzeError::Io { source, .. } => Some(source),
            AnalyzeError::NotAWorkspace { .. } => None,
        }
    }
}

/// Analyze in-memory sources: `(workspace-relative path, content)` pairs.
/// This is the core the fixture tests drive; [`analyze_workspace`] is the
/// filesystem front-end. Each file is lexed and parsed on its own, then the
/// symbol index, call graph, rules and suppressions run over all of them.
#[must_use]
pub fn analyze_files(files: &[(String, String)]) -> Report {
    let parsed: Vec<FileAnalysis> = files
        .iter()
        .map(|(path, content)| FileAnalysis::parse(path, content))
        .collect();
    let mut structs = StructIndex::default();
    for fa in &parsed {
        for (name, fields) in rules::struct_fields(&fa.file) {
            structs.record(fa.file.crate_name(), &name, fields);
        }
    }
    let graph = CallGraph::build(&parsed);

    let mut raw = Vec::new();
    for fa in &parsed {
        let file = &fa.file;
        for malformed in &file.malformed_allows {
            raw.push(Finding::new(
                "CA0000",
                file,
                malformed.line,
                format!(
                    "malformed allow directive ({}): it suppresses nothing until fixed",
                    malformed.error
                ),
            ));
        }
        rules::ca0001(file, &mut raw);
        rules::ca0002(file, &mut raw);
        rules::ca0003(file, &mut raw);
        rules::ca0004(file, &mut raw);
        rules::ca0005(file, &mut raw);
        rules::ca0006(file, &structs, &mut raw);
    }
    rules::ca0007(&parsed, &graph, &mut raw);
    taint::cd_rules(&parsed, &mut raw);
    locks::cb_rules(&parsed, &mut raw);
    rules::cp_rules(&parsed, &graph, &mut raw);

    let by_path: BTreeMap<&str, &SourceFile> = parsed
        .iter()
        .map(|fa| (fa.file.path.as_str(), &fa.file))
        .collect();
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut allow_counts: BTreeMap<String, usize> = BTreeMap::new();
    for finding in raw {
        let allowed = finding.code != "CA0000"
            && by_path
                .get(finding.path.as_str())
                .is_some_and(|file| file.is_allowed(&finding.code, finding.line));
        if allowed {
            suppressed += 1;
            *allow_counts.entry(finding.code).or_default() += 1;
        } else {
            findings.push(finding);
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.code).cmp(&(&b.path, b.line, &b.code)));
    // A site inside a nested `fn` is scanned once per enclosing item; keep
    // one finding per (path, line, code).
    findings.dedup_by(|a, b| (&a.path, a.line, &a.code) == (&b.path, b.line, &b.code));
    Report {
        findings,
        files_scanned: parsed.len(),
        suppressed,
        allow_counts,
        call_graph: graph.stats,
    }
}

/// Analyze the workspace rooted at `root`: every `.rs` file under
/// `crates/*/src` plus the root crate's `src/`. Test directories,
/// `third_party/` shims, and build output are out of scope by
/// construction; `#[cfg(test)]` regions inside library files are excluded
/// per rule.
pub fn analyze_workspace(root: &Path) -> Result<Report, AnalyzeError> {
    Ok(analyze_files(&workspace_files(root)?))
}

/// The workspace's in-scope sources as `(relative path, content)` pairs,
/// sorted by path.
fn workspace_files(root: &Path) -> Result<Vec<(String, String)>, AnalyzeError> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(AnalyzeError::NotAWorkspace {
            path: root.to_path_buf(),
        });
    }
    let mut files = Vec::new();
    let mut src_roots = vec![root.join("src")];
    for entry in sorted_entries(&crates_dir)? {
        src_roots.push(entry.join("src"));
    }
    for src_root in src_roots {
        if src_root.is_dir() {
            collect_rs_files(root, &src_root, &mut files)?;
        }
    }
    Ok(files)
}

fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, AnalyzeError> {
    let io = |source| AnalyzeError::Io {
        path: dir.to_path_buf(),
        source,
    };
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(io)?
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, String)>,
) -> Result<(), AnalyzeError> {
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let content = std::fs::read_to_string(&path).map_err(|source| AnalyzeError::Io {
                path: path.clone(),
                source,
            })?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, content));
        }
    }
    Ok(())
}
