//! The CA rule set: token-level determinism and robustness lints, plus the
//! interprocedural rules built on the call graph — CA0007
//! panic-reachability and the CP hot-path performance family.
//!
//! Every rule is deliberately *narrow*: each one encodes an invariant this
//! workspace has already committed to (stable iteration on fingerprint
//! paths, clock reads through the obs shim, checked cost arithmetic,
//! panic-free library code, float-comparison hygiene, fingerprint
//! exhaustiveness, panic-free public API surface, allocation-free hot
//! loops), so a finding is actionable — fix the site or suppress it with a
//! justified inline `analyzer:allow` comment.

use crate::callgraph::{is_application_path, CallGraph, FileAnalysis};
use crate::lexer::{Token, TokenKind};
use crate::parser::FnDef;
use crate::source::SourceFile;
use crate::{Finding, StructIndex};

/// Module stems whose iteration order reaches persisted artefacts or
/// fingerprints: nondeterministic collections are banned here (CA0001).
pub const CRITICAL_STEMS: &[&str] = &[
    "fingerprint",
    "persist",
    "store",
    "dataset",
    "manifest",
    "render",
    "report",
    "profile",
];

/// Panicking cost-arithmetic entry points with checked counterparts
/// (CA0003): method name, replacement, and the defining files where the
/// panicking variant itself lives (exempt).
const COST_METHODS: &[(&str, &str)] = &[
    ("elements", "checked_elements"),
    ("layer_flops", "try_layer_flops"),
    ("layer_macs", "try_layer_macs"),
];

const COST_DEFINING_FILES: &[&str] = &["crates/metrics/src/flops.rs", "crates/graph/src/shape.rs"];

fn code_tokens(file: &SourceFile) -> Vec<&Token> {
    file.tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect()
}

/// The token `n` positions before `i`, when it exists.
fn back<'a>(toks: &[&'a Token], i: usize, n: usize) -> Option<&'a Token> {
    i.checked_sub(n).map(|j| toks[j])
}

fn is_float_literal(token: &Token) -> bool {
    if token.kind != TokenKind::Literal || !token.text.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let text = token.text.as_str();
    text.contains('.') || text.ends_with("f32") || text.ends_with("f64")
}

fn float_literal_value(token: &Token) -> Option<f64> {
    let text = token
        .text
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_')
        .replace('_', "");
    text.parse::<f64>().ok()
}

/// CA0001: `HashMap`/`HashSet` in a determinism-critical module. Their
/// iteration order varies per process (`RandomState`), so anything that
/// feeds fingerprints, persisted artefacts, or rendered reports must use
/// `BTreeMap`/`BTreeSet` instead.
pub fn ca0001(file: &SourceFile, out: &mut Vec<Finding>) {
    if !CRITICAL_STEMS.contains(&file.stem()) {
        return;
    }
    for token in code_tokens(file) {
        if token.kind == TokenKind::Ident
            && (token.text == "HashMap" || token.text == "HashSet")
            && !file.in_test_region(token.line)
        {
            out.push(Finding::new(
                "CA0001",
                file,
                token.line,
                format!(
                    "{} in determinism-critical module `{}`: iteration order is \
                     per-process random; use the BTree equivalent so artefact \
                     bytes cannot depend on hasher seeds",
                    token.text,
                    file.stem()
                ),
            ));
        }
    }
}

/// CA0002: direct wall-clock reads outside the obs crate. All timing goes
/// through `convmeter_metrics::obs::clock` so the sources of
/// nondeterministic telemetry stay auditable in one module.
pub fn ca0002(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.crate_name() == Some("obs") {
        return;
    }
    let toks = code_tokens(file);
    for window in toks.windows(4) {
        let [a, b, c, d] = window else { continue };
        let is_clock_type =
            a.kind == TokenKind::Ident && (a.text == "Instant" || a.text == "SystemTime");
        if is_clock_type
            && b.is_punct(':')
            && c.is_punct(':')
            && d.is_ident("now")
            && !file.in_test_region(a.line)
        {
            out.push(Finding::new(
                "CA0002",
                file,
                a.line,
                format!(
                    "{}::now() outside the obs clock shim: route wall-clock reads \
                     through convmeter_metrics::obs::clock::now() so every timing \
                     source is auditable",
                    a.text
                ),
            ));
        }
    }
}

/// CA0003: panicking cost arithmetic where a checked variant exists.
/// `Shape::elements` / `layer_flops` / `layer_macs` multiply tensor
/// dimensions and abort on overflow; library code off the defining modules
/// must use `checked_elements` / `try_layer_*` and propagate the error.
pub fn ca0003(file: &SourceFile, out: &mut Vec<Finding>) {
    if COST_DEFINING_FILES.contains(&file.path.as_str()) {
        return;
    }
    let toks = code_tokens(file);
    for i in 0..toks.len() {
        let t = toks[i];
        if t.kind != TokenKind::Ident || file.in_test_region(t.line) {
            continue;
        }
        let Some((_, checked)) = COST_METHODS.iter().find(|(name, _)| t.text == *name) else {
            continue;
        };
        // Must be a call: `name(`. Declarations (`fn name(`) and paths to
        // the checked variants are distinct tokens and never match here.
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if back(&toks, i, 1).is_some_and(|p| p.is_ident("fn")) {
            continue;
        }
        out.push(Finding::new(
            "CA0003",
            file,
            t.line,
            format!(
                "unchecked cost arithmetic: `{}` panics on u64 overflow; use \
                 `{}` and propagate the error",
                t.text, checked
            ),
        ));
    }
}

/// Files whose *job* is to abort loudly on broken invariants: binary entry
/// points and the bench experiment drivers. CA0004 does not apply there.
fn is_application_file(file: &SourceFile) -> bool {
    let path = file.path.as_str();
    if path.contains("/src/bin/") || path.ends_with("/src/main.rs") {
        return true;
    }
    file.crate_name() == Some("bench")
        && (file.stem().starts_with("exp_")
            || matches!(file.stem(), "blocks" | "profile" | "report"))
}

/// CA0004: `unwrap`/`expect`/`panic!`-family in library code. Library
/// crates surface failures as typed errors with `source()` chains; aborts
/// are reserved for binaries, experiment drivers, tests, and individually
/// justified contract violations.
pub fn ca0004(file: &SourceFile, out: &mut Vec<Finding>) {
    if is_application_file(file) {
        return;
    }
    let toks = code_tokens(file);
    for i in 0..toks.len() {
        let t = toks[i];
        if t.kind != TokenKind::Ident || file.in_test_region(t.line) {
            continue;
        }
        let method_call = (t.text == "unwrap" || t.text == "expect")
            && back(&toks, i, 1).is_some_and(|p| p.is_punct('.'))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let abort_macro = matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if method_call || abort_macro {
            let display = if abort_macro {
                format!("{}!", t.text)
            } else {
                format!(".{}()", t.text)
            };
            out.push(Finding::new(
                "CA0004",
                file,
                t.line,
                format!(
                    "{display} in library code: return a typed error (with a \
                     source() chain) or justify the abort with an allow directive"
                ),
            ));
        }
    }
}

/// CA0005: exact float comparison against a non-zero literal. Comparing
/// against exactly `0.0` is a legitimate sentinel/guard idiom in this
/// codebase; anything else should use a tolerance helper.
pub fn ca0005(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = code_tokens(file);
    for (i, pair) in toks.windows(2).enumerate() {
        let [a, b] = pair else { continue };
        let is_eq = (a.is_punct('=') || a.is_punct('!')) && b.is_punct('=');
        // `==` arrives as two `=` tokens; reject `<=`/`>=`/`=>`/assignment
        // by requiring the pair shape exactly.
        if !is_eq || file.in_test_region(a.line) {
            continue;
        }
        if a.is_punct('=')
            && back(&toks, i, 1).is_some_and(|p| matches!(p.text.as_str(), "<" | ">" | "=" | "!"))
        {
            continue; // second char of <=, >=, ==, !=
        }
        let neighbour_lit = [i.checked_sub(1), Some(i + 2)]
            .into_iter()
            .flatten()
            .filter_map(|j| toks.get(j))
            .find(|t| is_float_literal(t));
        let Some(lit) = neighbour_lit else { continue };
        match float_literal_value(lit) {
            Some(0.0) => {} // exact-zero guard: allowed
            _ => out.push(Finding::new(
                "CA0005",
                file,
                a.line,
                format!(
                    "exact float comparison with `{}`: equality on non-zero floats \
                     is representation-dependent; compare with an explicit tolerance",
                    lit.text
                ),
            )),
        }
    }
}

/// CA0006: fingerprint exhaustiveness. Every named field of a struct with
/// an inherent `fn fingerprint` must be mentioned inside that method's
/// body — the idiomatic witness is an exhaustive destructuring
/// `let Self { a, b: _, ..-free } = self;`, which also turns new fields
/// into compile errors. Deliberate exclusions stay visible as `name: _`.
pub fn ca0006(file: &SourceFile, structs: &StructIndex, out: &mut Vec<Finding>) {
    let toks = code_tokens(file);
    for imp in find_impls(&toks) {
        let Some((fn_line, body_idents)) = fingerprint_body(&toks, imp.body_start, imp.body_end)
        else {
            continue;
        };
        let Some(fields) = structs.fields_of(file.crate_name(), &imp.type_name) else {
            continue;
        };
        for field in fields {
            if !body_idents.iter().any(|ident| ident == field) {
                out.push(Finding::new(
                    "CA0006",
                    file,
                    fn_line,
                    format!(
                        "fingerprint() of `{}` never mentions field `{field}`: \
                         hash it, or record the exclusion as `{field}: _` in an \
                         exhaustive `let Self {{ .. }}` destructuring",
                        imp.type_name
                    ),
                ));
            }
        }
    }
}

struct ImplBlock {
    type_name: String,
    /// Token index of the opening `{` of the impl body.
    body_start: usize,
    /// Token index of the matching closing `}`.
    body_end: usize,
}

/// Locate `impl` blocks and their self types (`impl Foo`, `impl<T> Foo<T>`,
/// `impl Trait for Foo`). Angle-bracket depth is tracked so generic
/// parameters never masquerade as the type name.
fn find_impls(toks: &[&Token]) -> Vec<ImplBlock> {
    let mut impls = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut angle = 0i32;
        let mut candidate: Option<String> = None;
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            let t = toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if t.is_ident("for") && angle == 0 {
                // `impl Trait for Type`: the self type starts after `for`.
                candidate = None;
            } else if t.kind == TokenKind::Ident && angle == 0 {
                // Later path segments win: `impl module::Type`.
                let after_path_sep = back(toks, j, 1).is_some_and(|p| p.is_punct(':'))
                    && back(toks, j, 2).is_some_and(|p| p.is_punct(':'));
                if candidate.is_none() || after_path_sep {
                    candidate = Some(t.text.clone());
                }
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(';') {
            i = j;
            continue;
        }
        let body_start = j;
        let mut depth = 0usize;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if let Some(type_name) = candidate {
            impls.push(ImplBlock {
                type_name,
                body_start,
                body_end: j.min(toks.len().saturating_sub(1)),
            });
        }
        i = body_start + 1;
    }
    impls
}

/// Find `fn fingerprint` inside an impl body; return its starting line and
/// every identifier mentioned in its body.
fn fingerprint_body(
    toks: &[&Token],
    body_start: usize,
    body_end: usize,
) -> Option<(u32, Vec<String>)> {
    let mut i = body_start;
    while i + 1 < body_end {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.is_ident("fingerprint")) {
            let fn_line = toks[i].line;
            let mut j = i + 2;
            while j < body_end && !toks[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0usize;
            let mut idents = Vec::new();
            while j <= body_end {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].kind == TokenKind::Ident {
                    idents.push(toks[j].text.clone());
                }
                j += 1;
            }
            return Some((fn_line, idents));
        }
        i += 1;
    }
    None
}

/// Extract named-struct field lists from a file: `(struct_name, fields)`.
/// Tuple structs and generics-only bodies yield no entry.
pub fn struct_fields(file: &SourceFile) -> Vec<(String, Vec<String>)> {
    let toks = code_tokens(file);
    let mut found = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        let name_tok = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident);
        let (true, Some(name_tok)) = (toks[i].is_ident("struct"), name_tok) else {
            i += 1;
            continue;
        };
        let name = name_tok.text.clone();
        // Skip generics, then require a braced body.
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < toks.len() {
            let t = toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0
                && (t.is_punct('{') || t.is_punct('(') || t.is_punct(';') || t.is_ident("where"))
            {
                break;
            }
            j += 1;
        }
        // `where` clauses on braced structs: scan on to the `{`.
        while j < toks.len()
            && !toks[j].is_punct('{')
            && !toks[j].is_punct('(')
            && !toks[j].is_punct(';')
        {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') {
            i = j.max(i + 2);
            continue;
        }
        let mut depth = 0usize;
        let mut fields = Vec::new();
        while j < toks.len() {
            let t = toks[j];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1
                && t.kind == TokenKind::Ident
                && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 2).is_none_or(|n| !n.is_punct(':'))
                && toks.get(j - 1).is_some_and(|p| {
                    p.is_punct('{')
                        || p.is_punct(',')
                        || p.is_punct(')')
                        || p.is_ident("pub")
                        || p.is_punct(']')
                })
            {
                fields.push(t.text.clone());
            }
            j += 1;
        }
        if !fields.is_empty() {
            found.push((name, fields));
        }
        i = j.max(i + 2);
    }
    found
}

/// Code tokens of one parsed file, indexed the way its `FnDef`s are.
fn parsed_tokens(fa: &FileAnalysis) -> Vec<&Token> {
    fa.parsed.code.iter().map(|&i| &fa.file.tokens[i]).collect()
}

/// Abort idioms — `.unwrap()`/`.expect()` calls and the `panic!` macro
/// family — inside the code-token range `(open, close)`.
fn abort_sites(toks: &[&Token], open: usize, close: usize) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in open..close.min(toks.len()) {
        let t = toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let method_call = (t.text == "unwrap" || t.text == "expect")
            && back(toks, i, 1).is_some_and(|p| p.is_punct('.'))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let abort_macro = matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if method_call {
            out.push((t.line, format!(".{}()", t.text)));
        } else if abort_macro {
            out.push((t.line, format!("{}!", t.text)));
        }
    }
    out
}

/// Computed-offset index expressions — `base[.. ± ..]` — inside the
/// code-token range. Plain `xs[i]` and range slices without arithmetic are
/// not flagged; it is the offset arithmetic that hides off-by-one panics.
fn computed_index_sites(toks: &[&Token], open: usize, close: usize) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut i = open;
    while i < close.min(toks.len()) {
        let t = toks[i];
        let indexable_base = back(toks, i, 1)
            .is_some_and(|p| p.kind == TokenKind::Ident || p.is_punct(')') || p.is_punct(']'));
        if !t.is_punct('[') || !indexable_base {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut arithmetic = false;
        let mut j = i;
        while j < close.min(toks.len()) {
            let u = toks[j];
            if u.is_punct('[') || u.is_punct('(') {
                depth += 1;
            } else if u.is_punct(']') || u.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 && (u.is_punct('+') || u.is_punct('-')) {
                arithmetic = true;
            }
            j += 1;
        }
        if arithmetic {
            let base = back(toks, i, 1).map_or(String::new(), |p| p.text.clone());
            let inner: String = toks
                .get(i + 1..j)
                .unwrap_or_default()
                .iter()
                .map(|u| u.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            let mut expr = format!("{base}[{inner}]");
            if expr.len() > 48 {
                expr.truncate(45);
                expr.push_str("..]");
            }
            out.push((t.line, expr));
        }
        i = j.max(i + 1);
    }
    out
}

/// CA0007: panic-reachability of the public API surface, on the call
/// graph. Two source classes feed it: abort idioms in *application* files
/// whose functions a public library API transitively calls (CA0004 exempts
/// those files, so a `store -> blocks` chain is invisible to it), and
/// computed-offset slice indexing in library code reachable from a public
/// API. Findings are reported at the source site with an example call path
/// from the public surface.
pub fn ca0007(files: &[FileAnalysis], graph: &CallGraph, out: &mut Vec<Finding>) {
    for n in 0..graph.ids.len() {
        if !graph.reachable_from_pub[n] {
            continue;
        }
        let (fi, ki) = graph.ids[n];
        let fa = &files[fi];
        let f = &fa.parsed.fns[ki];
        let toks = parsed_tokens(fa);
        let route = graph
            .example_path_from_pub(files, n)
            .unwrap_or_else(|| graph.label(files, n));
        if is_application_path(&fa.file.path, fa.file.stem()) {
            for (line, display) in abort_sites(&toks, f.body.0, f.body.1) {
                if fa.file.in_test_region(line) {
                    continue;
                }
                out.push(Finding::new(
                    "CA0007",
                    &fa.file,
                    line,
                    format!(
                        "{display} is reachable from a public library API \
                         ({route}): a library caller can abort here; return a \
                         typed error or justify the contract"
                    ),
                ));
            }
        } else {
            for (line, expr) in computed_index_sites(&toks, f.body.0, f.body.1) {
                if fa.file.in_test_region(line) {
                    continue;
                }
                out.push(Finding::new(
                    "CA0007",
                    &fa.file,
                    line,
                    format!(
                        "computed-offset index `{expr}` can panic out of bounds \
                         and is reachable from a public API ({route}): use \
                         .get()/checked offsets or justify why the bound holds"
                    ),
                ));
            }
        }
    }
}

/// Combinators whose closure argument is evaluated lazily and only on the
/// error / fallback path; allocations inside run at most once per failure.
const COLD_COMBINATORS: &[&str] = &[
    "map_err",
    "unwrap_or_else",
    "ok_or_else",
    "or_else",
    "map_or_else",
];

/// Macros whose whole argument list only runs on the abort path.
const COLD_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Index of the delimiter that closes the group opened at `at`, treating
/// `(`/`[`/`{` uniformly. `None` when `at` is not an opener or unbalanced.
fn matching_close(toks: &[&Token], at: usize, end: usize) -> Option<usize> {
    let opener = toks.get(at)?;
    if !(opener.is_punct('(') || opener.is_punct('[') || opener.is_punct('{')) {
        return None;
    }
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(end.min(toks.len())).skip(at) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Code-token ranges inside `(open, close)` that sit on cold paths: error
/// construction (`Err(..)`), abort/assert macro bodies, and closures handed
/// to error/fallback combinators. Per-iteration cost there is paid at most
/// once per failure, so the hot-path rules skip these spans.
fn cold_regions(toks: &[&Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let end = close.min(toks.len());
    for i in open + 1..end {
        let t = toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let group_at = if t.is_ident("Err") && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            Some(i + 1)
        } else if COLD_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            Some(i + 2)
        } else if COLD_COMBINATORS.contains(&t.text.as_str())
            && back(toks, i, 1).is_some_and(|p| p.is_punct('.'))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            Some(i + 1)
        } else {
            None
        };
        let Some(at) = group_at else { continue };
        if let Some(c) = matching_close(toks, at, end) {
            out.push((at, c));
        }
    }
    out
}

fn in_cold(regions: &[(usize, usize)], i: usize) -> bool {
    regions.iter().any(|&(a, b)| i > a && i < b)
}

/// Allocating `Type::method(..)` path calls for CP0001. `Vec::new` and
/// `String::new` are deliberately absent: they are alloc-free until grown
/// (growth inside a loop is CP0004's business).
const ALLOC_PATH_CALLS: &[(&str, &str)] = &[
    ("Vec", "with_capacity"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Box", "new"),
];

/// Allocating `.method()` dot calls for CP0001.
const ALLOC_DOT_CALLS: &[&str] = &["to_vec", "to_owned", "to_string"];

/// CP0001–CP0003 and CP0005: per-iteration sites inside the loop regions
/// of hot functions (reachable from a `span!` seed on the call graph).
fn cp_loop_sites(fa: &FileAnalysis, f: &FnDef, toks: &[&Token], out: &mut Vec<Finding>) {
    let cold = cold_regions(toks, f.body.0, f.body.1);
    for i in f.body.0 + 1..f.body.1.min(toks.len()) {
        if !f.in_loop(i) || in_cold(&cold, i) {
            continue;
        }
        let t = toks[i];
        if t.kind != TokenKind::Ident || fa.file.in_test_region(t.line) {
            continue;
        }
        let hot = format!("hot fn `{}`", f.qualified_name());
        if toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && matches!(t.text.as_str(), "vec" | "format")
        {
            out.push(Finding::new(
                "CP0001",
                &fa.file,
                t.line,
                format!(
                    "`{}!` allocates on every iteration of a loop in {hot}: \
                     hoist it out of the loop or reuse a buffer",
                    t.text
                ),
            ));
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let after_path_sep = back(toks, i, 1).is_some_and(|p| p.is_punct(':'))
            && back(toks, i, 2).is_some_and(|p| p.is_punct(':'));
        if after_path_sep {
            if let Some(ty) = back(toks, i, 3) {
                if ALLOC_PATH_CALLS
                    .iter()
                    .any(|(qual, name)| ty.is_ident(qual) && t.text == *name)
                {
                    out.push(Finding::new(
                        "CP0001",
                        &fa.file,
                        t.line,
                        format!(
                            "`{}::{}` allocates on every iteration of a loop in \
                             {hot}: hoist the allocation out of the loop",
                            ty.text, t.text
                        ),
                    ));
                }
            }
            continue;
        }
        if !back(toks, i, 1).is_some_and(|p| p.is_punct('.')) {
            continue;
        }
        match t.text.as_str() {
            name if ALLOC_DOT_CALLS.contains(&name) => out.push(Finding::new(
                "CP0001",
                &fa.file,
                t.line,
                format!(
                    "`.{name}()` allocates on every iteration of a loop in {hot}: \
                     borrow instead, or hoist the copy out of the loop"
                ),
            )),
            "clone" => out.push(Finding::new(
                "CP0002",
                &fa.file,
                t.line,
                format!(
                    "`.clone()` runs on every iteration of a loop in {hot}: \
                     borrow the value or hoist the clone out of the loop"
                ),
            )),
            "collect" => out.push(Finding::new(
                "CP0003",
                &fa.file,
                t.line,
                format!(
                    "per-iteration `.collect()` in a loop in {hot} materialises \
                     a fresh collection each pass: collect once, or reuse a buffer"
                ),
            )),
            "lock" => out.push(Finding::new(
                "CP0005",
                &fa.file,
                t.line,
                format!(
                    "lock acquired inside a loop in {hot}: acquire it once \
                     outside, or batch the loop body under one guard"
                ),
            )),
            _ => {}
        }
    }
}

/// CP0004: a `Vec` binding that starts empty and is grown by `push` inside
/// a loop of a hot function, with no `reserve`/`with_capacity` sizing it.
/// Reported at the binding so the fix site is obvious.
fn cp0004(fa: &FileAnalysis, f: &FnDef, toks: &[&Token], out: &mut Vec<Finding>) {
    let (open, close) = f.body;
    for i in open + 1..close.min(toks.len()) {
        // `let mut NAME` with an empty-Vec initialiser, outside any loop
        // (inside a loop the allocation itself is the problem: CP0001).
        if !toks[i].is_ident("let")
            || !toks.get(i + 1).is_some_and(|t| t.is_ident("mut"))
            || f.in_loop(i)
        {
            continue;
        }
        let Some(name_tok) = toks.get(i + 2).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if fa.file.in_test_region(name_tok.line) {
            continue;
        }
        // Skip an optional `: Type` annotation up to the `=` at angle depth 0.
        let mut j = i + 3;
        let mut angle = 0i32;
        while j < close.min(toks.len()) {
            let t = toks[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0 && (t.is_punct('=') || t.is_punct(';')) {
                break;
            }
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('=')) {
            continue;
        }
        let empty_vec_new = toks.get(j + 1).is_some_and(|t| t.is_ident("Vec"))
            && toks.get(j + 4).is_some_and(|t| t.is_ident("new"));
        let empty_vec_macro = toks.get(j + 1).is_some_and(|t| t.is_ident("vec"))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('!'))
            && toks.get(j + 3).is_some_and(|t| t.is_punct('['))
            && toks.get(j + 4).is_some_and(|t| t.is_punct(']'));
        if !empty_vec_new && !empty_vec_macro {
            continue;
        }
        let name = name_tok.text.as_str();
        let mut pushed_in_loop = false;
        let mut reserved = false;
        for k in i..close.min(toks.len()) {
            if !toks[k].is_ident(name) || back(toks, k, 1).is_some_and(|p| p.is_punct('.')) {
                continue;
            }
            let method = toks
                .get(k + 1)
                .filter(|d| d.is_punct('.'))
                .and_then(|_| toks.get(k + 2));
            match method.map(|m| m.text.as_str()) {
                Some("push") if f.in_loop(k) => pushed_in_loop = true,
                Some("reserve" | "reserve_exact") => reserved = true,
                _ => {}
            }
        }
        if pushed_in_loop && !reserved {
            out.push(Finding::new(
                "CP0004",
                &fa.file,
                name_tok.line,
                format!(
                    "Vec `{name}` starts empty and is grown by push inside a \
                     loop of hot fn `{}`: size it up front with \
                     with_capacity/reserve",
                    f.qualified_name()
                ),
            ));
        }
    }
}

/// The CP hot-path performance family (CP0001–CP0005), run only over
/// functions the call graph marks hot.
pub fn cp_rules(files: &[FileAnalysis], graph: &CallGraph, out: &mut Vec<Finding>) {
    for n in 0..graph.ids.len() {
        if !graph.hot[n] {
            continue;
        }
        let (fi, ki) = graph.ids[n];
        let fa = &files[fi];
        let f = &fa.parsed.fns[ki];
        let toks = parsed_tokens(fa);
        cp_loop_sites(fa, f, &toks, out);
        cp0004(fa, f, &toks, out);
    }
}
