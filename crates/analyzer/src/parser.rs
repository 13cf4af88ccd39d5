//! Item-level parser on top of the lexer: `fn` items, impl blocks, call
//! sites, and loop regions — deliberately *not* a full Rust grammar.
//!
//! The parser recovers just enough structure for interprocedural rules:
//! which functions exist (with visibility and the impl self-type), where
//! their bodies start and end in the token stream, which regions of a body
//! execute per-iteration (`for`/`while`/`loop` bodies plus the argument
//! span of iterator-combinator calls), and every syntactic call site with
//! its qualifying path. Like the lexer it never fails: unparseable input
//! simply yields fewer items, which is the honest behaviour for a linter.

use crate::lexer::{Token, TokenKind};

/// One syntactic call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line of the callee name.
    pub line: u32,
    /// Qualifying path segments, outermost first: `["pool"]` for
    /// `pool::run_ordered(..)`, `["ModelMetrics"]` for
    /// `ModelMetrics::of(..)`, `["Type"]` for `<Type as Trait>::call(..)`,
    /// empty for bare and method calls.
    pub path: Vec<String>,
    /// The callee name.
    pub name: String,
    /// Whether this is a `.name(..)` method call.
    pub is_method: bool,
    /// Code-token index of the callee name token.
    pub idx: usize,
    /// Code-token indices of the argument list's `(` and matching `)`.
    pub args: (usize, usize),
    /// For method calls on a simple dotted chain, the receiver components
    /// left to right: `self.cache.lock()` records `["self", "cache"]` and
    /// `table().lock()` records `["table()"]`. Empty when the receiver is
    /// an arbitrary expression the parser does not model.
    pub recv: Vec<String>,
}

/// One macro invocation (`name!(..)`) inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroUse {
    /// 1-based line of the macro name.
    pub line: u32,
    /// Macro name without the `!`.
    pub name: String,
    /// Code-token index of the macro name token.
    pub idx: usize,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Self type when the fn sits inside an `impl` block (`impl Foo` and
    /// `impl Trait for Foo` both record `Foo`).
    pub self_type: Option<String>,
    /// `pub` without a restriction — `pub(crate)`/`pub(super)` are not
    /// public API.
    pub is_pub: bool,
    /// Whether a `#[cfg(..)]` attribute gates the item (duplicate items
    /// behind complementary cfgs are legal and must both be indexed).
    pub cfg_gated: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Code-token indices of the body's `{` and matching `}`.
    pub body: (usize, usize),
    /// Code-token ranges (inclusive) that execute per loop iteration:
    /// `for`/`while`/`loop` bodies and iterator-combinator argument spans.
    pub loops: Vec<(usize, usize)>,
    /// Every call site in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Whether the body opens an `obs` span (`span!("..")`) — the seed for
    /// hot-path propagation.
    pub has_span: bool,
    /// Parameter binder names, in declaration order (`self` excluded;
    /// destructuring patterns contribute each binder).
    pub params: Vec<String>,
    /// Every macro invocation in the body, in source order.
    pub macros: Vec<MacroUse>,
}

impl FnDef {
    /// `Type::name` or plain `name`, for diagnostics.
    #[must_use]
    pub fn qualified_name(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether the code-token index falls in a per-iteration region.
    #[must_use]
    pub fn in_loop(&self, idx: usize) -> bool {
        self.loops.iter().any(|&(a, b)| (a..=b).contains(&idx))
    }
}

/// The parsed structure of one file: the comment-free token indices and
/// every `fn` item found in them.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Indices into the file's full token stream, comments removed. All
    /// `FnDef` positions refer to this vector ("code-token indices").
    pub code: Vec<usize>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnDef>,
}

/// Iterator combinators whose closure argument runs once per element: the
/// argument span counts as a loop region for the hot-path rules.
const ITER_METHODS: &[&str] = &[
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "for_each",
    "try_for_each",
    "fold",
    "try_fold",
    "retain",
    "scan",
    "inspect",
    "map_while",
    "take_while",
    "skip_while",
    "position",
    "find_map",
];

/// Keywords that look like `ident (` but are never calls.
const CALL_KEYWORDS: &[&str] = &[
    "if", "for", "while", "loop", "match", "return", "fn", "move", "in", "as", "let", "else",
    "break", "continue", "where", "unsafe",
];

/// The token `n` positions before `i`, when it exists.
fn back<'a>(toks: &[&'a Token], i: usize, n: usize) -> Option<&'a Token> {
    i.checked_sub(n).map(|j| toks[j])
}

/// Parse one file's token stream into items.
#[must_use]
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let toks: Vec<&Token> = code.iter().map(|&i| &tokens[i]).collect();
    let impls = impl_ranges(&toks);
    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") || !toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        let Some(body) = body_range(&toks, i + 2) else {
            // Trait method signature or `extern` declaration: no body.
            i += 2;
            continue;
        };
        let (is_pub, cfg_gated) = modifiers(&toks, i);
        let self_type = impls
            .iter()
            .find(|(_, a, b)| (*a..=*b).contains(&i))
            .map(|(name, _, _)| name.clone());
        let mut def = FnDef {
            name: name_tok.text.clone(),
            self_type,
            is_pub,
            cfg_gated,
            line: toks[i].line,
            body,
            loops: Vec::new(),
            calls: Vec::new(),
            has_span: false,
            params: param_names(&toks, i + 2, body.0),
            macros: Vec::new(),
        };
        scan_body(&toks, &mut def);
        // Continue *inside* the body so nested fns are parsed too; they
        // shadow nothing because resolution prefers same-file candidates.
        i = body.0 + 1;
        fns.push(def);
    }
    ParsedFile { code, fns }
}

/// Locate `impl` blocks as `(self type, start, end)` code-token ranges.
fn impl_ranges(toks: &[&Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
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
                candidate = None; // `impl Trait for Type`: restart after `for`.
            } else if t.is_ident("where") && angle == 0 {
                break;
            } else if t.kind == TokenKind::Ident && angle == 0 {
                let after_path_sep = back(toks, j, 1).is_some_and(|p| p.is_punct(':'))
                    && back(toks, j, 2).is_some_and(|p| p.is_punct(':'));
                if candidate.is_none() || after_path_sep {
                    candidate = Some(t.text.clone());
                }
            }
            j += 1;
        }
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(';') {
            i = j.max(i + 1);
            continue;
        }
        let start = j;
        let end = matching_brace(toks, start);
        if let Some(name) = candidate {
            out.push((name, start, end));
        }
        i = start + 1;
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(toks: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct('{') {
            depth += 1;
        } else if toks[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// From just after the fn name, find the body's brace range: the first `{`
/// at paren/bracket depth zero, unless a `;` ends the item first.
fn body_range(toks: &[&Token], from: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = from;
    while j < toks.len() {
        let t = toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct('{') {
                return Some((j, matching_brace(toks, j)));
            }
            if t.is_punct(';') {
                return None;
            }
        }
        j += 1;
    }
    None
}

/// Binder names in the parameter list between the fn name and its body:
/// the first `(..)` group at angle-depth zero. Within each top-level
/// comma-separated segment, the binders are the lowercase idents before
/// the segment's type annotation `:` (destructuring patterns contribute
/// each one); `self`, `mut`, `ref`, and type-position idents are not
/// binders.
fn param_names(toks: &[&Token], from: usize, body_open: usize) -> Vec<String> {
    let mut angle = 0i32;
    let mut open = None;
    let mut j = from;
    while j < body_open {
        let t = toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('(') && angle <= 0 {
            open = Some(j);
            break;
        }
        j += 1;
    }
    let Some(open) = open else {
        return Vec::new();
    };
    let close = matching_paren(toks, open, body_open);
    let mut params = Vec::new();
    let mut depth = 0i32; // nesting inside the param list itself
    let mut annotated = false; // saw the segment's top-level `:`
    for k in open + 1..close {
        let t = toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('>') {
            // `->` in an `impl Fn(..) -> T` parameter type is an arrow,
            // not a closing angle bracket.
            if !back(toks, k, 1).is_some_and(|p| p.is_punct('-')) {
                depth -= 1;
            }
        } else if t.is_punct(',') && depth <= 0 {
            annotated = false;
        } else if t.is_punct(':') && !annotated {
            // A lone `:` ends the pattern; `::` is a path inside it.
            let part_of_path = toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                || back(toks, k, 1).is_some_and(|p| p.is_punct(':'));
            if !part_of_path {
                annotated = true;
            }
        } else if !annotated
            && t.kind == TokenKind::Ident
            && !matches!(t.text.as_str(), "self" | "mut" | "ref")
            && !t.text.chars().next().is_some_and(char::is_uppercase)
        {
            params.push(t.text.clone());
        }
    }
    params
}

/// Visibility and cfg-gating of the fn item at `fn_idx`, read backwards
/// over qualifiers (`pub(crate) const unsafe fn ..`) and attributes.
fn modifiers(toks: &[&Token], fn_idx: usize) -> (bool, bool) {
    let mut p = fn_idx;
    let mut restricted = false;
    let mut is_pub = false;
    while p > 0 {
        p -= 1;
        let t = toks[p];
        if t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern")
        {
            continue;
        }
        if t.kind == TokenKind::Literal {
            continue; // the "C" in `extern "C"`
        }
        if t.is_punct(')') {
            // `pub(crate)` / `pub(in path)`: skip back over the restriction.
            restricted = true;
            let mut depth = 1i32;
            while p > 0 && depth > 0 {
                p -= 1;
                if toks[p].is_punct(')') {
                    depth += 1;
                } else if toks[p].is_punct('(') {
                    depth -= 1;
                }
            }
            continue;
        }
        if t.is_ident("pub") {
            is_pub = !restricted;
            continue;
        }
        break;
    }
    // `p` now sits on the first token that is not part of the fn's
    // qualifiers; scan further back over `#[..]` attributes for `cfg`.
    let mut cfg_gated = false;
    let mut q = if toks
        .get(p)
        .is_some_and(|t| t.is_ident("pub") || t.is_ident("fn"))
    {
        p
    } else {
        p + 1
    };
    while back(toks, q, 1).is_some_and(|t| t.is_punct(']')) {
        let close = q - 1;
        let mut depth = 1i32;
        let mut k = close;
        let mut saw_cfg = false;
        while k > 0 && depth > 0 {
            k -= 1;
            let t = toks[k];
            if t.is_punct(']') {
                depth += 1;
            } else if t.is_punct('[') {
                depth -= 1;
            } else if t.is_ident("cfg") {
                saw_cfg = true;
            }
        }
        if !back(toks, k, 1).is_some_and(|t| t.is_punct('#')) {
            break;
        }
        if saw_cfg {
            cfg_gated = true;
        }
        q = k - 1;
    }
    (is_pub, cfg_gated)
}

/// Walk one fn body collecting loop regions, call sites, and span seeds.
fn scan_body(toks: &[&Token], def: &mut FnDef) {
    let (open, close) = def.body;
    let mut i = open + 1;
    while i < close {
        let t = toks[i];
        if t.kind == TokenKind::Ident {
            if matches!(t.text.as_str(), "for" | "while" | "loop")
                && !toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'))
            {
                if let Some(region) = loop_body(toks, i, close) {
                    def.loops.push(region);
                }
            } else if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                if t.text == "span" {
                    def.has_span = true;
                }
                // `name!` followed by a delimiter is an invocation; a bare
                // `!=` never has an ident directly before it, and macro
                // *definitions* (`macro_rules!`) are item-level.
                if toks
                    .get(i + 2)
                    .is_some_and(|d| d.is_punct('(') || d.is_punct('[') || d.is_punct('{'))
                {
                    def.macros.push(MacroUse {
                        line: t.line,
                        name: t.text.clone(),
                        idx: i,
                    });
                }
            } else if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                // `.method(` with an iterator combinator: the argument span
                // runs per element.
                let prev_dot = back(toks, i, 1).is_some_and(|p| p.is_punct('.'));
                if prev_dot && ITER_METHODS.contains(&t.text.as_str()) {
                    let close_paren = matching_paren(toks, i + 1, close);
                    def.loops.push((i + 1, close_paren));
                }
                if let Some(call) = call_at(toks, i, close) {
                    def.calls.push(call);
                }
            }
        }
        i += 1;
    }
    def.loops.sort_unstable();
}

/// Index of the `)` matching the `(` at `open`, clamped to `limit`.
fn matching_paren(toks: &[&Token], open: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j <= limit && j < toks.len() {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    limit
}

/// The braced body of a `for`/`while`/`loop` starting at `kw`: the first
/// `{` at paren/bracket depth zero (closure braces in the iterated
/// expression sit inside parens and are skipped correctly).
fn loop_body(toks: &[&Token], kw: usize, limit: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = kw + 1;
    while j < limit {
        let t = toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct('{') {
                return Some((j, matching_brace(toks, j)));
            }
            if t.is_punct(';') {
                return None;
            }
        }
        j += 1;
    }
    None
}

/// Classify the `ident (` at `i` as a call site, or `None` for keywords,
/// tuple-struct constructors, and declarations.
fn call_at(toks: &[&Token], i: usize, limit: usize) -> Option<CallSite> {
    let name = &toks[i].text;
    if CALL_KEYWORDS.contains(&name.as_str()) {
        return None;
    }
    let line = toks[i].line;
    let args = (i + 1, matching_paren(toks, i + 1, limit));
    let prev = i.checked_sub(1).map(|p| toks[p]);
    if prev.is_some_and(|p| p.is_ident("fn")) {
        return None;
    }
    if prev.is_some_and(|p| p.is_punct('.')) {
        return Some(CallSite {
            line,
            path: Vec::new(),
            name: name.clone(),
            is_method: true,
            idx: i,
            args,
            recv: receiver_chain(toks, i - 1),
        });
    }
    let is_path_sep = back(toks, i, 1).is_some_and(|p| p.is_punct(':'))
        && back(toks, i, 2).is_some_and(|p| p.is_punct(':'));
    if is_path_sep {
        let path = path_segments(toks, i - 2)?;
        return Some(CallSite {
            line,
            path,
            name: name.clone(),
            is_method: false,
            idx: i,
            args,
            recv: Vec::new(),
        });
    }
    // Bare `Name(` with an uppercase initial is a tuple-struct or enum
    // constructor, not a call we can resolve.
    if name.chars().next().is_some_and(char::is_uppercase) {
        return None;
    }
    Some(CallSite {
        line,
        path: Vec::new(),
        name: name.clone(),
        is_method: false,
        idx: i,
        args,
        recv: Vec::new(),
    })
}

/// The dotted receiver chain of a method call whose `.` sits at `dot`,
/// walking backwards: `self.cache.lock()` yields `["self", "cache"]`,
/// `table().lock()` yields `["table()"]`. Chains the parser cannot model
/// as idents and zero-argument calls (indexing, nested expressions) yield
/// whatever suffix was recognisable, or nothing.
fn receiver_chain(toks: &[&Token], dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = dot; // index of the `.` left of the current component
    while let Some(before) = j.checked_sub(1).map(|p| toks[p]) {
        if before.kind == TokenKind::Ident {
            chain.push(before.text.clone());
            j -= 1;
        } else if before.is_punct(')') {
            // A zero-argument call component: `table()` but not `f(x)`,
            // whose result is an arbitrary expression.
            if !back(toks, j, 2).is_some_and(|p| p.is_punct('(')) {
                break;
            }
            let Some(callee) = j.checked_sub(3).map(|p| toks[p]) else {
                break;
            };
            if callee.kind != TokenKind::Ident {
                break;
            }
            chain.push(format!("{}()", callee.text));
            j -= 3;
        } else {
            break;
        }
        // Another `.` component further left?
        if back(toks, j, 1).is_some_and(|p| p.is_punct('.')) {
            j -= 1;
        } else {
            break;
        }
    }
    chain.reverse();
    chain
}

/// Collect the path segments ending at the `::` whose first `:` sits at
/// `sep` (walking backwards): `a::b::name` yields `["a", "b"]`. A
/// qualified `<Type as Trait>::name` yields `["Type"]`. Returns `None` for
/// shapes the parser does not model (e.g. turbofish on the last segment).
fn path_segments(toks: &[&Token], sep: usize) -> Option<Vec<String>> {
    let mut segs = Vec::new();
    let mut j = sep; // index of the *first* `:` of the trailing `::`
    while let Some(before) = j.checked_sub(1).map(|p| toks[p]) {
        if before.kind == TokenKind::Ident {
            segs.push(before.text.clone());
            // Another `::` further left?
            if back(toks, j, 2).is_some_and(|p| p.is_punct(':'))
                && back(toks, j, 3).is_some_and(|p| p.is_punct(':'))
            {
                j -= 3;
                continue;
            }
            break;
        }
        if before.is_punct('>') {
            // `<Type as Trait>::name`: find the matching `<`, then take the
            // last path segment before `as` as the self type.
            let mut depth = 1i32;
            let mut k = j - 1;
            while k > 0 && depth > 0 {
                k -= 1;
                if toks[k].is_punct('>') {
                    depth += 1;
                } else if toks[k].is_punct('<') {
                    depth -= 1;
                }
            }
            let mut ty: Option<String> = None;
            let mut m = k + 1;
            while m < j - 1 && !toks[m].is_ident("as") {
                if toks[m].kind == TokenKind::Ident {
                    ty = Some(toks[m].text.clone());
                }
                m += 1;
            }
            segs.push(ty?);
            break;
        }
        return None;
    }
    if segs.is_empty() {
        return None;
    }
    segs.reverse();
    Some(segs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    fn find<'a>(p: &'a ParsedFile, name: &str) -> &'a FnDef {
        p.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not parsed"))
    }

    #[test]
    fn fn_items_with_visibility_and_impl_type() {
        let p = parse_src(
            "pub fn free() {}\n\
             pub(crate) fn restricted() {}\n\
             struct S;\n\
             impl S {\n    pub fn method(&self) {}\n    fn private(&self) {}\n}\n\
             impl Clone for S {\n    fn clone(&self) -> S { S }\n}\n",
        );
        assert!(find(&p, "free").is_pub);
        assert!(find(&p, "free").self_type.is_none());
        assert!(!find(&p, "restricted").is_pub);
        let m = find(&p, "method");
        assert!(m.is_pub);
        assert_eq!(m.self_type.as_deref(), Some("S"));
        assert_eq!(find(&p, "clone").self_type.as_deref(), Some("S"));
        assert!(!find(&p, "private").is_pub);
    }

    #[test]
    fn nested_generics_with_shift_right_do_not_break_body_detection() {
        // `>>` lexes as two `>` tokens; the signature scan must still find
        // the body brace.
        let p = parse_src(
            "pub fn deep(v: Vec<Vec<Option<u8>>>) -> Option<Vec<Vec<u8>>> {\n    helper(v)\n}\n\
             fn helper(_v: Vec<Vec<Option<u8>>>) -> Option<Vec<Vec<u8>>> { None }\n",
        );
        let d = find(&p, "deep");
        assert_eq!(d.calls.len(), 1);
        assert_eq!(d.calls[0].name, "helper");
        assert!(find(&p, "helper").calls.is_empty());
    }

    #[test]
    fn calls_inside_macro_bodies_are_seen() {
        let p = parse_src(
            "fn f() {\n    assert_eq!(compute(), other.method());\n    println!(\"{}\", third());\n}\n",
        );
        let f = find(&p, "f");
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["compute", "method", "third"]);
        assert!(f.calls[1].is_method);
    }

    #[test]
    fn qualified_trait_paths_resolve_to_the_self_type() {
        let p = parse_src("fn f() { <Store as Fingerprint>::digest(1); }\n");
        let f = find(&p, "f");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].path, vec!["Store".to_string()]);
        assert_eq!(f.calls[0].name, "digest");
    }

    #[test]
    fn multi_segment_paths_keep_their_qualifiers() {
        let p = parse_src("fn f() { convmeter_graph::liveness::peak(g); pool::run(x); }\n");
        let f = find(&p, "f");
        assert_eq!(f.calls[0].path, vec!["convmeter_graph", "liveness"]);
        assert_eq!(f.calls[0].name, "peak");
        assert_eq!(f.calls[1].path, vec!["pool"]);
    }

    #[test]
    fn cfg_gated_duplicate_fn_items_both_parse() {
        let p = parse_src(
            "#[cfg(loom)]\nfn claim() { loom_claim(); }\n\
             #[cfg(not(loom))]\nfn claim() { std_claim(); }\n",
        );
        let claims: Vec<&FnDef> = p.fns.iter().filter(|f| f.name == "claim").collect();
        assert_eq!(claims.len(), 2);
        assert!(claims.iter().all(|f| f.cfg_gated));
        assert_eq!(claims[0].calls[0].name, "loom_claim");
        assert_eq!(claims[1].calls[0].name, "std_claim");
    }

    #[test]
    fn loop_regions_cover_loops_and_iterator_closures() {
        let src = "fn f(xs: &[u32]) {\n\
                   for x in xs { eat(x); }\n\
                   let v: Vec<u32> = xs.iter().map(|x| cook(x)).collect();\n\
                   let before = prep();\n\
                   }\n";
        let tokens = lex(src);
        let p = parse(&tokens);
        let f = find(&p, "f");
        let idx_of = |name: &str| {
            p.code
                .iter()
                .position(|&ti| tokens[ti].is_ident(name))
                .unwrap_or_else(|| panic!("ident {name} not found"))
        };
        assert!(f.in_loop(idx_of("eat")), "for-loop body is a loop region");
        assert!(f.in_loop(idx_of("cook")), "map closure is a loop region");
        assert!(!f.in_loop(idx_of("prep")), "straight-line code is not");
    }

    #[test]
    fn span_macro_seeds_hotness() {
        let p = parse_src(
            "fn hot() { let _s = convmeter_obs::span!(\"x.y\"); }\nfn cold() { work(); }\n",
        );
        assert!(find(&p, "hot").has_span);
        assert!(!find(&p, "cold").has_span);
    }

    #[test]
    fn fn_pointer_types_and_trait_sigs_are_not_items() {
        let p = parse_src(
            "trait T {\n    fn required(&self) -> u32;\n    fn provided(&self) -> u32 { self.required() }\n}\n\
             const F: fn(usize) -> usize = id;\nfn id(x: usize) -> usize { x }\n",
        );
        assert!(p.fns.iter().all(|f| f.name != "required"));
        assert!(p.fns.iter().any(|f| f.name == "provided"));
        assert!(p.fns.iter().any(|f| f.name == "id"));
    }
}
