//! Per-file analysis context: lexed tokens plus the structural facts every
//! rule needs — which lines are test code, and which findings the author
//! has explicitly suppressed with a justified allow directive.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;

/// A parsed `analyzer:allow` directive: a CA code plus a mandatory
/// double-quoted reason, in parentheses after the marker.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Allow {
    /// The CA code being suppressed (e.g. `"CA0004"`).
    pub code: String,
    /// The mandatory human justification.
    pub reason: String,
    /// 1-based line the directive appears on.
    pub line: u32,
}

/// A directive that looked like an allow but failed to parse. Surfaced as
/// a `CA0000` finding: a suppression that silently fails to suppress is
/// worse than either a clean pass or an honest diagnostic.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MalformedAllow {
    /// 1-based line of the broken directive.
    pub line: u32,
    /// What was wrong with it.
    pub error: String,
}

/// One source file, lexed and annotated for rule evaluation.
///
/// Serialisation (for the parse cache) flattens `allows` to a plain list —
/// each [`Allow`] carries its own line, so the line-keyed map is
/// reconstructed losslessly on load.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Token stream with comments retained.
    pub tokens: Vec<Token>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// Well-formed allow directives, keyed by line.
    pub allows: BTreeMap<u32, Vec<Allow>>,
    /// Directives that failed to parse.
    pub malformed_allows: Vec<MalformedAllow>,
}

impl SourceFile {
    /// Lex and annotate one file. `path` is only metadata (workspace-relative
    /// by convention); the content is taken from `source`.
    #[must_use]
    pub fn parse(path: &str, source: &str) -> SourceFile {
        let tokens = lex(source);
        let test_regions = find_test_regions(&tokens);
        let mut allows: BTreeMap<u32, Vec<Allow>> = BTreeMap::new();
        let mut malformed_allows = Vec::new();
        for token in &tokens {
            if !matches!(token.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            match parse_allow_comment(&token.text, token.line) {
                Ok(Some(allow)) => allows.entry(token.line).or_default().push(allow),
                Ok(None) => {}
                Err(error) => malformed_allows.push(MalformedAllow {
                    line: token.line,
                    error,
                }),
            }
        }
        SourceFile {
            path: path.to_string(),
            tokens,
            test_regions,
            allows,
            malformed_allows,
        }
    }

    /// The file stem (`store` for `crates/bench/src/engine/store.rs`).
    #[must_use]
    pub fn stem(&self) -> &str {
        let name = self.path.rsplit('/').next().unwrap_or(&self.path);
        name.strip_suffix(".rs").unwrap_or(name)
    }

    /// The crate directory under `crates/`, if any (`bench` for
    /// `crates/bench/src/...`).
    #[must_use]
    pub fn crate_name(&self) -> Option<&str> {
        self.path.strip_prefix("crates/")?.split('/').next()
    }

    /// Whether `line` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| (start..=end).contains(&line))
    }

    /// Whether a finding of `code` on `line` is suppressed by a directive
    /// on the same line or a contiguous run of directive lines directly
    /// above it (stacked directives each suppress one code).
    #[must_use]
    pub fn is_allowed(&self, code: &str, line: u32) -> bool {
        let covers = |l: u32| {
            self.allows
                .get(&l)
                .is_some_and(|v| v.iter().any(|a| a.code == code))
        };
        if covers(line) {
            return true;
        }
        let mut l = line;
        while l > 0 && self.allows.contains_key(&(l - 1)) {
            l -= 1;
            if covers(l) {
                return true;
            }
        }
        false
    }

    /// Every well-formed allow directive in the file, in line order.
    pub fn all_allows(&self) -> impl Iterator<Item = &Allow> {
        self.allows.values().flatten()
    }
}

// Hand-written parse-cache serialisation: the serde shim only deserialises
// string-keyed maps, so the line-keyed `allows` map travels as a flat list
// and is regrouped by each directive's own `line` on load.
impl serde::Serialize for SourceFile {
    fn to_value(&self) -> serde::value::Value {
        let allows: Vec<Allow> = self.allows.values().flatten().cloned().collect();
        serde::value::Value::Object(vec![
            (serde::value::Key::from("path"), self.path.to_value()),
            (serde::value::Key::from("tokens"), self.tokens.to_value()),
            (
                serde::value::Key::from("test_regions"),
                self.test_regions.to_value(),
            ),
            (serde::value::Key::from("allows"), allows.to_value()),
            (
                serde::value::Key::from("malformed_allows"),
                self.malformed_allows.to_value(),
            ),
        ])
    }
}

impl serde::Deserialize for SourceFile {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        let Some(pairs) = v.as_object() else {
            return Err(serde::de::Error::custom("SourceFile: expected an object"));
        };
        let flat: Vec<Allow> = serde::de::field(pairs, "allows")?;
        let mut allows: BTreeMap<u32, Vec<Allow>> = BTreeMap::new();
        for a in flat {
            allows.entry(a.line).or_default().push(a);
        }
        Ok(SourceFile {
            path: serde::de::field(pairs, "path")?,
            tokens: serde::de::field(pairs, "tokens")?,
            test_regions: serde::de::field(pairs, "test_regions")?,
            allows,
            malformed_allows: serde::de::field(pairs, "malformed_allows")?,
        })
    }
}

/// Format a directive exactly the way [`parse_allow_comment`] reads it.
/// The analyzer's tests round-trip through this pair.
#[must_use]
pub fn format_allow(code: &str, reason: &str) -> String {
    format!(
        "// analyzer:allow({code}, reason = \"{}\")",
        escape_reason(reason)
    )
}

fn escape_reason(reason: &str) -> String {
    reason.replace('\\', "\\\\").replace('"', "\\\"")
}

const DIRECTIVE: &str = "analyzer:allow(";

/// Parse an allow directive out of one comment's text.
///
/// Returns `Ok(None)` when the comment contains no directive, `Ok(Some)`
/// for a well-formed one, and `Err` with a description when a directive is
/// present but broken (unknown shape, missing reason, empty reason).
pub fn parse_allow_comment(comment: &str, line: u32) -> Result<Option<Allow>, String> {
    let Some(at) = comment.find(DIRECTIVE) else {
        return Ok(None);
    };
    let Some(rest) = comment[at..].strip_prefix(DIRECTIVE) else {
        return Ok(None);
    };
    let mut chars = rest.char_indices().peekable();

    let code: String = rest
        .chars()
        .take_while(char::is_ascii_alphanumeric)
        .collect();
    if code.len() != 6
        || !(code.starts_with("CA")
            || code.starts_with("CP")
            || code.starts_with("CD")
            || code.starts_with("CB"))
        || !code[2..].chars().all(|c| c.is_ascii_digit())
    {
        return Err(format!(
            "allow code must look like CA0004, CP0001, CD0001, or CB0001, got {:?}",
            code
        ));
    }
    for _ in 0..code.len() {
        chars.next();
    }

    skip_spaces(&mut chars);
    if chars.next().map(|(_, c)| c) != Some(',') {
        return Err("expected ',' after the CA code".to_string());
    }
    skip_spaces(&mut chars);
    for expected in "reason".chars() {
        if chars.next().map(|(_, c)| c) != Some(expected) {
            return Err("expected `reason = \"...\"` after the CA code".to_string());
        }
    }
    skip_spaces(&mut chars);
    if chars.next().map(|(_, c)| c) != Some('=') {
        return Err("expected '=' after `reason`".to_string());
    }
    skip_spaces(&mut chars);
    if chars.next().map(|(_, c)| c) != Some('"') {
        return Err("reason must be a double-quoted string".to_string());
    }

    let mut reason = String::new();
    let mut closed = false;
    while let Some((_, c)) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some((_, escaped @ ('"' | '\\'))) => reason.push(escaped),
                Some((_, other)) => {
                    reason.push('\\');
                    reason.push(other);
                }
                None => break,
            }
        } else if c == '"' {
            closed = true;
            break;
        } else {
            reason.push(c);
        }
    }
    if !closed {
        return Err("unterminated reason string".to_string());
    }
    skip_spaces(&mut chars);
    if chars.next().map(|(_, c)| c) != Some(')') {
        return Err("expected ')' closing the directive".to_string());
    }
    if reason.trim().is_empty() {
        return Err("reason must not be empty: justify the suppression".to_string());
    }
    Ok(Some(Allow { code, reason, line }))
}

fn skip_spaces(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
    while chars.peek().is_some_and(|&(_, c)| c == ' ') {
        chars.next();
    }
}

/// Find line ranges covered by `#[cfg(test)]` (or `#[cfg(any/all(.. test ..))]`)
/// items: the attribute plus the braced item that follows it. Items that
/// end in `;` before any brace (e.g. a cfg'd `use`) cover only their own
/// statement.
fn find_test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut regions = Vec::new();
    let at = |k: usize| code.get(k).map(|&(_, t)| t);
    let mut i = 0;
    while i + 3 < code.len() {
        // `# [ cfg ( ... test ... ) ]`
        let is_attr = code[i].1.is_punct('#')
            && at(i + 1).is_some_and(|t| t.is_punct('['))
            && at(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && at(i + 3).is_some_and(|t| t.is_punct('('));
        if !is_attr {
            i += 1;
            continue;
        }
        let start_line = code[i].1.line;
        // Scan the attribute's parens for a bare `test` ident.
        let mut j = i + 4;
        let mut depth = 1usize;
        let mut has_test = false;
        while j < code.len() && depth > 0 {
            let t = code[j].1;
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
            } else if t.is_ident("test") {
                has_test = true;
            }
            j += 1;
        }
        // Expect the closing `]`.
        if j < code.len() && code[j].1.is_punct(']') {
            j += 1;
        }
        if !has_test {
            i = j;
            continue;
        }
        // Attach to the following item: a braced body, or a `;`-terminated
        // statement, whichever comes first.
        let mut end_line = code.get(j).map_or(start_line, |(_, t)| t.line);
        let mut k = j;
        while k < code.len() {
            let t = code[k].1;
            if t.is_punct(';') {
                end_line = t.line;
                break;
            }
            if t.is_punct('{') {
                let mut braces = 1usize;
                k += 1;
                while k < code.len() && braces > 0 {
                    let inner = code[k].1;
                    if inner.is_punct('{') {
                        braces += 1;
                    } else if inner.is_punct('}') {
                        braces -= 1;
                    }
                    end_line = inner.line;
                    k += 1;
                }
                break;
            }
            end_line = t.line;
            k += 1;
        }
        regions.push((start_line, end_line));
        i = k.max(j);
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_round_trip() {
        let formatted = format_allow("CA0004", "store op cannot fail; see doc");
        let parsed = parse_allow_comment(&formatted, 7)
            .expect("well-formed")
            .expect("present");
        assert_eq!(parsed.code, "CA0004");
        assert_eq!(parsed.reason, "store op cannot fail; see doc");
        assert_eq!(parsed.line, 7);
    }

    #[test]
    fn cp_codes_are_valid_allow_targets() {
        let formatted = format_allow("CP0005", "slot-publication protocol; loom-checked");
        let parsed = parse_allow_comment(&formatted, 3)
            .expect("well-formed")
            .expect("present");
        assert_eq!(parsed.code, "CP0005");
    }

    #[test]
    fn allow_with_escaped_quotes() {
        let formatted = format_allow("CA0005", r#"compares "exact" zero"#);
        let parsed = parse_allow_comment(&formatted, 1)
            .expect("well-formed")
            .expect("present");
        assert_eq!(parsed.reason, r#"compares "exact" zero"#);
    }

    #[test]
    fn malformed_allows_are_errors_not_silence() {
        for bad in [
            "// analyzer:allow(CA4, reason = \"short code\")",
            "// analyzer:allow(CA0004)",
            "// analyzer:allow(CA0004, reason = \"\")",
            "// analyzer:allow(CA0004, reason = \"unterminated)",
            "// analyzer:allow(XX0004, reason = \"bad prefix\")",
        ] {
            assert!(parse_allow_comment(bad, 1).is_err(), "{bad}");
        }
    }

    #[test]
    fn non_directive_comments_pass_through() {
        assert_eq!(parse_allow_comment("// just a comment", 1), Ok(None));
        assert_eq!(parse_allow_comment("// allow me to explain", 1), Ok(None));
    }

    #[test]
    fn test_regions_cover_mod_tests() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn tail() {}\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!file.in_test_region(1));
        assert!(file.in_test_region(2));
        assert!(file.in_test_region(4));
        assert!(file.in_test_region(5));
        assert!(!file.in_test_region(6));
    }

    #[test]
    fn cfg_test_use_statement_is_narrow() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn real() { body(); }\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(file.in_test_region(2));
        assert!(!file.in_test_region(3));
    }

    #[test]
    fn allow_applies_to_same_and_next_line() {
        let src = "// analyzer:allow(CA0004, reason = \"contract\")\nfoo();\nbar();\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(file.is_allowed("CA0004", 1));
        assert!(file.is_allowed("CA0004", 2));
        assert!(!file.is_allowed("CA0004", 3));
        assert!(!file.is_allowed("CA0001", 2));
    }

    #[test]
    fn stacked_allows_all_cover_the_line_below_the_run() {
        let src = "// analyzer:allow(CA0003, reason = \"validated upstream\")\n\
                   // analyzer:allow(CA0007, reason = \"bound holds by construction\")\n\
                   risky();\nafter();\n";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(file.is_allowed("CA0003", 3));
        assert!(file.is_allowed("CA0007", 3));
        assert!(!file.is_allowed("CA0003", 4));
        assert!(!file.is_allowed("CA0004", 3));
    }
}
