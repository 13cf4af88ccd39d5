//! A small Rust lexer, sufficient for token-level lint rules.
//!
//! The workspace builds offline (no `syn`), so the analyzer works on a
//! token stream instead of an AST. The lexer understands everything that
//! could make naive text matching lie: line and (nested) block comments,
//! string / raw-string / byte-string / char literals, lifetimes, numeric
//! literals with suffixes, and multi-character punctuation. Comments are
//! *retained* as tokens — the allow-directive parser reads them — and every
//! token carries its 1-based source line.

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `unwrap`, ...).
    Ident,
    /// Any literal: string, raw string, char, byte, or number.
    Literal,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// One punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// `// ...` comment, text including the slashes.
    LineComment,
    /// `/* ... */` comment (nesting folded into one token).
    BlockComment,
}

/// One lexed token: kind, verbatim text, and 1-based starting line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification used by the rules.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl Token {
    /// Whether this token is the identifier `name`.
    #[must_use]
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// Whether this token is the single punctuation character `ch`.
    #[must_use]
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(ch)
    }
}

/// Lex `source` into tokens (comments included). The lexer never fails:
/// unterminated constructs simply consume to end of input, which is the
/// useful behaviour for linting work-in-progress files.
#[must_use]
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            if c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment(line);
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment(line);
            } else if c == '"' {
                self.string_literal(line);
            } else if c == 'r' && self.raw_string_ahead(1) {
                self.raw_string(line, 1);
            } else if (c == 'b' && self.peek(1) == Some('r')) && self.raw_string_ahead(2) {
                self.raw_string(line, 2);
            } else if c == 'b' && self.peek(1) == Some('"') {
                self.bump();
                self.string_literal(line);
            } else if c == 'b' && self.peek(1) == Some('\'') {
                self.bump();
                self.char_literal(line);
            } else if c == '\'' {
                self.lifetime_or_char(line);
            } else if c.is_ascii_digit() {
                self.number(line);
            } else if c == '_' || c.is_alphanumeric() {
                self.ident(line);
            } else {
                self.bump();
                self.push(TokenKind::Punct, c.to_string(), line);
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::LineComment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::BlockComment, text, line);
    }

    fn string_literal(&mut self, line: u32) {
        let mut text = String::new();
        text.push(self.bump().unwrap_or('"')); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(escaped) = self.bump() {
                    text.push(escaped);
                }
            } else if c == '"' {
                break;
            }
        }
        self.push(TokenKind::Literal, text, line);
    }

    /// Is `r`/`br` at the current position followed by `#*"`?
    fn raw_string_ahead(&self, after: usize) -> bool {
        let mut i = after;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn raw_string(&mut self, line: u32, prefix_len: usize) {
        let mut text = String::new();
        for _ in 0..prefix_len {
            if let Some(c) = self.bump() {
                text.push(c);
            }
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        if let Some(q) = self.bump() {
            text.push(q); // opening quote
        }
        let closer: String = std::iter::once('"')
            .chain((0..hashes).map(|_| '#'))
            .collect();
        let mut tail = String::new();
        while let Some(c) = self.bump() {
            tail.push(c);
            if tail.ends_with(&closer) {
                break;
            }
        }
        text.push_str(&tail);
        self.push(TokenKind::Literal, text, line);
    }

    fn char_literal(&mut self, line: u32) {
        let mut text = String::new();
        text.push(self.bump().unwrap_or('\'')); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(escaped) = self.bump() {
                    text.push(escaped);
                }
            } else if c == '\'' {
                break;
            }
        }
        self.push(TokenKind::Literal, text, line);
    }

    /// `'` starts either a lifetime (`'a`, `'static`) or a char literal
    /// (`'x'`, `'\n'`). Disambiguate by looking for the closing quote.
    fn lifetime_or_char(&mut self, line: u32) {
        let next = self.peek(1);
        let after = self.peek(2);
        let is_char =
            matches!(next, Some('\\')) || (next.is_some_and(|c| c != '\'') && after == Some('\''));
        if is_char {
            self.char_literal(line);
        } else {
            let mut text = String::from(self.bump().unwrap_or('\''));
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text, line);
        }
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        // Digits, underscores, radix/exponent letters, a float dot, and
        // type suffixes all glue into one literal token; `1..n` must not
        // swallow the range operator.
        while let Some(c) = self.peek(0) {
            let glue = if c == '.' {
                // Not part of the literal: a `1..n` range operator, a
                // method call on a float (`1.0.max`), or a `1.max(2)`
                // style method call on an integer.
                self.peek(1) != Some('.')
                    && !text.contains('.')
                    && !self
                        .peek(1)
                        .is_some_and(|d| d.is_alphabetic() && !d.is_ascii_digit())
            } else {
                c == '_'
                    || c.is_alphanumeric()
                    || ((c == '+' || c == '-') && text.ends_with(['e', 'E']))
            };
            if !glue {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::Literal, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_are_retained_with_lines() {
        let toks = lex("a // one\n/* two\nlines */ b");
        assert_eq!(toks[1].kind, TokenKind::LineComment);
        assert_eq!(toks[1].line, 1);
        assert_eq!(toks[2].kind, TokenKind::BlockComment);
        assert_eq!(toks[2].line, 2);
        assert_eq!(toks[3].text, "b");
        assert_eq!(toks[3].line, 3);
    }

    #[test]
    fn strings_do_not_leak_idents() {
        let toks = kinds(r#"let x = "HashMap::unwrap()";"#);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "HashMap"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t.contains("HashMap")));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let toks = kinds(r##"let s = r#"quote " inside"#; let c = '\''; let b = b"x";"##);
        let lits: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Literal)
            .collect();
        assert_eq!(lits.len(), 3);
        assert!(lits[0].1.starts_with("r#\""));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text == "'x'"));
    }

    #[test]
    fn numbers_with_suffixes_and_ranges() {
        let toks = kinds("0..10 1.5f64 0xff_u8 1e-3 2.0e+4");
        let lits: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Literal)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lits, vec!["0", "10", "1.5f64", "0xff_u8", "1e-3", "2.0e+4"]);
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* outer /* inner */ still */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn float_method_calls_split() {
        let toks = kinds("1.max(2) 3.0.sqrt()");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t == "1"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "max"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Literal && t == "3.0"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "sqrt"));
    }
}
