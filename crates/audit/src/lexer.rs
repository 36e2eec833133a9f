//! A zero-dependency Rust lexer for the workspace's own sources.
//!
//! The analyzer ([`crate::analyze`]) needs to see *code* — not comments,
//! not string literals, not doc text — and blanking non-code byte ranges
//! with ad-hoc scanners breaks down exactly where Rust's grammar is
//! lexical: byte strings, raw byte strings, nested block comments,
//! lifetimes vs char literals. This module lexes for real.
//!
//! Design points:
//!
//! * **Lossless.** The lexer emits *trivia* (whitespace, comments) as
//!   tokens alongside code tokens, and every token carries its exact
//!   byte span in the input. Concatenating the text of all tokens
//!   reproduces the input byte-for-byte — property-tested against every
//!   source file in the workspace (`tests/lexer_roundtrip.rs`).
//! * **Full literal coverage.** Plain/raw/byte/raw-byte strings
//!   (`"…"`, `r#"…"#`, `b"…"`, `br##"…"##`), char and byte-char
//!   literals, numeric literals with suffix detection (so the analyzer
//!   knows a `1.0f32` from a `1u64`), and lifetimes disambiguated from
//!   char literals.
//! * **No allocation per token body.** Tokens are `(kind, span, line)`;
//!   text is always borrowed from the input on demand.
//!
//! The lexer is *permissive*: on malformed input (unterminated string,
//! stray byte) it produces an `Unknown` token rather than failing, so an
//! analysis run never aborts on a source file mid-edit.

use std::ops::Range;

/// Delimiter flavor for `Open`/`Close` tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delim {
    /// `(` / `)`
    Paren,
    /// `[` / `]`
    Bracket,
    /// `{` / `}`
    Brace,
}

/// Literal flavor, carried on [`TokKind::Literal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LitKind {
    /// `"…"` and `r#"…"#`.
    Str,
    /// `b"…"` and `br#"…"#`.
    ByteStr,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// Integer literal, including based forms (`0xff`, `0b01`) and
    /// suffixed forms (`1u64`).
    Int,
    /// Float literal (`1.0`, `1e9`, `1.0f32`).
    Float,
}

/// Token classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `r#raw` identifiers).
    Ident,
    /// `'a` — a lifetime or loop label.
    Lifetime,
    /// Any literal; see [`LitKind`].
    Literal(LitKind),
    /// One punctuation byte (`.`, `:`, `=`, `&`, …). Multi-byte
    /// operators appear as consecutive `Punct` tokens; the passes that
    /// care (e.g. `+=` detection) peek at neighbors.
    Punct,
    /// Opening delimiter.
    Open(Delim),
    /// Closing delimiter.
    Close(Delim),
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// …` or `/* … */` (nested), including doc comments. The
    /// distinction the passes need — line vs block, doc vs plain — is
    /// recoverable from the token text.
    Comment,
    /// A byte the lexer could not classify (malformed input).
    Unknown,
}

/// One token: classification plus exact source span.
#[derive(Clone, Debug)]
pub struct Token {
    /// What kind of token.
    pub kind: TokKind,
    /// Byte range in the input; `input[span.clone()]` is the token text.
    pub span: Range<usize>,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

impl Token {
    /// The token's text within `src` (the string it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.span.clone()]
    }

    /// Is this a code token (not whitespace/comment)?
    pub fn is_code(&self) -> bool {
        !matches!(self.kind, TokKind::Whitespace | TokKind::Comment)
    }
}

/// Lex `src` into a lossless token stream (code + trivia).
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::with_capacity(self.src.len() / 4);
        while self.pos < self.src.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must make progress");
            out.push(Token {
                kind,
                span: start..self.pos,
                line,
            });
        }
        out
    }

    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    /// Advance `n` bytes, counting newlines.
    fn bump(&mut self, n: usize) {
        for i in 0..n {
            if self.src.get(self.pos + i) == Some(&b'\n') {
                self.line += 1;
            }
        }
        self.pos += n;
    }

    fn next_kind(&mut self) -> TokKind {
        let c = self.peek(0);
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                while matches!(self.peek(0), b' ' | b'\t' | b'\r' | b'\n') {
                    self.bump(1);
                }
                TokKind::Whitespace
            }
            b'/' if self.peek(1) == b'/' => {
                while self.pos < self.src.len() && self.peek(0) != b'\n' {
                    self.bump(1);
                }
                TokKind::Comment
            }
            b'/' if self.peek(1) == b'*' => {
                self.bump(2);
                let mut depth = 1u32;
                while self.pos < self.src.len() && depth > 0 {
                    if self.peek(0) == b'/' && self.peek(1) == b'*' {
                        depth += 1;
                        self.bump(2);
                    } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                        depth -= 1;
                        self.bump(2);
                    } else {
                        self.bump(1);
                    }
                }
                TokKind::Comment
            }
            b'"' => self.string_lit(LitKind::Str),
            b'\'' => self.char_or_lifetime(),
            b'(' => self.one(TokKind::Open(Delim::Paren)),
            b')' => self.one(TokKind::Close(Delim::Paren)),
            b'[' => self.one(TokKind::Open(Delim::Bracket)),
            b']' => self.one(TokKind::Close(Delim::Bracket)),
            b'{' => self.one(TokKind::Open(Delim::Brace)),
            b'}' => self.one(TokKind::Close(Delim::Brace)),
            b'0'..=b'9' => self.number(),
            _ if is_ident_start(c) => self.ident_or_prefixed(),
            _ if c < 0x80 => self.one(TokKind::Punct),
            _ => {
                // Multi-byte UTF-8 scalar outside a literal (e.g. in a
                // doc attribute); consume the whole scalar.
                let mut n = 1;
                while self.peek(n) & 0xC0 == 0x80 {
                    n += 1;
                }
                self.bump(n);
                TokKind::Unknown
            }
        }
    }

    fn one(&mut self, kind: TokKind) -> TokKind {
        self.bump(1);
        kind
    }

    /// Identifier, keyword, or a literal-prefix sigil: `r"…"`, `r#"…"#`,
    /// `r#ident`, `b"…"`, `br#"…"#`, `b'x'`.
    fn ident_or_prefixed(&mut self) -> TokKind {
        let c = self.peek(0);
        // Raw strings: r"…", r#…, br…, and byte strings/chars: b"…", b'…'.
        if c == b'r' || c == b'b' {
            let (raw_off, byte) = if c == b'b' && self.peek(1) == b'r' {
                (2, true)
            } else if c == b'r' {
                (1, false)
            } else {
                (1, true) // b"…" / b'…' — offset 1 past the 'b'
            };
            if c == b'b' && raw_off == 1 {
                match self.peek(1) {
                    b'"' => {
                        self.bump(1);
                        return self.string_lit(LitKind::ByteStr);
                    }
                    b'\'' => {
                        self.bump(1);
                        return self.char_lit(LitKind::Char);
                    }
                    _ => {}
                }
            } else {
                // r… or br…: raw string if what follows is #* then ".
                let mut k = raw_off;
                while self.peek(k) == b'#' {
                    k += 1;
                }
                if self.peek(k) == b'"' {
                    let hashes = k - raw_off;
                    self.bump(k + 1); // prefix, hashes, opening quote
                    return self.raw_string_tail(
                        hashes,
                        if byte { LitKind::ByteStr } else { LitKind::Str },
                    );
                }
                // r#ident (raw identifier): consume as one ident.
                if c == b'r' && self.peek(1) == b'#' && is_ident_start(self.peek(2)) {
                    self.bump(2);
                    return self.ident_tail();
                }
            }
        }
        self.ident_tail()
    }

    fn ident_tail(&mut self) -> TokKind {
        while is_ident_continue(self.peek(0)) {
            self.bump(1);
        }
        TokKind::Ident
    }

    /// A `"…"`-style literal, cursor on the opening quote.
    fn string_lit(&mut self, kind: LitKind) -> TokKind {
        self.bump(1);
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => self.bump(2.min(self.src.len() - self.pos)),
                b'"' => {
                    self.bump(1);
                    return TokKind::Literal(kind);
                }
                _ => self.bump(1),
            }
        }
        TokKind::Literal(kind) // unterminated: permissive
    }

    /// Tail of a raw string, cursor just past the opening quote.
    fn raw_string_tail(&mut self, hashes: usize, kind: LitKind) -> TokKind {
        while self.pos < self.src.len() {
            if self.peek(0) == b'"' {
                let mut h = 0;
                while h < hashes && self.peek(1 + h) == b'#' {
                    h += 1;
                }
                if h == hashes {
                    self.bump(1 + hashes);
                    return TokKind::Literal(kind);
                }
            }
            self.bump(1);
        }
        TokKind::Literal(kind)
    }

    /// A `'…'` char literal, cursor on the opening quote (the `b` of a
    /// byte char has already been consumed).
    fn char_lit(&mut self, kind: LitKind) -> TokKind {
        self.bump(1);
        if self.peek(0) == b'\\' {
            self.bump(2.min(self.src.len() - self.pos));
            // Escapes like \u{1F600} run to the closing brace.
            while self.pos < self.src.len() && self.peek(0) != b'\'' {
                self.bump(1);
            }
        } else if self.pos < self.src.len() {
            // One scalar, possibly multi-byte.
            let mut n = 1;
            while self.peek(n) & 0xC0 == 0x80 {
                n += 1;
            }
            self.bump(n);
        }
        if self.peek(0) == b'\'' {
            self.bump(1);
        }
        TokKind::Literal(kind)
    }

    /// Disambiguate `'a` (lifetime/label) from `'x'` (char literal),
    /// cursor on the quote. A quote followed by an identifier that is
    /// *not* closed by another quote is a lifetime.
    fn char_or_lifetime(&mut self) -> TokKind {
        if is_ident_start(self.peek(1)) {
            // Scan the identifier; if a quote immediately follows it is
            // a (single-char or malformed) char literal like 'x'.
            let mut k = 2;
            while is_ident_continue(self.peek(k)) {
                k += 1;
            }
            if self.peek(k) != b'\'' {
                self.bump(k);
                return TokKind::Lifetime;
            }
        }
        self.char_lit(LitKind::Char)
    }

    /// Numeric literal, cursor on the first digit.
    fn number(&mut self) -> TokKind {
        let mut kind = LitKind::Int;
        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            self.bump(2);
            while is_ident_continue(self.peek(0)) {
                self.bump(1);
            }
            return TokKind::Literal(LitKind::Int);
        }
        while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
            self.bump(1);
        }
        // Fractional part: a dot followed by a digit (not `1..2` or
        // `x.method()`).
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            kind = LitKind::Float;
            self.bump(1);
            while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                self.bump(1);
            }
        } else if self.peek(0) == b'.' && !is_ident_start(self.peek(1)) && self.peek(1) != b'.' {
            // `1.` trailing-dot float.
            kind = LitKind::Float;
            self.bump(1);
        }
        // Exponent.
        if matches!(self.peek(0), b'e' | b'E')
            && (self.peek(1).is_ascii_digit()
                || (matches!(self.peek(1), b'+' | b'-') && self.peek(2).is_ascii_digit()))
        {
            kind = LitKind::Float;
            self.bump(2);
            while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                self.bump(1);
            }
        }
        // Suffix (u64, f32, …): `f32`/`f64` force float.
        if is_ident_start(self.peek(0)) {
            let start = self.pos;
            while is_ident_continue(self.peek(0)) {
                self.bump(1);
            }
            let suffix = &self.src[start..self.pos];
            if suffix == b"f32" || suffix == b"f64" {
                kind = LitKind::Float;
            }
        }
        TokKind::Literal(kind)
    }
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_continue(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) {
        let toks = lex(src);
        let mut rebuilt = String::new();
        let mut prev_end = 0;
        for t in &toks {
            assert_eq!(t.span.start, prev_end, "gap/overlap at {:?}", t.span);
            prev_end = t.span.end;
            rebuilt.push_str(t.text(src));
        }
        assert_eq!(prev_end, src.len());
        assert_eq!(rebuilt, src);
    }

    #[test]
    fn roundtrips_basics() {
        roundtrip("fn main() { let x = 1 + 2; }\n");
        roundtrip("// comment\n/* block /* nested */ */ fn f() {}\n");
        roundtrip("let s = \"str with \\\" quote\"; let c = 'x'; let lt: &'a str;\n");
        roundtrip("let r = r#\"raw \" body\"#; let b = b\"bytes\"; let br = br##\"x\"##;\n");
        roundtrip("let n = 0xFF_u64 + 1.5e-9 + 2f32 + 3usize; let t = (1..4, a..=b);\n");
        roundtrip("");
        roundtrip("🦀 'λ' \"émoji\"");
    }

    #[test]
    fn byte_strings_are_literals() {
        let toks = lex("let x = b\"panic!\"; let y = br#\"unwrap()\"#;");
        let lits: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Literal(LitKind::ByteStr)))
            .collect();
        assert_eq!(lits.len(), 2);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal(LitKind::Char))
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn float_vs_int_classification() {
        let kinds: Vec<LitKind> = lex("1 1.5 1e9 2.0f64 3f32 7u64 0x1f 1..2")
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Literal(k) => Some(k),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                LitKind::Int,
                LitKind::Float,
                LitKind::Float,
                LitKind::Float,
                LitKind::Float,
                LitKind::Int,
                LitKind::Int,
                LitKind::Int,
                LitKind::Int,
            ]
        );
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = lex("let r#fn = 1;");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.span == (4..8)));
    }
}
