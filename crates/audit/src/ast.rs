//! A lightweight item/expression layer over the [`crate::lexer`] token
//! stream.
//!
//! This is not a full Rust parser — it recovers exactly the structure
//! the analysis passes need, from tokens instead of byte heuristics:
//!
//! * every `fn` item (free, `impl`-associated, nested), with its
//!   signature and body as token ranges and its enclosing `impl` type;
//! * every *named closure* (`let name = |…| …;`), indexed like a
//!   function so the call graph can follow `gather(lo, hi)` into the
//!   closure the caller defined two lines up;
//! * `#[cfg(test)]` item ranges (token and byte), so gates skip test
//!   code structurally rather than by brace counting;
//! * `macro_rules!` definition bodies (pattern text, not code — the
//!   passes must not analyze them);
//! * closure literals at call sites (`.map(|x| …)`, `spawn(move || …)`)
//!   with parameter and body token ranges.
//!
//! Token indices used throughout refer to the file's **full** token
//! vector (trivia included) as produced by [`crate::lexer::lex`].

use crate::lexer::{lex, Delim, TokKind, Token};
use std::ops::Range;

/// One parsed source file.
#[derive(Debug)]
pub struct File {
    /// Repo-relative label used in diagnostics.
    pub label: String,
    /// The file's text.
    pub src: String,
    /// Lossless token stream (code + trivia).
    pub tokens: Vec<Token>,
    /// Byte ranges of `#[cfg(test)]` items.
    pub test_spans: Vec<Range<usize>>,
    /// Byte ranges of `macro_rules!` definition bodies.
    pub macro_def_spans: Vec<Range<usize>>,
    /// Byte ranges of `thread_local! { … }` invocation bodies. Interior
    /// mutability declared there is per-thread by construction, so the
    /// capture passes exempt it.
    pub thread_local_spans: Vec<Range<usize>>,
}

impl File {
    /// Lex and item-scan one source file.
    pub fn parse(label: &str, src: String) -> File {
        let tokens = lex(&src);
        let mut f = File {
            label: label.to_owned(),
            src,
            tokens,
            test_spans: Vec::new(),
            macro_def_spans: Vec::new(),
            thread_local_spans: Vec::new(),
        };
        f.scan_masked_spans();
        f
    }

    /// Is byte offset `off` inside `#[cfg(test)]` code?
    pub fn in_tests(&self, off: usize) -> bool {
        self.test_spans.iter().any(|r| r.contains(&off))
    }

    /// Is byte offset `off` inside a `macro_rules!` definition body?
    pub fn in_macro_def(&self, off: usize) -> bool {
        self.macro_def_spans.iter().any(|r| r.contains(&off))
    }

    /// Is byte offset `off` inside a `thread_local! { … }` body?
    pub fn in_thread_local(&self, off: usize) -> bool {
        self.thread_local_spans.iter().any(|r| r.contains(&off))
    }

    /// Index of the next code token at or after `i`.
    pub fn next_code(&self, mut i: usize) -> Option<usize> {
        while i < self.tokens.len() {
            if self.tokens[i].is_code() {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Index of the previous code token strictly before `i`.
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| self.tokens[j].is_code())
    }

    /// Token text helper.
    pub fn text(&self, i: usize) -> &str {
        self.tokens[i].text(&self.src)
    }

    /// Does the code token at `i` equal `s`?
    pub fn is(&self, i: usize, s: &str) -> bool {
        self.text(i) == s
    }

    /// If the code tokens starting *at* `i` spell `pat`, one token per
    /// entry with trivia between them ignored (`::` is two `:` tokens),
    /// the index of the token matching the last entry.
    pub fn spells(&self, i: usize, pat: &[&str]) -> Option<usize> {
        let (first, rest) = pat.split_first()?;
        if i >= self.tokens.len() || !self.tokens[i].is_code() || !self.is(i, first) {
            return None;
        }
        rest.iter()
            .try_fold(i, |j, p| self.next_code(j + 1).filter(|&k| self.is(k, p)))
    }

    /// Find the delimiter matching the one at token `i` (same flavor,
    /// depth-balanced): forward from an opener to its closer, backward
    /// from a closer to its opener. If unbalanced, returns the last
    /// (respectively first) token; for a non-delimiter, `i` itself.
    pub fn matching(&self, i: usize) -> usize {
        let (d, forward) = match self.tokens[i].kind {
            TokKind::Open(d) => (d, true),
            TokKind::Close(d) => (d, false),
            _ => return i,
        };
        let mut depth = 0usize;
        let mut k = i;
        loop {
            match self.tokens[k].kind {
                TokKind::Open(x) | TokKind::Close(x) if x != d => {}
                TokKind::Open(_) if forward => depth += 1,
                TokKind::Close(_) if !forward => depth += 1,
                TokKind::Open(_) | TokKind::Close(_) => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
            if forward && k + 1 < self.tokens.len() {
                k += 1;
            } else if !forward && k > 0 {
                k -= 1;
            } else {
                return k;
            }
        }
    }

    /// Record `#[cfg(test)]` item spans and `macro_rules!` bodies.
    fn scan_masked_spans(&mut self) {
        let n = self.tokens.len();
        let mut i = 0;
        while i < n {
            if !self.tokens[i].is_code() {
                i += 1;
                continue;
            }
            // #[cfg(test)] — or #[cfg(any(test, …))] etc.
            if self.is(i, "#") {
                if let Some(j) = self.next_code(i + 1) {
                    if self.tokens[j].kind == TokKind::Open(Delim::Bracket) {
                        let close = self.matching(j);
                        let attr_text: String = (j..=close)
                            .filter(|&k| self.tokens[k].is_code())
                            .map(|k| self.text(k).to_owned())
                            .collect();
                        if attr_text.contains("cfg") && attr_text.contains("test") {
                            if let Some(span) = self.item_span_after(close + 1) {
                                self.test_spans.push(span);
                            }
                        }
                        i = close + 1;
                        continue;
                    }
                }
            }
            // thread_local! { … }
            if self.is(i, "thread_local") {
                if let Some(bang) = self.next_code(i + 1) {
                    if self.is(bang, "!") {
                        if let Some(open) = self.next_code(bang + 1) {
                            if matches!(self.tokens[open].kind, TokKind::Open(Delim::Brace)) {
                                let close = self.matching(open);
                                self.thread_local_spans.push(
                                    self.tokens[open].span.start..self.tokens[close].span.end,
                                );
                                i = close + 1;
                                continue;
                            }
                        }
                    }
                }
            }
            // macro_rules! name { … }
            if self.is(i, "macro_rules") {
                if let Some(bang) = self.next_code(i + 1) {
                    if self.is(bang, "!") {
                        let mut j = bang + 1;
                        while let Some(k) = self.next_code(j) {
                            if matches!(self.tokens[k].kind, TokKind::Open(Delim::Brace)) {
                                let close = self.matching(k);
                                self.macro_def_spans
                                    .push(self.tokens[k].span.start..self.tokens[close].span.end);
                                i = close + 1;
                                break;
                            }
                            j = k + 1;
                            if self.tokens[k].kind == TokKind::Punct && self.is(k, ";") {
                                break;
                            }
                        }
                        continue;
                    }
                }
            }
            i += 1;
        }
    }

    /// Byte span of the item starting at or after token `from`: runs to
    /// the matching close of its first top-level `{…}` (or through `;`
    /// for brace-less items). Skips over further attributes.
    fn item_span_after(&self, from: usize) -> Option<Range<usize>> {
        let mut i = self.next_code(from)?;
        // Skip stacked attributes: #[test] #[ignore] fn …
        while self.is(i, "#") {
            let j = self.next_code(i + 1)?;
            if self.tokens[j].kind != TokKind::Open(Delim::Bracket) {
                break;
            }
            i = self.next_code(self.matching(j) + 1)?;
        }
        let start = self.tokens[i].span.start;
        let mut paren = 0i32;
        let mut j = i;
        while j < self.tokens.len() {
            match self.tokens[j].kind {
                TokKind::Open(Delim::Paren | Delim::Bracket) => paren += 1,
                TokKind::Close(Delim::Paren | Delim::Bracket) => paren -= 1,
                TokKind::Open(Delim::Brace) if paren == 0 => {
                    let close = self.matching(j);
                    return Some(start..self.tokens[close].span.end);
                }
                TokKind::Punct if paren == 0 && self.is(j, ";") => {
                    return Some(start..self.tokens[j].span.end);
                }
                _ => {}
            }
            j += 1;
        }
        Some(start..self.src.len())
    }
}

/// A function-like item: a real `fn`, or a named closure
/// (`let name = |…| …`) promoted to the symbol table.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare name (`metrics_par`).
    pub name: String,
    /// Qualified display name (`crates/embedding/src/metrics.rs::metrics_par`,
    /// with the impl type inlined for methods: `…::Planner::plan`).
    pub qual: String,
    /// Index of the owning [`File`] in the [`Workspace`].
    pub file: usize,
    /// 1-based declaration line.
    pub decl_line: u32,
    /// Token range of the signature (`fn` keyword through the byte
    /// before the body opener; for closures, the `|…|` parameter list).
    pub sig: Range<usize>,
    /// Token range of the body, inclusive of its braces (for
    /// expression-bodied closures: the expression tokens).
    pub body: Range<usize>,
    /// Declared inside `#[cfg(test)]` code.
    pub in_tests: bool,
    /// Is a named closure rather than a `fn` item.
    pub is_closure: bool,
}

/// The parsed workspace: files plus a flat symbol table of functions.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Parsed files.
    pub files: Vec<File>,
    /// All function-like items across all files.
    pub fns: Vec<FnItem>,
}

impl Workspace {
    /// Add one file (already read) to the workspace, extracting its
    /// functions and named closures.
    pub fn add_file(&mut self, label: &str, src: String) {
        let file = File::parse(label, src);
        let fi = self.files.len();
        extract_fns(&file, fi, &mut self.fns);
        self.files.push(file);
    }

    /// Functions declared in non-test code.
    pub fn lib_fns(&self) -> impl Iterator<Item = (usize, &FnItem)> {
        self.fns.iter().enumerate().filter(|(_, f)| !f.in_tests)
    }
}

/// Scan one file for `fn` items and named closures.
fn extract_fns(file: &File, file_idx: usize, out: &mut Vec<FnItem>) {
    let n = file.tokens.len();
    // Stack of enclosing impl-type names, pushed at their `{`.
    let mut impl_stack: Vec<(usize, String)> = Vec::new(); // (close_tok, type)
    let mut i = 0;
    while i < n {
        let t = &file.tokens[i];
        if !t.is_code() {
            i += 1;
            continue;
        }
        impl_stack.retain(|(close, _)| i <= *close);
        let off = t.span.start;
        if file.in_macro_def(off) {
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident && file.is(i, "impl") {
            if let Some((ty, open)) = impl_header(file, i) {
                impl_stack.push((file.matching(open), ty));
                i = open + 1;
                continue;
            }
        }
        if t.kind == TokKind::Ident && file.is(i, "fn") {
            // The scan stays flat: nested fns and closures in the body
            // are found as it continues.
            out.extend(fn_item(
                file,
                file_idx,
                i,
                impl_stack.last().map(|(_, t)| t),
            ));
        }
        if t.kind == TokKind::Ident && file.is(i, "let") {
            if let Some(item) = named_closure(file, file_idx, i) {
                out.push(item);
            }
        }
        i += 1;
    }
}

/// Parse `impl … { …` returning the implemented type name and the index
/// of the opening brace. For `impl Trait for Type`, the type after
/// `for` wins.
fn impl_header(file: &File, impl_tok: usize) -> Option<(String, usize)> {
    let mut ty = String::new();
    let mut j = impl_tok + 1;
    let mut depth = 0i32;
    while j < file.tokens.len() {
        let t = &file.tokens[j];
        if t.is_code() {
            match t.kind {
                TokKind::Open(Delim::Brace) if depth == 0 => {
                    return if ty.is_empty() { None } else { Some((ty, j)) };
                }
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Ident if file.is(j, "for") && depth == 0 => ty.clear(),
                // Remember the last plain identifier at depth 0 as the
                // candidate type name (skips generics in <…>, which lex
                // as Punct `<`).
                TokKind::Ident if depth == 0 && !file.is(j, "where") => {
                    ty = file.text(j).to_owned();
                }
                TokKind::Punct if file.is(j, ";") => return None,
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Parse the `fn` item whose `fn` keyword is at token `kw`.
fn fn_item(file: &File, file_idx: usize, kw: usize, impl_ty: Option<&String>) -> Option<FnItem> {
    let name_tok = file.next_code(kw + 1)?;
    if file.tokens[name_tok].kind != TokKind::Ident {
        return None;
    }
    let name = file.text(name_tok).to_owned();
    // Find the body opener `{` at angle/paren depth 0, or `;` (trait
    // method signature, no body).
    let mut j = name_tok + 1;
    let mut depth = 0i32;
    let mut angle = 0i32;
    while j < file.tokens.len() {
        let t = &file.tokens[j];
        if t.is_code() {
            match t.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Punct if file.is(j, "<") => angle += 1,
                TokKind::Punct if file.is(j, ">") => angle = (angle - 1).max(0),
                TokKind::Punct if file.is(j, ";") && depth == 0 => return None,
                _ => {}
            }
            if t.kind == TokKind::Open(Delim::Brace) && depth == 1 && angle <= 0 {
                let close = file.matching(j);
                let decl_line = file.tokens[kw].line;
                let in_tests = file.in_tests(file.tokens[kw].span.start);
                let qual = match impl_ty {
                    Some(ty) => format!("{}::{}::{}", file.label, ty, name),
                    None => format!("{}::{}", file.label, name),
                };
                return Some(FnItem {
                    name,
                    qual,
                    file: file_idx,
                    decl_line,
                    sig: kw..j,
                    body: j..close + 1,
                    in_tests,
                    is_closure: false,
                });
            }
        }
        j += 1;
    }
    None
}

/// Parse `let [mut] name [: Ty] = [move] |…| body` into a pseudo-fn.
fn named_closure(file: &File, file_idx: usize, let_tok: usize) -> Option<FnItem> {
    let mut j = file.next_code(let_tok + 1)?;
    if file.is(j, "mut") {
        j = file.next_code(j + 1)?;
    }
    if file.tokens[j].kind != TokKind::Ident {
        return None;
    }
    let name_tok = j;
    let name = file.text(name_tok).to_owned();
    let mut k = file.next_code(name_tok + 1)?;
    // Optional `: Type` — skip to `=` at depth 0.
    let mut depth = 0i32;
    loop {
        let t = &file.tokens[k];
        match t.kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => depth -= 1,
            TokKind::Punct if depth == 0 && file.is(k, "=") => break,
            TokKind::Punct if depth == 0 && file.is(k, ";") => return None,
            _ => {}
        }
        k = file.next_code(k + 1)?;
    }
    let mut v = file.next_code(k + 1)?;
    if file.is(v, "move") {
        v = file.next_code(v + 1)?;
    }
    if !file.is(v, "|") {
        return None;
    }
    let clo = closure_at(file, v)?;
    Some(FnItem {
        qual: format!("{}::{{closure {}}}", file.label, name),
        name,
        file: file_idx,
        decl_line: file.tokens[let_tok].line,
        sig: clo.params.clone(),
        body: clo.body.clone(),
        in_tests: file.in_tests(file.tokens[let_tok].span.start),
        is_closure: true,
    })
}

/// A closure literal: parameter list and body as token ranges.
#[derive(Clone, Debug)]
pub struct Closure {
    /// Tokens of `|…|` including both pipes (empty `||` gives a
    /// two-token range).
    pub params: Range<usize>,
    /// Tokens of the body: a brace block inclusive of braces, or the
    /// expression up to the enclosing delimiter / comma at depth 0.
    pub body: Range<usize>,
}

/// Parse the closure literal starting at token `start`, which must be a
/// `|` (or the `move` keyword directly before one).
pub fn closure_at(file: &File, start: usize) -> Option<Closure> {
    let mut i = start;
    if file.is(i, "move") {
        i = file.next_code(i + 1)?;
    }
    if !file.is(i, "|") {
        return None;
    }
    let params_start = i;
    // `||` (no params) lexes as two Punct tokens.
    let params_end = if file.next_code(i + 1).map(|j| file.is(j, "|")) == Some(true) {
        file.next_code(i + 1)?
    } else {
        // Scan to the closing `|` at delimiter depth 0.
        let mut j = i + 1;
        let mut depth = 0i32;
        loop {
            if j >= file.tokens.len() {
                return None;
            }
            let t = &file.tokens[j];
            if t.is_code() {
                match t.kind {
                    TokKind::Open(_) => depth += 1,
                    TokKind::Close(_) => depth -= 1,
                    TokKind::Punct if depth == 0 && file.is(j, "|") => break,
                    _ => {}
                }
            }
            j += 1;
        }
        j
    };
    // Body: skip an optional `-> Type` annotation to the block.
    let mut b = file.next_code(params_end + 1)?;
    if file.is(b, "-") {
        let gt = file.next_code(b + 1)?;
        if file.is(gt, ">") {
            // Return type runs to the opening brace at depth 0.
            let mut j = gt + 1;
            let mut depth = 0i32;
            loop {
                if j >= file.tokens.len() {
                    return None;
                }
                let t = &file.tokens[j];
                if t.is_code() {
                    match t.kind {
                        TokKind::Open(Delim::Brace) if depth == 0 => {
                            b = j;
                            break;
                        }
                        TokKind::Open(_) => depth += 1,
                        TokKind::Close(_) => depth -= 1,
                        _ => {}
                    }
                }
                j += 1;
            }
        }
    }
    let body = if file.tokens[b].kind == TokKind::Open(Delim::Brace) {
        b..file.matching(b) + 1
    } else {
        // Expression body: to the first `,` or closing delimiter at
        // depth 0.
        let mut j = b;
        let mut depth = 0i32;
        while j < file.tokens.len() {
            let t = &file.tokens[j];
            if t.is_code() {
                match t.kind {
                    TokKind::Open(_) => depth += 1,
                    TokKind::Close(_) => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    TokKind::Punct if depth == 0 && (file.is(j, ",") || file.is(j, ";")) => break,
                    _ => {}
                }
            }
            j += 1;
        }
        b..j
    };
    Some(Closure {
        params: params_start..params_end + 1,
        body,
    })
}

/// Identifiers bound inside a token range: `let` bindings, closure and
/// `fn` parameters, `for` loop variables, and `if let`/`while let`/
/// `match`-arm patterns — an over-approximation of "locals", used by the
/// capture passes to decide whether a mutated identifier is owned by the
/// closure or captured from outside.
pub fn bound_idents(file: &File, range: Range<usize>, out: &mut Vec<String>) {
    let mut i = range.start;
    while i < range.end {
        let t = &file.tokens[i];
        if !t.is_code() {
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident && (file.is(i, "let") || file.is(i, "for")) {
            // Pattern runs to `=` / `in` / `;` at depth 0; every ident in
            // it (minus type-position ones, which this over-approximates)
            // is a binding.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < range.end {
                let u = &file.tokens[j];
                if u.is_code() {
                    match u.kind {
                        TokKind::Open(_) => depth += 1,
                        TokKind::Close(_) => depth -= 1,
                        TokKind::Ident
                            if depth >= 0
                                && !matches!(
                                    file.text(j),
                                    "mut" | "ref" | "in" | "let" | "move" | "if" | "while"
                                ) =>
                        {
                            out.push(file.text(j).to_owned());
                        }
                        TokKind::Punct if depth == 0 && (file.is(j, "=") || file.is(j, ";")) => {
                            break;
                        }
                        _ => {}
                    }
                    if u.kind == TokKind::Ident && file.is(j, "in") {
                        break;
                    }
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// Identifiers in a closure parameter list `|a, (b, c): (u32, u32)|`.
pub fn param_idents(file: &File, params: Range<usize>, out: &mut Vec<String>) {
    let mut in_type = false;
    for i in params.start..params.end {
        let t = &file.tokens[i];
        if !t.is_code() {
            continue;
        }
        match t.kind {
            TokKind::Punct if file.is(i, ":") => in_type = true,
            TokKind::Punct if file.is(i, ",") => in_type = false,
            TokKind::Ident if !in_type && !matches!(file.text(i), "mut" | "ref" | "move") => {
                out.push(file.text(i).to_owned());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        let mut w = Workspace::default();
        w.add_file("lib.rs", src.to_owned());
        w
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let w = ws("pub fn top() {}\nstruct S;\nimpl S {\n    fn method(&self) -> u32 { 1 }\n}\nimpl Clone for S {\n    fn clone(&self) -> S { S }\n}\n");
        let names: Vec<&str> = w.fns.iter().map(|f| f.qual.as_str()).collect();
        assert!(names.contains(&"lib.rs::top"), "{names:?}");
        assert!(names.contains(&"lib.rs::S::method"), "{names:?}");
        assert!(names.contains(&"lib.rs::S::clone"), "{names:?}");
    }

    #[test]
    fn cfg_test_items_are_masked() {
        let w = ws("pub fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { panic!(\"x\") }\n}\n");
        let lib: Vec<&FnItem> = w.fns.iter().filter(|f| !f.in_tests).collect();
        let test: Vec<&FnItem> = w.fns.iter().filter(|f| f.in_tests).collect();
        assert_eq!(lib.len(), 1);
        assert_eq!(lib[0].name, "lib_code");
        assert_eq!(test.len(), 1);
        assert_eq!(test[0].name, "t");
    }

    #[test]
    fn named_closures_are_promoted() {
        let w = ws("pub fn f(routes: &[u32]) {\n    let gather = |lo: usize, hi: usize| -> u32 {\n        let mut d = 0;\n        d\n    };\n    let _ = gather(0, 1);\n}\n");
        let clo: Vec<&FnItem> = w.fns.iter().filter(|f| f.is_closure).collect();
        assert_eq!(clo.len(), 1);
        assert_eq!(clo[0].name, "gather");
    }

    #[test]
    fn closure_literals_parse() {
        let f = File::parse(
            "x.rs",
            "call(move |a, (b, c)| { a + b + c }, other)".to_owned(),
        );
        // Find the `move` token.
        let mv = (0..f.tokens.len()).find(|&i| f.is(i, "move")).unwrap();
        let c = closure_at(&f, mv).unwrap();
        let mut params = Vec::new();
        param_idents(&f, c.params.clone(), &mut params);
        assert_eq!(params, vec!["a", "b", "c"]);
        // Body is the brace block.
        assert_eq!(f.tokens[c.body.start].kind, TokKind::Open(Delim::Brace));
    }

    #[test]
    fn expression_bodied_closure_ends_at_comma() {
        let f = File::parse("x.rs", "v.map(|x| x + 1, extra)".to_owned());
        let pipe = (0..f.tokens.len()).find(|&i| f.is(i, "|")).unwrap();
        let c = closure_at(&f, pipe).unwrap();
        let body_text: String = (c.body.start..c.body.end)
            .filter(|&i| f.tokens[i].is_code())
            .map(|i| f.text(i).to_owned())
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(body_text, "x + 1");
    }

    #[test]
    fn macro_rules_bodies_are_masked() {
        let f = File::parse(
            "m.rs",
            "macro_rules! span {\n    ($n:expr) => { SpanTimer::new($n) };\n}\npub fn f() {}\n"
                .to_owned(),
        );
        let span_new = f.src.find("SpanTimer").unwrap();
        assert!(f.in_macro_def(span_new));
        assert!(!f.in_macro_def(f.src.find("pub fn f").unwrap()));
    }

    #[test]
    fn bound_idents_cover_let_for_and_patterns() {
        let f = File::parse(
            "x.rs",
            "{ let (a, mut b) = p; for c in 0..3 { let d: u32 = c; } }".to_owned(),
        );
        let mut out = Vec::new();
        bound_idents(&f, 0..f.tokens.len(), &mut out);
        for name in ["a", "b", "c", "d"] {
            assert!(out.contains(&name.to_owned()), "{out:?} missing {name}");
        }
        assert!(!out.contains(&"mut".to_owned()));
    }
}
