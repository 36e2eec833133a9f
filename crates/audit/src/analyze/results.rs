//! Dataflow-grade dropped-`Result` analysis (CM-A013).
//!
//! The lexical `let _ = …` check in [`super::spans`] (`CM-L008`) only
//! sees span guards; this pass uses the workspace symbol table to know which
//! *workspace* functions actually return `Result`, and def-use analysis
//! to know whether a binding of such a call is ever read again. Three
//! dropped shapes are flagged:
//!
//! * a bare expression statement: `save_trace(&path);`
//! * an explicit discard: `let _ = save_trace(&path);`
//! * a dead binding: `let r = save_trace(&path);` where `r` never
//!   occurs again in the function body.
//!
//! A call is *used* when its value feeds `?`, a method chain
//! (`.unwrap_or…`, `.ok()`, `.is_err()`, …), a `match`/`if let`, a
//! return position, or any later read of the binding. Only calls that
//! resolve to workspace-defined `Result`-returning functions are
//! considered — `write!`/`writeln!` and other std `Result`s are out of
//! scope (those are `#[must_use]`-checked by rustc itself); a name
//! shared by `Result` and non-`Result` overloads is skipped rather
//! than guessed at.

use super::{Code, Finding};
use crate::ast::Workspace;
use crate::lexer::{Delim, TokKind};
use std::collections::BTreeSet;

/// Names of workspace functions where *every* definition returns
/// `Result` (mixed-name sets are skipped as ambiguous).
fn result_fns(ws: &Workspace) -> BTreeSet<String> {
    let mut returns_result: BTreeSet<String> = BTreeSet::new();
    let mut other: BTreeSet<String> = BTreeSet::new();
    for f in &ws.fns {
        if f.is_closure {
            continue;
        }
        let file = &ws.files[f.file];
        // Scan the signature for `-> … Result`.
        let mut arrow = None;
        let end = f.sig.end.min(file.tokens.len());
        for i in f.sig.start..end {
            if file.tokens[i].is_code()
                && file.is(i, "-")
                && file.next_code(i + 1).map(|n| file.is(n, ">")) == Some(true)
            {
                arrow = Some(i);
                break;
            }
        }
        let is_result = arrow
            .map(|a| (a..end).any(|i| file.tokens[i].is_code() && file.is(i, "Result")))
            .unwrap_or(false);
        if is_result {
            returns_result.insert(f.name.clone());
        } else {
            other.insert(f.name.clone());
        }
    }
    returns_result
        .into_iter()
        .filter(|n| !other.contains(n))
        .collect()
}

/// Entry point.
pub fn check(ws: &Workspace, findings: &mut Vec<Finding>) {
    let result_names = result_fns(ws);
    if result_names.is_empty() {
        return;
    }
    for (_fi, f) in ws.lib_fns() {
        if f.is_closure {
            continue;
        }
        let file = &ws.files[f.file];
        let end = f.body.end.min(file.tokens.len());
        if f.body.start >= end || file.in_macro_def(file.tokens[f.body.start].span.start) {
            continue;
        }
        for i in f.body.start..end {
            let t = &file.tokens[i];
            if t.kind != TokKind::Ident || !result_names.contains(file.text(i)) {
                continue;
            }
            // Must be a call, not a macro and not a definition.
            let Some(open) = file.next_code(i + 1) else {
                continue;
            };
            if file.tokens[open].kind != TokKind::Open(Delim::Paren) {
                continue;
            }
            if file.prev_code(i).map(|p| file.is(p, "fn")) == Some(true) {
                continue;
            }
            if file.in_macro_def(t.span.start) || file.in_tests(t.span.start) {
                continue;
            }
            let close = file.matching(open);
            let Some(after) = file.next_code(close + 1) else {
                continue;
            };
            // Value used: `?`, a method chain, or anything other than a
            // bare `;` terminator.
            if !file.is(after, ";") {
                continue;
            }
            // Walk back over the receiver chain to the statement head.
            let head = chain_head(file, i);
            let before = file.prev_code(head);
            let dropped = match before {
                // Bare expression statement.
                None => true,
                Some(b)
                    if file.is(b, ";")
                        || file.tokens[b].kind == TokKind::Open(Delim::Brace)
                        || file.tokens[b].kind == TokKind::Close(Delim::Brace) =>
                {
                    true
                }
                // `let BINDER = call(…);` — dropped if the binder is `_`
                // or is never read afterwards.
                Some(b) if file.is(b, "=") => dead_binding(file, b, close, end),
                _ => false,
            };
            if !dropped {
                continue;
            }
            findings.push(Finding {
                code: Code::DroppedResult,
                file: file.label.clone(),
                line: t.line,
                message: format!(
                    "`Result` of `{}` is dropped; handle it, propagate with `?`, \
                     or match on the error path",
                    file.text(i)
                ),
                path: vec![
                    f.qual.clone(),
                    format!("def `{}` returns Result", file.text(i)),
                ],
            });
        }
    }
}

/// Walk back over `recv.method`/`path::seg` chains to the first token
/// of the expression statement.
fn chain_head(file: &crate::ast::File, mut i: usize) -> usize {
    loop {
        let Some(prev) = file.prev_code(i) else {
            return i;
        };
        if file.is(prev, ".") {
            let Some(back) = file.prev_code(prev) else {
                return i;
            };
            match file.tokens[back].kind {
                TokKind::Ident => i = back,
                TokKind::Close(_) => {
                    // Walk back over the group (`foo(x).save()`) to its
                    // open, then to the call name before it.
                    let mut depth = 0i32;
                    let mut j = back;
                    loop {
                        match file.tokens[j].kind {
                            TokKind::Close(_) => depth += 1,
                            TokKind::Open(_) => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if j == 0 {
                            break;
                        }
                        j -= 1;
                    }
                    i = j;
                    if let Some(nm) = file.prev_code(j) {
                        if file.tokens[nm].kind == TokKind::Ident {
                            i = nm;
                        }
                    }
                }
                _ => return i,
            }
        } else if file.is(prev, ":") {
            // `path::seg` — hop both colons to the previous segment.
            let Some(c2) = file.prev_code(prev) else {
                return i;
            };
            if !file.is(c2, ":") {
                return i;
            }
            let Some(seg) = file.prev_code(c2) else {
                return i;
            };
            if file.tokens[seg].kind != TokKind::Ident {
                return i;
            }
            i = seg;
        } else {
            return i;
        }
    }
}

/// Is the binding introduced by the `=` at token `eq` dead (bound to
/// `_`, or an identifier never read between the call's `;` and the end
/// of the function body)?
fn dead_binding(file: &crate::ast::File, eq: usize, close: usize, body_end: usize) -> bool {
    let Some(binder) = file.prev_code(eq) else {
        return false;
    };
    if file.tokens[binder].kind != TokKind::Ident {
        // Tuple/struct patterns: assume used.
        return false;
    }
    let Some(kw) = file.prev_code(binder) else {
        return false;
    };
    let is_let = file.is(kw, "let")
        || file.is(kw, "mut") && { file.prev_code(kw).map(|k| file.is(k, "let")) == Some(true) };
    if !is_let {
        // Reassignment of an existing variable: its later reads count
        // as uses of this result; treated as used.
        return false;
    }
    let name = file.text(binder);
    if name == "_" {
        return true;
    }
    // Underscore-prefixed names are an explicit keep-alive idiom.
    if name.starts_with('_') {
        return false;
    }
    // Any later read?
    for j in close + 1..body_end {
        if file.tokens[j].is_code() && file.tokens[j].kind == TokKind::Ident && file.is(j, name) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::super::analyze_str;

    fn codes(src: &str) -> Vec<&'static str> {
        analyze_str(src).iter().map(|f| f.code.as_str()).collect()
    }

    const HELPER: &str = "pub fn save(x: u32) -> Result<(), String> {\n    if x > 0 { Ok(()) } else { Err(\"zero\".into()) }\n}\n";

    #[test]
    fn bare_statement_fires() {
        let c = codes(&format!("{HELPER}pub fn f() {{\n    save(3);\n}}\n"));
        assert!(c.contains(&"CM-A013"), "{c:?}");
    }

    #[test]
    fn discarded_binding_fires() {
        let c = codes(&format!(
            "{HELPER}pub fn f() {{\n    let _ = save(3);\n}}\n"
        ));
        assert!(c.contains(&"CM-A013"), "{c:?}");
    }

    #[test]
    fn dead_binding_fires() {
        let c = codes(&format!(
            "{HELPER}pub fn f() -> u32 {{\n    let r = save(3);\n    7\n}}\n"
        ));
        assert!(c.contains(&"CM-A013"), "{c:?}");
    }

    #[test]
    fn question_mark_is_used() {
        let c = codes(&format!(
            "{HELPER}pub fn f() -> Result<(), String> {{\n    save(3)?;\n    Ok(())\n}}\n"
        ));
        assert!(!c.contains(&"CM-A013"), "{c:?}");
    }

    #[test]
    fn read_binding_is_used() {
        let c = codes(&format!(
            "{HELPER}pub fn f() -> bool {{\n    let r = save(3);\n    r.is_ok()\n}}\n"
        ));
        assert!(!c.contains(&"CM-A013"), "{c:?}");
    }

    #[test]
    fn method_chain_is_used() {
        let c = codes(&format!(
            "{HELPER}pub fn f() {{\n    save(3).unwrap_or(());\n}}\n"
        ));
        assert!(!c.contains(&"CM-A013"), "{c:?}");
    }

    #[test]
    fn non_result_fn_is_ignored() {
        let c = codes("pub fn plain(x: u32) -> u32 {\n    x\n}\npub fn f() {\n    plain(3);\n}\n");
        assert!(!c.contains(&"CM-A013"), "{c:?}");
    }

    #[test]
    fn std_macros_are_out_of_scope() {
        let c = codes(
            "use std::fmt::Write;\npub fn f(buf: &mut String) {\n    let _ = write!(buf, \"x\");\n}\n",
        );
        assert!(!c.contains(&"CM-A013"), "{c:?}");
    }
}
