//! Discarded `Result`s (CM-A013): `let _ = save_trace(&path);`, where
//! `save_trace` is a workspace function that returns `Result`.
//!
//! The workspace symbol table says which *workspace* functions return
//! `Result`; a name shared by `Result` and non-`Result` definitions is
//! skipped rather than guessed at. Std `Result`s (`write!`, …) are out of
//! scope. The other ways to drop a `Result` are rustc's: a bare statement
//! is `unused_must_use` and a binding never read is `unused_variables`,
//! both errors under clippy's `-D warnings`, and both resolve the type
//! rather than the name. Only `let _ =` is silent to rustc.

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
            // The call must end the statement (not feed `?` or a method
            // chain), which must begin `let _ =`.
            if !file.is(after, ";") {
                continue;
            }
            let Some(eq) = file.prev_code(chain_head(file, i)) else {
                continue;
            };
            if !discards(file, eq) {
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

/// Does the `=` at token `eq` end `let _ =`?
fn discards(file: &crate::ast::File, eq: usize) -> bool {
    let Some(binder) = file
        .prev_code(eq)
        .filter(|&b| file.is(eq, "=") && file.is(b, "_"))
    else {
        return false;
    };
    file.prev_code(binder).is_some_and(|kw| file.is(kw, "let"))
}

#[cfg(test)]
mod tests {
    use super::super::analyze_str;

    fn codes(src: &str) -> Vec<&'static str> {
        analyze_str(src).iter().map(|f| f.code.as_str()).collect()
    }

    const HELPER: &str = "pub fn save(x: u32) -> Result<(), String> {\n    if x > 0 { Ok(()) } else { Err(\"zero\".into()) }\n}\n";

    #[test]
    fn discarded_binding_fires() {
        let c = codes(&format!(
            "{HELPER}pub fn f() {{\n    let _ = save(3);\n}}\n"
        ));
        assert_eq!(c, ["CM-A013"]);
        let c = codes(&format!(
            "{HELPER}pub struct S;\nimpl S {{\n    pub fn g(&self) {{\n        let _ = \
             self.inner().save(3);\n    }}\n}}\n"
        ));
        assert_eq!(c, ["CM-A013"]);
    }

    #[test]
    fn rustc_owns_the_other_drops() {
        // A bare statement is `unused_must_use`, a dead binding
        // `unused_variables`; an underscore name keeps the value alive.
        for body in ["save(3);", "let r = save(3);", "let _r = save(3);"] {
            let c = codes(&format!("{HELPER}pub fn f() {{\n    {body}\n}}\n"));
            assert!(c.is_empty(), "{body}: {c:?}");
        }
    }

    #[test]
    fn kept_or_non_result_values_do_not_fire() {
        for body in [
            "save(3)?;",
            "let _ = save(3).is_ok();",
            "let _ = plain(3);",
            "let _ = write!(buf, \"x\");",
        ] {
            let c = codes(&format!(
                "{HELPER}pub fn plain(x: u32) -> u32 {{\n    x\n}}\n\
                 pub fn f(buf: &mut String) -> Result<(), String> {{\n    {body}\n    Ok(())\n}}\n"
            ));
            assert!(c.is_empty(), "{body}: {c:?}");
        }
    }
}
