//! Span-stack balance: `CM-A008`.
//!
//! The obs crate's `span!` guards maintain a per-thread span *stack* —
//! each guard pushes on construction and pops on drop, and the trace
//! exporter assumes pops mirror pushes. RAII makes that automatic: a
//! guard bound with `let` drops at end of scope in reverse binding
//! order, so plain usage (including early `return`) is always balanced.
//!
//! What provably breaks LIFO is explicit interference, and that is what
//! this pass flags:
//!
//! * `mem::forget(guard)` — the pop never happens;
//! * `drop(older)` while a younger guard is still live — pops out of
//!   order;
//! * `return guard` — the guard escapes the scope whose spans it
//!   brackets, popping at an unrelated point in the caller.
//!
//! The pass is intraprocedural and scans only bindings initialized from
//! a `span!` macro invocation, so ordinary values named like guards are
//! never flagged.
//!
//! It also flags the guard that never lives at all, `CM-L008`
//! (`dropped-span-guard`): a `span!(…)` / `SpanTimer::new(…)` bound to
//! the `_` wildcard (`let _ = span!(…)`) or left as a bare statement
//! (`span!(…);`) drops at the end of that statement, silently recording
//! a zero-length span and mis-parenting every span opened after it.
//! Binding a named placeholder (`let _span = span!(…);`) keeps it to the
//! end of the scope.

use super::{Code, Finding};
use crate::ast::{File, Workspace};
use crate::lexer::{Delim, TokKind};

/// Run the span-balance pass over every non-test function.
pub fn check(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (_, f) in ws.lib_fns() {
        if f.is_closure {
            continue; // closure bodies are inside some fn body already
        }
        let file = &ws.files[f.file];
        check_body(file, &f.qual, f.body.clone(), findings);
    }
    for file in &ws.files {
        check_dropped_guards(file, findings);
    }
}

/// CM-L008: span guards discarded by the statement that creates them.
fn check_dropped_guards(file: &File, findings: &mut Vec<Finding>) {
    for i in 0..file.tokens.len() {
        let (call, paren) = if let Some(paren) = file.spells(i, &["span", "!", "("]) {
            ("span!", paren)
        } else if let Some(paren) = file.spells(i, &["SpanTimer", ":", ":", "new", "("]) {
            ("SpanTimer::new", paren)
        } else {
            continue;
        };
        let off = file.tokens[i].span.start;
        if file.in_tests(off) || file.in_macro_def(off) {
            continue;
        }
        // Peel a module path (`obs::`, `crate::trace::`) off the call.
        let mut start = i;
        while let Some(seg) = path_segment_before(file, start) {
            start = seg;
        }
        let before = file.prev_code(start);
        let wildcard_bound = before.is_some_and(|eq| {
            file.is(eq, "=")
                && file.prev_code(eq).is_some_and(|w| {
                    file.is(w, "_") && file.prev_code(w).is_some_and(|l| file.is(l, "let"))
                })
        });
        let bare_statement = before.is_none_or(|b| [";", "{", "}"].iter().any(|s| file.is(b, s)))
            && file
                .next_code(file.matching(paren) + 1)
                .is_some_and(|end| file.is(end, ";"));
        let message = if wildcard_bound {
            format!(
                "`let _ = {call}(…)` drops the span guard immediately, recording a zero-length \
                 span; bind it (`let _span = {call}(…);`)"
            )
        } else if bare_statement {
            format!(
                "bare `{call}(…);` statement drops the span guard immediately, recording a \
                 zero-length span; bind it (`let _span = {call}(…);`)"
            )
        } else {
            continue;
        };
        findings.push(Finding {
            code: Code::DroppedSpanGuard,
            file: file.label.clone(),
            line: file.tokens[i].line,
            message,
            path: Vec::new(),
        });
    }
}

/// If tokens `seg :: ` directly precede token `i`, the index of `seg`.
fn path_segment_before(file: &File, i: usize) -> Option<usize> {
    let c2 = file.prev_code(i).filter(|&c| file.is(c, ":"))?;
    let c1 = file.prev_code(c2).filter(|&c| file.is(c, ":"))?;
    file.prev_code(c1)
        .filter(|&seg| file.tokens[seg].kind == TokKind::Ident)
}

fn check_body(file: &File, qual: &str, body: std::ops::Range<usize>, findings: &mut Vec<Finding>) {
    let end = body.end.min(file.tokens.len());
    // Guards in binding order: (name, bind token, dropped?).
    let mut guards: Vec<(String, usize, bool)> = Vec::new();

    let mut i = body.start;
    while i < end {
        let t = &file.tokens[i];
        if !t.is_code() {
            i += 1;
            continue;
        }
        // `let NAME = span!(…)`
        if t.kind == TokKind::Ident && file.is(i, "let") {
            if let Some(g) = span_binding(file, i, end) {
                guards.push((g, i, false));
            }
        }
        // `forget(NAME)` (with or without a `mem::` path).
        if t.kind == TokKind::Ident && file.is(i, "forget") {
            if let Some(name) = single_ident_arg(file, i, end) {
                if guards.iter().any(|(n, _, _)| n == &name) {
                    findings.push(Finding {
                        code: Code::SpanGuardEscape,
                        file: file.label.clone(),
                        line: t.line,
                        message: format!(
                            "span guard `{name}` leaked via mem::forget — its span is \
                             never popped"
                        ),
                        path: vec![qual.to_owned()],
                    });
                }
            }
        }
        // `drop(NAME)` — must be LIFO against live younger guards.
        if t.kind == TokKind::Ident && file.is(i, "drop") {
            if let Some(name) = single_ident_arg(file, i, end) {
                if let Some(pos) = guards.iter().position(|(n, _, _)| n == &name) {
                    let younger_live: Vec<&str> = guards[pos + 1..]
                        .iter()
                        .filter(|(_, bind, dropped)| !dropped && *bind < i)
                        .map(|(n, _, _)| n.as_str())
                        .collect();
                    if !younger_live.is_empty() {
                        findings.push(Finding {
                            code: Code::SpanGuardEscape,
                            file: file.label.clone(),
                            line: t.line,
                            message: format!(
                                "span guard `{name}` dropped while younger guard(s) \
                                 `{}` are still live — span stack pops out of LIFO \
                                 order",
                                younger_live.join("`, `")
                            ),
                            path: vec![qual.to_owned()],
                        });
                    }
                    guards[pos].2 = true;
                }
            }
        }
        // `return NAME` — guard escapes its scope.
        if t.kind == TokKind::Ident && file.is(i, "return") {
            if let Some(n) = file.next_code(i + 1) {
                if file.tokens[n].kind == TokKind::Ident {
                    let name = file.text(n).to_owned();
                    let terminated = file
                        .next_code(n + 1)
                        .map(|k| {
                            file.is(k, ";") || matches!(file.tokens[k].kind, TokKind::Close(_))
                        })
                        .unwrap_or(true);
                    if terminated && guards.iter().any(|(g, _, _)| g == &name) {
                        findings.push(Finding {
                            code: Code::SpanGuardEscape,
                            file: file.label.clone(),
                            line: t.line,
                            message: format!(
                                "span guard `{name}` is returned out of the scope its \
                                 span brackets"
                            ),
                            path: vec![qual.to_owned()],
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

/// If the `let` at token `let_tok` binds `NAME = span!(…)`, the name.
fn span_binding(file: &File, let_tok: usize, end: usize) -> Option<String> {
    let mut j = file.next_code(let_tok + 1)?;
    if file.is(j, "mut") {
        j = file.next_code(j + 1)?;
    }
    if file.tokens[j].kind != TokKind::Ident {
        return None;
    }
    let name = file.text(j).to_owned();
    let eq = file.next_code(j + 1)?;
    if !file.is(eq, "=") {
        return None; // typed bindings (`let g: T = …`) are rare for guards
    }
    let m = file.next_code(eq + 1)?;
    if m >= end || file.tokens[m].kind != TokKind::Ident || !file.is(m, "span") {
        return None;
    }
    let bang = file.next_code(m + 1)?;
    (file.is(bang, "!")).then_some(name)
}

/// For `name(IDENT)` at token `call`, the single identifier argument.
fn single_ident_arg(file: &File, call: usize, end: usize) -> Option<String> {
    let open = file.next_code(call + 1)?;
    if open >= end || file.tokens[open].kind != TokKind::Open(Delim::Paren) {
        return None;
    }
    let arg = file.next_code(open + 1)?;
    if file.tokens[arg].kind != TokKind::Ident {
        return None;
    }
    let close = file.next_code(arg + 1)?;
    if file.tokens[close].kind != TokKind::Close(Delim::Paren) {
        return None;
    }
    Some(file.text(arg).to_owned())
}

#[cfg(test)]
mod tests {
    use super::super::analyze_str;

    fn codes(src: &str) -> Vec<&'static str> {
        analyze_str(src).iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn plain_raii_usage_is_clean() {
        let c = codes(
            "fn f() {\n    let _outer = span!(\"phase\");\n    {\n        let _inner = span!(\"inner\");\n    }\n}\n",
        );
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn lifo_explicit_drops_are_clean() {
        let c = codes(
            "fn f() {\n    let a = span!(\"a\");\n    let b = span!(\"b\");\n    drop(b);\n    drop(a);\n}\n",
        );
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn out_of_order_drop_is_a008() {
        let c = codes(
            "fn f() {\n    let a = span!(\"a\");\n    let b = span!(\"b\");\n    drop(a);\n    drop(b);\n}\n",
        );
        assert!(c.contains(&"CM-A008"), "{c:?}");
    }

    #[test]
    fn forget_is_a008() {
        let c = codes("fn f() {\n    let g = span!(\"phase\");\n    std::mem::forget(g);\n}\n");
        assert!(c.contains(&"CM-A008"), "{c:?}");
    }

    #[test]
    fn returned_guard_is_a008() {
        let c = codes("fn f() -> SpanGuard {\n    let g = span!(\"phase\");\n    return g;\n}\n");
        assert!(c.contains(&"CM-A008"), "{c:?}");
    }

    #[test]
    fn wildcard_bound_guard_is_l008() {
        let f = analyze_str("pub fn f() {\n    let _ = obs::span!(\"construct\");\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code.as_str(), "CM-L008");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("let _ ="), "{}", f[0].message);
    }

    #[test]
    fn bare_guard_statement_is_l008() {
        // Both constructor spellings.
        for src in [
            "pub fn f() {\n    span!(\"construct\");\n}\n",
            "pub fn f() {\n    obs::SpanTimer::new(\"x\");\n}\n",
        ] {
            assert_eq!(codes(src), ["CM-L008"], "{src}");
        }
    }

    #[test]
    fn bound_guards_are_not_l008() {
        for src in [
            // A named placeholder lives until the end of the scope.
            "pub fn f() {\n    let _span = obs::span!(\"x\");\n}\n",
            // A closure returning the guard hands it to the caller.
            "pub fn f(top: bool) {\n    let _span = top.then(|| obs::span!(\"x\"));\n}\n",
            // A continuation line is still the same binding statement.
            "pub fn f() {\n    let _span =\n        span!(\"x\");\n}\n",
            // Test modules are exempt, like every other rule.
            "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { span!(\"x\"); }\n}\n",
            // A different macro sharing the suffix is not a span guard.
            "pub fn f() {\n    my_span!(\"x\");\n}\n",
        ] {
            assert!(codes(src).is_empty(), "{src}: {:?}", codes(src));
        }
    }

    #[test]
    fn non_guard_values_are_ignored() {
        let c = codes(
            "fn f() -> u32 {\n    let g = 3u32;\n    drop(g);\n    let h = 4u32;\n    return h;\n}\n",
        );
        assert!(c.is_empty(), "{c:?}");
    }
}
