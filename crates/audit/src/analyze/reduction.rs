//! Non-deterministic-reduction detection: `CM-A004` / `CM-A005`.
//!
//! The repo's determinism gates diff byte-identical artifacts across
//! runs, so a parallel reduction must produce the same value no matter
//! how the scheduler orders chunks. Two ways that breaks:
//!
//! * **`CM-A004`** — float accumulation: a parallel chain ends in a
//!   reducing terminal (`sum`, `product`, `reduce`, `fold`) and float
//!   values flow through it. `(a + b) + c != a + (b + c)` in IEEE 754,
//!   so chunk reorder changes the result. Integer reductions are
//!   associative and stay silent.
//! * **`CM-A005`** — order-sensitive merges: workers `push`/`insert`/
//!   `extend` into a *captured* collection (arrival order = scheduler
//!   order), or iterate a `HashMap`/`HashSet` (hash-seed order) to feed
//!   results inside a parallel region.
//!
//! `collect()` into `Vec` is not flagged: indexed collection preserves
//! input order regardless of execution order.

use super::regions::{worker_seeds, Region, ENTRIES};
use super::{Code, Finding};
use crate::ast::{bound_idents, param_idents, File, Workspace};
use crate::callgraph::CallGraph;
use crate::lexer::{Delim, LitKind, TokKind};
use std::ops::Range;

/// Reducing chain terminals whose result depends on combination order
/// when the element type is non-associative.
const REDUCERS: [&str; 4] = ["sum", "product", "reduce", "fold"];

/// Mutating merge methods that append/insert in arrival order.
const MERGE_METHODS: [&str; 7] = [
    "push",
    "push_str",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
];

/// Run the reduction passes over all regions.
pub fn check(ws: &Workspace, cg: &CallGraph, regions: &[Region], findings: &mut Vec<Finding>) {
    for region in regions {
        let head = region.describe(ws);
        let file = &ws.files[region.file];

        // A004 — float accumulation through a reducing terminal of this
        // chain (entry-method regions only; spawn/scope have no chain).
        if ENTRIES.contains(&region.api.as_str()) {
            let stmt = statement_range(file, region.tok);
            if has_reducer(file, &stmt) {
                let mut floaty = has_float(file, &stmt);
                for &r in &region.roots {
                    let rf = &ws.fns[r];
                    floaty = floaty || has_float(&ws.files[rf.file], &rf.body);
                }
                if floaty {
                    findings.push(Finding {
                        code: Code::NondetFloatReduce,
                        file: file.label.clone(),
                        line: region.line,
                        message: "float accumulation in a parallel reduction: chunk order \
                                  changes IEEE-754 rounding"
                            .to_owned(),
                        path: vec![head.clone()],
                    });
                }
            }
        }

        // A005 — order-sensitive merges in worker closures (literal and
        // named-closure roots reached through the call graph).
        for clo in &region.closures {
            let mut owned = Vec::new();
            param_idents(file, clo.params.clone(), &mut owned);
            bound_idents(file, clo.body.clone(), &mut owned);
            check_merges(file, &owned, clo.body.clone(), &head, &[], findings);
            check_hash_iteration(file, clo.body.clone(), &head, &[], findings);
        }
        let seeds = worker_seeds(ws, cg, region);
        for &fi in &cg.reachable(ws, &seeds) {
            let f = &ws.fns[fi];
            if !f.is_closure {
                continue;
            }
            let ffile = &ws.files[f.file];
            let path: Vec<String> = cg
                .find_path(ws, &seeds, |x| x == fi)
                .map(|p| p.iter().map(|&i| ws.fns[i].qual.clone()).collect())
                .unwrap_or_default();
            let mut owned = Vec::new();
            param_idents(ffile, f.sig.clone(), &mut owned);
            bound_idents(ffile, f.body.clone(), &mut owned);
            check_merges(ffile, &owned, f.body.clone(), &head, &path, findings);
            check_hash_iteration(ffile, f.body.clone(), &head, &path, findings);
        }
    }
}

/// Token range of the statement containing the chain whose entry method
/// sits at token `tok`: back to the statement boundary, forward to the
/// `;` / closing delimiter at relative depth 0.
fn statement_range(file: &File, tok: usize) -> Range<usize> {
    // Backward.
    let mut depth = 0i32;
    let mut start = tok;
    let mut j = tok;
    while j > 0 {
        j -= 1;
        let t = &file.tokens[j];
        if !t.is_code() {
            continue;
        }
        match t.kind {
            TokKind::Close(_) => depth += 1,
            TokKind::Open(_) => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokKind::Punct if depth == 0 && (file.is(j, ";") || file.is(j, "=")) => break,
            _ => {}
        }
        start = j;
    }
    // Forward.
    depth = 0;
    let mut end = tok;
    let mut k = tok;
    while k < file.tokens.len() {
        let t = &file.tokens[k];
        if t.is_code() {
            match t.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                TokKind::Punct if depth == 0 && file.is(k, ";") => break,
                _ => {}
            }
        }
        end = k;
        k += 1;
    }
    start..end + 1
}

/// Does the range contain a reducing chain terminal (`.sum(`, `.fold(`…)?
fn has_reducer(file: &File, range: &Range<usize>) -> bool {
    for i in range.clone() {
        let t = &file.tokens[i];
        if !t.is_code() || t.kind != TokKind::Ident {
            continue;
        }
        if !REDUCERS.contains(&file.text(i)) {
            continue;
        }
        let dotted = file.prev_code(i).map(|p| file.is(p, ".")).unwrap_or(false);
        if dotted {
            return true;
        }
    }
    false
}

/// Float evidence: a float literal or an `f32`/`f64` identifier.
fn has_float(file: &File, range: &Range<usize>) -> bool {
    for i in range.clone().filter(|&i| i < file.tokens.len()) {
        let t = &file.tokens[i];
        match t.kind {
            TokKind::Literal(LitKind::Float) => return true,
            TokKind::Ident if matches!(file.text(i), "f32" | "f64") => return true,
            _ => {}
        }
    }
    false
}

/// A005a — merge-method calls on receivers the worker does not own.
fn check_merges(
    file: &File,
    owned: &[String],
    body: Range<usize>,
    head: &str,
    path: &[String],
    findings: &mut Vec<Finding>,
) {
    for i in body.start..body.end.min(file.tokens.len()) {
        let t = &file.tokens[i];
        if !t.is_code() || t.kind != TokKind::Ident {
            continue;
        }
        let method = file.text(i);
        if !MERGE_METHODS.contains(&method) {
            continue;
        }
        let Some(dot) = file.prev_code(i).filter(|&p| file.is(p, ".")) else {
            continue;
        };
        let called = file
            .next_code(i + 1)
            .map(|n| file.tokens[n].kind == TokKind::Open(Delim::Paren))
            .unwrap_or(false);
        if !called {
            continue;
        }
        // Receiver base: walk `a.b.c` chains left; give up on anything
        // fancier (conservative toward silence).
        let Some(base) = receiver_base(file, dot, body.start) else {
            continue;
        };
        if owned.iter().any(|o| o == &base) {
            continue;
        }
        let mut full = vec![head.to_owned()];
        full.extend(path.iter().cloned());
        findings.push(Finding {
            code: Code::NondetOrderMerge,
            file: file.label.clone(),
            line: t.line,
            message: format!(
                "worker `{base}.{method}(…)` merges into captured state in scheduler order"
            ),
            path: full,
        });
    }
}

/// Leftmost identifier of a `a.b.c` receiver chain ending at `dot`.
fn receiver_base(file: &File, dot: usize, floor: usize) -> Option<String> {
    let mut p = file.prev_code(dot)?;
    let mut base = None;
    loop {
        if p < floor {
            break;
        }
        if file.tokens[p].kind != TokKind::Ident {
            // Non-ident chain head (`foo().x.push(…)`): give up.
            return None;
        }
        base = Some(file.text(p).to_owned());
        let Some(q) = file.prev_code(p).filter(|&q| q >= floor && file.is(q, ".")) else {
            break;
        };
        p = match file.prev_code(q) {
            Some(x) => x,
            None => break,
        };
    }
    base
}

/// A005b — iteration over hash-ordered collections inside a worker.
fn check_hash_iteration(
    file: &File,
    body: Range<usize>,
    head: &str,
    path: &[String],
    findings: &mut Vec<Finding>,
) {
    let hashed = hash_typed_names(file);
    if hashed.is_empty() {
        return;
    }
    let iter_methods = ["iter", "keys", "values", "into_iter", "drain"];
    for i in body.start..body.end.min(file.tokens.len()) {
        let t = &file.tokens[i];
        if !t.is_code() || t.kind != TokKind::Ident {
            continue;
        }
        let name = file.text(i);
        if !hashed.iter().any(|h| h == name) {
            continue;
        }
        // `name.iter()` / `.keys()` / … or `for k in name {` / `in &name {`.
        let mut hit = false;
        if let Some(d) = file.next_code(i + 1).filter(|&d| file.is(d, ".")) {
            if let Some(m) = file.next_code(d + 1) {
                if iter_methods.contains(&file.text(m)) {
                    hit = true;
                }
            }
        }
        if !hit {
            let mut p = file.prev_code(i);
            while let Some(q) = p.filter(|&q| file.is(q, "&")) {
                p = file.prev_code(q);
            }
            if p.map(|q| file.is(q, "in")).unwrap_or(false) {
                if let Some(n) = file.next_code(i + 1) {
                    if file.tokens[n].kind == TokKind::Open(Delim::Brace) {
                        hit = true;
                    }
                }
            }
        }
        if hit {
            let mut full = vec![head.to_owned()];
            full.extend(path.iter().cloned());
            findings.push(Finding {
                code: Code::NondetOrderMerge,
                file: file.label.clone(),
                line: t.line,
                message: format!(
                    "iteration order of hash collection `{name}` feeds parallel results"
                ),
                path: full,
            });
        }
    }
}

/// Identifiers declared with a `HashMap`/`HashSet` type or initializer
/// anywhere in the file (type ascription `name: HashMap<…>` or
/// `let name = HashMap::new()`).
fn hash_typed_names(file: &File) -> Vec<String> {
    let mut out = Vec::new();
    let n = file.tokens.len();
    for i in 0..n {
        let t = &file.tokens[i];
        if !t.is_code() || t.kind != TokKind::Ident {
            continue;
        }
        if matches!(file.text(i), "HashMap" | "HashSet") {
            // Backward: find the identifier this type belongs to —
            // `name: …HashMap` or `name = HashMap::new()` (with
            // optional path/generics between).
            let mut j = i;
            let mut hops = 0;
            while let Some(p) = file.prev_code(j) {
                hops += 1;
                if hops > 12 {
                    break;
                }
                if file.is(p, ":") || file.is(p, "=") {
                    if let Some(q) = file.prev_code(p) {
                        // Skip the second colon of `::`.
                        if file.is(q, ":") {
                            j = q;
                            continue;
                        }
                        if file.tokens[q].kind == TokKind::Ident
                            && !matches!(
                                file.text(q),
                                "let" | "mut" | "use" | "std" | "collections"
                            )
                        {
                            let name = file.text(q).to_owned();
                            if !out.contains(&name) {
                                out.push(name);
                            }
                        }
                    }
                    break;
                }
                if !(file.tokens[p].kind == TokKind::Ident
                    || file.is(p, "<")
                    || file.is(p, "&")
                    || file.is(p, ":"))
                {
                    break;
                }
                j = p;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::analyze_str;

    fn codes(src: &str) -> Vec<&'static str> {
        analyze_str(src).iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn float_sum_is_a004() {
        let c =
            codes("fn f(v: Vec<u64>) -> f64 {\n    v.into_par_iter().map(|x| x as f64).sum()\n}\n");
        assert!(c.contains(&"CM-A004"), "{c:?}");
    }

    #[test]
    fn integer_sum_is_clean() {
        let c =
            codes("fn f(v: Vec<u64>) -> u64 {\n    v.into_par_iter().map(|x| x + 1).sum()\n}\n");
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn float_collect_is_clean() {
        // collect() into Vec preserves input order — floats are fine.
        let c = codes(
            "fn f(v: Vec<u64>) -> Vec<f64> {\n    v.into_par_iter().map(|x| x as f64).collect()\n}\n",
        );
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn push_into_captured_is_a005() {
        let c = codes(
            "fn f(v: Vec<u32>) {\n    let mut results = Vec::new();\n    \
             v.into_par_iter().for_each(|x| results.push(x));\n}\n",
        );
        assert!(c.contains(&"CM-A005"), "{c:?}");
    }

    #[test]
    fn push_into_local_is_clean() {
        let c = codes(
            "fn f(v: Vec<Vec<u32>>) -> Vec<Vec<u32>> {\n    v.into_par_iter().map(|chunk| {\n        \
             let mut local = Vec::new();\n        for x in chunk { local.push(x); }\n        local\n    \
             }).collect()\n}\n",
        );
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn hashmap_iteration_in_worker_is_a005() {
        let c = codes(
            "use std::collections::HashMap;\n\
             fn f(v: Vec<u32>, weights: HashMap<u32, u32>) {\n    \
             v.into_par_iter().for_each(|_| {\n        for (k, w) in weights.iter() { let _ = (k, w); }\n    });\n}\n",
        );
        assert!(c.contains(&"CM-A005"), "{c:?}");
    }
}
