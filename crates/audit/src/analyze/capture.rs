//! Worker-capture escape analysis: `CM-A001`..`CM-A003`.
//!
//! For every parallel region, the worker code (closure literals at the
//! fan-out site, named roots, and everything the call graph reaches from
//! them) is checked for three escape families:
//!
//! * **`CM-A001`** — a worker *closure* mutates an identifier it did not
//!   bind: `captured = …`, `captured += …`, `captured[i] = …`,
//!   `&mut captured`. Closures own their parameters and their `let`/`for`
//!   bindings; everything else they touch is captured from the enclosing
//!   scope and shared across workers.
//! * **`CM-A002`** — non-`Sync` interior mutability (`RefCell`, `Cell`,
//!   `Rc`) appears in any function reachable from a worker.
//!   `thread_local! { … }` bodies are exempt: those cells are per-thread
//!   by construction.
//! * **`CM-A003`** — a call path from a worker to code touching a
//!   `static mut`.
//!
//! The same pass reports the shared mutable state no worker reaches yet,
//! as **`CM-L007`** (`shared-mut-in-worker`): every `static mut`
//! declaration that no worker touches (each declaration is reported
//! exactly once — `CM-A003` when a worker reaches it, `CM-L007`
//! otherwise), and `RefCell::new` / `Cell::new` in a function that fans
//! out, outside the worker closures themselves (inside them it is
//! `CM-A002`). Either is a data race waiting for a refactor; keep
//! per-worker state plus a reduction instead.
//!
//! Ownership tracking is an over-approximation of "locals" (see
//! [`crate::ast::bound_idents`]); the passes flag only mutations whose
//! base identifier is provably *not* in that set, so shadowed rebinds
//! lean toward silence, never toward false alarms.

use super::regions::{worker_seeds, Region};
use super::{Code, Finding};
use crate::ast::{bound_idents, param_idents, File, Workspace};
use crate::callgraph::CallGraph;
use crate::lexer::{Delim, TokKind};
use std::ops::Range;

/// Names whose construction/mention marks interior mutability (A002).
const INTERIOR: [&str; 3] = ["RefCell", "Cell", "Rc"];

/// Primitive type names — an `&mut u32` in type position is not a
/// mutable capture.
const PRIMITIVES: [&str; 17] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "str",
];

/// Run the capture passes over all regions.
pub fn check(ws: &Workspace, cg: &CallGraph, regions: &[Region], findings: &mut Vec<Finding>) {
    let static_muts = collect_static_muts(ws);
    let mut reached: Vec<String> = Vec::new();
    for region in regions {
        let head = region.describe(ws);
        let seeds = worker_seeds(ws, cg, region);
        let reach = cg.reachable(ws, &seeds);

        // Closure literals at the fan-out site.
        let file = &ws.files[region.file];
        for clo in &region.closures {
            let mut owned = Vec::new();
            param_idents(file, clo.params.clone(), &mut owned);
            bound_idents(file, clo.body.clone(), &mut owned);
            check_closure_mutations(file, &owned, clo.body.clone(), &head, findings);
            check_interior(file, clo.body.clone(), &head, findings);
            check_static_mut(
                file,
                clo.body.clone(),
                &static_muts,
                &mut reached,
                &head,
                findings,
            );
        }

        // Everything reachable from the worker seeds. The call-path
        // evidence is a graph search per function, so it is only built
        // for functions that actually produce a finding.
        for &fi in &reach {
            let f = &ws.fns[fi];
            let ffile = &ws.files[f.file];
            let mut local = Vec::new();
            if f.is_closure {
                let mut owned = Vec::new();
                param_idents(ffile, f.sig.clone(), &mut owned);
                bound_idents(ffile, f.body.clone(), &mut owned);
                check_closure_mutations(ffile, &owned, f.body.clone(), &head, &mut local);
            }
            check_interior(ffile, f.body.clone(), &head, &mut local);
            check_static_mut(
                ffile,
                f.body.clone(),
                &static_muts,
                &mut reached,
                &head,
                &mut local,
            );
            if !local.is_empty() {
                let path = evidence_path(ws, cg, &seeds, fi);
                for mut finding in local {
                    finding.path.extend(path.iter().cloned());
                    findings.push(finding);
                }
            }
        }
    }
    for s in static_muts.iter().filter(|s| !reached.contains(&s.name)) {
        findings.push(Finding {
            code: Code::SharedMutInWorker,
            file: ws.files[s.file].label.clone(),
            line: s.line,
            message: format!(
                "`static mut {}` is an unconditional data race under real threads; use an \
                 atomic, a lock, or per-worker state",
                s.name
            ),
            path: Vec::new(),
        });
    }
    check_spawner_cells(ws, regions, findings);
}

/// A `static mut` declaration in non-test workspace code.
struct StaticMut {
    name: String,
    file: usize,
    line: u32,
}

/// `static mut NAME` declarations in non-test workspace code.
fn collect_static_muts(ws: &Workspace) -> Vec<StaticMut> {
    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        let n = file.tokens.len();
        for i in 0..n {
            let t = &file.tokens[i];
            if !t.is_code() || t.kind != TokKind::Ident || !file.is(i, "static") {
                continue;
            }
            if file.in_tests(t.span.start) || file.in_macro_def(t.span.start) {
                continue;
            }
            let Some(m) = file.next_code(i + 1) else {
                continue;
            };
            if !file.is(m, "mut") {
                continue;
            }
            let Some(name) = file.next_code(m + 1) else {
                continue;
            };
            if file.tokens[name].kind == TokKind::Ident {
                out.push(StaticMut {
                    name: file.text(name).to_owned(),
                    file: fi,
                    line: t.line,
                });
            }
        }
    }
    out
}

/// CM-L007: `RefCell::new` / `Cell::new` in a function that fans out,
/// outside its worker closures.
fn check_spawner_cells(ws: &Workspace, regions: &[Region], findings: &mut Vec<Finding>) {
    let mut spawners: Vec<usize> = regions
        .iter()
        .map(|r| r.caller)
        .filter(|&fi| !ws.fns[fi].is_closure)
        .collect();
    spawners.sort_unstable();
    spawners.dedup();
    for fi in spawners {
        let f = &ws.fns[fi];
        let file = &ws.files[f.file];
        let workers: Vec<Range<usize>> = regions
            .iter()
            .filter(|r| r.file == f.file)
            .flat_map(|r| r.closures.iter().map(|c| c.body.clone()))
            .collect();
        for i in f.body.clone() {
            let Some(cell) = ["RefCell", "Cell"]
                .into_iter()
                .find(|c| file.spells(i, &[c, ":", ":", "new", "("]).is_some())
            else {
                continue;
            };
            let off = file.tokens[i].span.start;
            if workers.iter().any(|w| w.contains(&i))
                || file.in_thread_local(off)
                || file.in_macro_def(off)
            {
                continue;
            }
            findings.push(Finding {
                code: Code::SharedMutInWorker,
                file: file.label.clone(),
                line: file.tokens[i].line,
                message: format!(
                    "`{cell}::new(…)` in worker-spawning fn `{}` is not Sync; keep per-worker \
                     state and reduce afterwards",
                    f.name
                ),
                path: Vec::new(),
            });
        }
    }
}

/// BFS path from the worker seeds to `sink`, rendered as qualified names
/// with the region head prepended.
fn evidence_path(ws: &Workspace, cg: &CallGraph, seeds: &[usize], sink: usize) -> Vec<String> {
    cg.find_path(ws, seeds, |f| f == sink)
        .map(|p| p.iter().map(|&i| ws.fns[i].qual.clone()).collect())
        .unwrap_or_default()
}

/// Push a finding whose evidence starts at the region `head`; callers
/// append the call path to the sink's function, if any.
fn push_finding(
    findings: &mut Vec<Finding>,
    code: Code,
    file: &File,
    line: u32,
    message: String,
    head: &str,
) {
    findings.push(Finding {
        code,
        file: file.label.clone(),
        line,
        message,
        path: vec![head.to_owned()],
    });
}

/// A001: mutations of non-owned identifiers inside a closure body.
fn check_closure_mutations(
    file: &File,
    owned: &[String],
    body: Range<usize>,
    head: &str,
    findings: &mut Vec<Finding>,
) {
    let mut reported: Vec<(u32, String)> = Vec::new();
    let mut i = body.start;
    let end = body.end.min(file.tokens.len());
    while i < end {
        let t = &file.tokens[i];
        if !t.is_code() {
            i += 1;
            continue;
        }
        // Skip attributes (`#[cfg(feature = "x")]` carries `=` tokens
        // that are not assignments).
        if file.is(i, "#") {
            if let Some(j) = file.next_code(i + 1) {
                if file.tokens[j].kind == TokKind::Open(Delim::Bracket) {
                    i = file.matching(j) + 1;
                    continue;
                }
            }
        }
        // `&mut captured` (value position only: skip type names).
        if file.is(i, "&") {
            if let Some(m) = file.next_code(i + 1) {
                if file.is(m, "mut") {
                    if let Some(x) = file.next_code(m + 1) {
                        if file.tokens[x].kind == TokKind::Ident {
                            let name = file.text(x);
                            let is_type = name
                                .chars()
                                .next()
                                .map(|c| c.is_ascii_uppercase())
                                .unwrap_or(false)
                                || PRIMITIVES.contains(&name);
                            if !is_type && !owned.iter().any(|o| o == name) {
                                let entry = (file.tokens[x].line, name.to_owned());
                                if !reported.contains(&entry) {
                                    push_finding(
                                        findings,
                                        Code::WorkerCaptureMut,
                                        file,
                                        entry.0,
                                        format!("worker takes `&mut {name}` to captured state"),
                                        head,
                                    );
                                    reported.push(entry);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Assignment operators: `place = v`, `place += v`, `place[i] = v`.
        if file.is(i, "=") {
            if let Some((line, base)) = assignment_base(file, &body, i) {
                if !owned.iter().any(|o| o == &base) {
                    let entry = (line, base.clone());
                    if !reported.contains(&entry) {
                        push_finding(
                            findings,
                            Code::WorkerCaptureMut,
                            file,
                            line,
                            format!("worker closure assigns to captured `{base}`"),
                            head,
                        );
                        reported.push(entry);
                    }
                }
            }
        }
        i += 1;
    }
}

/// If the `=` at token `eq` is an assignment to a simple place, return
/// `(line, base identifier)` of that place. Rejects `==`, `!=`, `<=`,
/// `>=`, `=>`, `..=`, `let` bindings, and pattern positions.
fn assignment_base(file: &File, body: &Range<usize>, eq: usize) -> Option<(u32, String)> {
    // Not `==` / `=>`.
    if let Some(n) = file.next_code(eq + 1) {
        if file.is(n, "=") || file.is(n, ">") {
            return None;
        }
    }
    let prev = file.prev_code(eq)?;
    if prev < body.start {
        return None;
    }
    // `==`, `!=`, `<=`, `>=`, shift-assigns: second char of a two-char
    // operator — reject.
    if ["=", "!", "<", ">"].iter().any(|s| file.is(prev, s)) {
        return None;
    }
    // Compound assignment: the place ends before the operator char.
    let compound = ["+", "-", "*", "/", "%", "&", "|", "^"]
        .iter()
        .any(|s| file.is(prev, s));
    let mut place_end = if compound {
        file.prev_code(prev)?
    } else {
        prev
    };
    if place_end < body.start {
        return None;
    }
    // Walk the place expression backwards: `a.b[c].d` → base `a`.
    let mut base: Option<usize> = None;
    loop {
        let t = &file.tokens[place_end];
        match t.kind {
            TokKind::Close(Delim::Bracket) => {
                // Step over the index group.
                place_end = file.prev_code(file.matching(place_end))?;
                if place_end < body.start {
                    return None;
                }
            }
            TokKind::Ident => {
                let txt = file.text(place_end);
                if matches!(txt, "let" | "mut" | "ref" | "if" | "else" | "in" | "while") {
                    return None;
                }
                base = Some(place_end);
                let q = match file.prev_code(place_end) {
                    Some(q) if q >= body.start => q,
                    _ => break,
                };
                if file.is(q, ".") {
                    place_end = file.prev_code(q)?;
                    if place_end < body.start {
                        break;
                    }
                } else if file.is(q, "let") || file.is(q, "mut") {
                    // A `let` binding init, not a mutation.
                    return None;
                } else {
                    break;
                }
            }
            _ => break,
        }
        if base.is_some()
            && !matches!(
                file.tokens[place_end].kind,
                TokKind::Ident | TokKind::Close(Delim::Bracket)
            )
        {
            break;
        }
    }
    let b = base?;
    Some((file.tokens[b].line, file.text(b).to_owned()))
}

/// A002: interior-mutability names mentioned in a token range.
fn check_interior(file: &File, body: Range<usize>, head: &str, findings: &mut Vec<Finding>) {
    for i in body.start..body.end.min(file.tokens.len()) {
        let t = &file.tokens[i];
        if !t.is_code() || t.kind != TokKind::Ident {
            continue;
        }
        let name = file.text(i);
        if !INTERIOR.contains(&name) {
            continue;
        }
        if file.in_thread_local(t.span.start) || file.in_macro_def(t.span.start) {
            continue;
        }
        push_finding(
            findings,
            Code::WorkerCaptureInterior,
            file,
            t.line,
            format!("`{name}` (non-Sync interior mutability) reachable from parallel workers"),
            head,
        );
    }
}

/// A003: references to `static mut` names (or local declarations) in a
/// token range; each name referenced is recorded in `reached`.
fn check_static_mut(
    file: &File,
    body: Range<usize>,
    static_muts: &[StaticMut],
    reached: &mut Vec<String>,
    head: &str,
    findings: &mut Vec<Finding>,
) {
    for i in body.start..body.end.min(file.tokens.len()) {
        let t = &file.tokens[i];
        if !t.is_code() || t.kind != TokKind::Ident {
            continue;
        }
        let name = file.text(i);
        if !static_muts.iter().any(|s| s.name == name) {
            continue;
        }
        if !reached.iter().any(|r| r == name) {
            reached.push(name.to_owned());
        }
        // Skip the declaration site itself only if it is also the use —
        // touching it from a worker is the finding either way.
        push_finding(
            findings,
            Code::WorkerReachStaticMut,
            file,
            t.line,
            format!("`static mut {name}` reachable from parallel workers"),
            head,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::analyze_str;
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        analyze_str(src).iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn captured_assignment_is_a001() {
        let c = codes(
            "fn f(v: Vec<u32>) {\n    let mut total = 0u32;\n    \
             v.into_par_iter().for_each(|x| total += x);\n}\n",
        );
        assert!(c.contains(&"CM-A001"), "{c:?}");
    }

    #[test]
    fn local_mutation_is_clean() {
        let c = codes(
            "fn f(v: Vec<u32>) -> Vec<u32> {\n    v.into_par_iter().map(|x| {\n        \
             let mut acc = 0;\n        acc += x;\n        acc\n    }).collect()\n}\n",
        );
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn named_closure_mutating_capture_is_found_interprocedurally() {
        let c = analyze_str(
            "fn f(v: Vec<u32>) {\n    let mut hits = 0u32;\n    \
             let tally = |x: u32| { hits += x; };\n    \
             v.into_par_iter().for_each(|x| tally(x));\n}\n",
        );
        assert!(c.iter().any(|f| f.code == Code::WorkerCaptureMut), "{c:?}");
        let f = c.iter().find(|f| f.code == Code::WorkerCaptureMut).unwrap();
        assert!(f.path.iter().any(|p| p.contains("tally")), "{:?}", f.path);
    }

    #[test]
    fn refcell_in_reachable_fn_is_a002() {
        let c = codes(
            "use std::cell::RefCell;\nfn shared() -> RefCell<u32> { RefCell::new(0) }\n\
             fn f(v: Vec<u32>) {\n    v.into_par_iter().for_each(|x| { let _ = shared(); let _ = x; });\n}\n",
        );
        assert!(c.contains(&"CM-A002"), "{c:?}");
    }

    #[test]
    fn thread_local_refcell_is_exempt() {
        let c = codes(
            "thread_local! {\n    static BUF: std::cell::RefCell<Vec<u32>> = std::cell::RefCell::new(Vec::new());\n}\n\
             fn f(v: Vec<u32>) -> Vec<u32> {\n    v.into_par_iter().map(|x| x + 1).collect()\n}\n",
        );
        assert!(c.is_empty(), "{c:?}");
    }

    #[test]
    fn static_mut_reach_is_a003() {
        let c = codes(
            "static mut COUNTER: u32 = 0;\nfn bump() { unsafe { COUNTER += 1; } }\n\
             fn f(v: Vec<u32>) {\n    v.into_par_iter().for_each(|_| bump());\n}\n",
        );
        assert!(c.contains(&"CM-A003"), "{c:?}");
    }

    #[test]
    fn index_assignment_to_captured_is_a001() {
        let c = codes(
            "fn f(v: Vec<usize>, out: &mut [u32]) {\n    \
             v.into_par_iter().for_each(|i| out[i] = 1);\n}\n",
        );
        assert!(c.contains(&"CM-A001"), "{c:?}");
    }

    #[test]
    fn unreached_static_mut_is_l007() {
        let f = analyze_str("static mut COUNTER: u64 = 0;\npub fn f() {}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, Code::SharedMutInWorker);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn cell_beside_a_spawn_is_l007() {
        let src = "pub fn fan_out() {\n    let acc = RefCell::new(0u64);\n    spawn(|| {});\n    \
                   let _ = acc;\n}\npub fn quiet() {\n    let _ = RefCell::new(1u8);\n}\n";
        let f = analyze_str(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, Code::SharedMutInWorker);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("fan_out"), "{}", f[0].message);
        // Inside the worker closure the same cell is CM-A002, not both.
        let inside = "pub fn fan_out() {\n    spawn(|| {\n        let _ = Cell::new(0u8);\n    \
                      });\n}\n";
        assert_eq!(codes(inside), ["CM-A002"]);
    }

    #[test]
    fn comparisons_and_match_arms_are_not_assignments() {
        let c = codes(
            "fn f(v: Vec<u32>) -> Vec<bool> {\n    let limit = 3;\n    \
             v.into_par_iter().map(|x| match x {\n        0 => true,\n        \
             n => n >= limit && n <= 9 && n == 5,\n    }).collect()\n}\n",
        );
        assert!(c.is_empty(), "{c:?}");
    }
}
