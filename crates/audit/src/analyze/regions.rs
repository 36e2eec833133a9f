//! Parallel-region discovery: find every fan-out site in the workspace
//! and the worker code it hands off.
//!
//! A *region* is one fan-out call site — `run_tasks(n, |i| …)`,
//! `run_each(pieces, fill)`, `thread::scope(|s| …)`,
//! `s.spawn(move || …)`, or a data-parallel chain such as
//! `chunks.into_par_iter().map(f)` — together with the worker code it
//! runs: closure literals passed in argument position and named
//! function/closure references (`run_each(pieces, fill_routes)`). The
//! passes then reason over the region's *reachable set* (worker roots
//! plus everything the call graph reaches from them).
//!
//! A method entry like `.map(…)` only counts as a fan-out when its
//! receiver chain (scanned backwards to the statement boundary) contains
//! a parallel source marker (`into_par_iter`, `par_iter`, …) — a plain
//! `vec.iter().map(…)` never forms a region.

use crate::ast::{closure_at, Closure, File, Workspace};
use crate::callgraph::CallGraph;
use crate::lexer::{Delim, TokKind};
use std::ops::Range;

/// Receiver-chain markers that make a method chain parallel.
pub(crate) const SOURCES: [&str; 4] = ["into_par_iter", "par_iter", "par_iter_mut", "par_chunks"];

/// Closure-taking combinators that fan out when they sit on a parallel
/// chain.
pub(crate) const ENTRIES: [&str; 8] = [
    "map",
    "for_each",
    "reduce",
    "fold",
    "filter",
    "filter_map",
    "flat_map",
    "inspect",
];

/// Calls whose closure argument runs on another thread regardless of
/// receiver: std's thread API and the `cubemesh-pool` entry points.
pub(crate) const DIRECT: [&str; 4] = ["spawn", "scope", "run_tasks", "run_each"];

/// One fan-out site and its worker code.
#[derive(Clone, Debug)]
pub struct Region {
    /// Function containing the fan-out site (index into `ws.fns`).
    pub caller: usize,
    /// File of the site (index into `ws.files`).
    pub file: usize,
    /// 1-based line of the fan-out call.
    pub line: u32,
    /// Token index of the fan-out API name in its file.
    pub tok: usize,
    /// The API that fans out (`map`, `spawn`, …).
    pub api: String,
    /// Closure literals passed at the site (params + body token ranges).
    pub closures: Vec<Closure>,
    /// Named worker roots (indices into `ws.fns`): function references
    /// passed by name, e.g. `.map(fill_routes)`.
    pub roots: Vec<usize>,
}

impl Region {
    /// Display label used as the head of call-path evidence.
    pub fn describe(&self, ws: &Workspace) -> String {
        format!(
            "{}:{} {}(…) worker",
            ws.files[self.file].label, self.line, self.api
        )
    }
}

/// Find every parallel region in non-test workspace code.
pub fn find_regions(ws: &Workspace, cg: &CallGraph) -> Vec<Region> {
    let mut out: Vec<Region> = Vec::new();
    for (fi, f) in ws.lib_fns() {
        let file = &ws.files[f.file];
        let mut i = f.body.start;
        while i < f.body.end.min(file.tokens.len()) {
            let t = &file.tokens[i];
            if t.is_code() && t.kind == TokKind::Ident && !file.in_macro_def(t.span.start) {
                let name = file.text(i);
                let is_direct = DIRECT.contains(&name);
                let is_entry = ENTRIES.contains(&name);
                if is_direct || is_entry {
                    if let Some(open) = call_open_paren(file, i) {
                        let qualifies = is_direct
                            || (is_method_call(file, i) && chain_has_source(file, f.body.start, i));
                        if qualifies {
                            let close = file.matching(open);
                            let (closures, roots) =
                                worker_args(ws, cg, f.file, fi, file, open, close);
                            if !closures.is_empty() || !roots.is_empty() {
                                out.push(Region {
                                    caller: fi,
                                    file: f.file,
                                    line: t.line,
                                    tok: i,
                                    api: name.to_owned(),
                                    closures,
                                    roots,
                                });
                                // Skip past the argument list so nested
                                // entries inside worker closures are
                                // seen relative to their own chain, not
                                // re-attributed to this site.
                                i = open;
                            }
                        }
                    }
                }
            }
            i += 1;
        }
    }
    out
}

/// If token `i` names a call (`name(…)`), the index of its `(`.
fn call_open_paren(file: &File, i: usize) -> Option<usize> {
    let j = file.next_code(i + 1)?;
    (file.tokens[j].kind == TokKind::Open(Delim::Paren)).then_some(j)
}

/// Is the identifier at `i` a method call (`.name(`)?
fn is_method_call(file: &File, i: usize) -> bool {
    file.prev_code(i).map(|p| file.is(p, ".")).unwrap_or(false)
}

/// Does the receiver chain of the method call at `i` contain a parallel
/// source marker? Scans backwards to the statement/argument boundary:
/// a `;`/`{`/`}`/`=` at relative depth 0, or the opening delimiter of an
/// enclosing group (relative depth < 0).
fn chain_has_source(file: &File, body_start: usize, i: usize) -> bool {
    let mut depth = 0i32;
    let mut j = i;
    while j > body_start {
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
                    return false;
                }
            }
            TokKind::Ident if SOURCES.contains(&file.text(j)) => {
                return true;
            }
            TokKind::Punct if depth == 0 && (file.is(j, ";") || file.is(j, "=")) => {
                return false;
            }
            _ => {}
        }
    }
    false
}

/// Extract worker code from the argument list `open..close` of a fan-out
/// call: closure-literal bodies, and named function references resolved
/// through the call graph.
fn worker_args(
    ws: &Workspace,
    cg: &CallGraph,
    file_idx: usize,
    caller: usize,
    file: &File,
    open: usize,
    close: usize,
) -> (Vec<Closure>, Vec<usize>) {
    let mut closures = Vec::new();
    let mut roots = Vec::new();
    // Split top-level arguments at depth-1 commas.
    let mut arg_starts = vec![open + 1];
    let mut depth = 0i32;
    for j in open..=close {
        let t = &file.tokens[j];
        if !t.is_code() {
            continue;
        }
        match t.kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => depth -= 1,
            TokKind::Punct if depth == 1 && file.is(j, ",") => arg_starts.push(j + 1),
            _ => {}
        }
    }
    for (k, &s) in arg_starts.iter().enumerate() {
        let end = arg_starts.get(k + 1).map(|&e| e - 1).unwrap_or(close);
        let Some(first) = file.next_code(s).filter(|&f| f < end) else {
            continue;
        };
        if file.is(first, "|") || file.is(first, "move") {
            if let Some(c) = closure_at(file, first) {
                closures.push(c);
            }
            continue;
        }
        // A bare identifier argument (exactly one code token): a named
        // function/closure reference.
        let only_code: Vec<usize> = (first..end).filter(|&j| file.tokens[j].is_code()).collect();
        if only_code.len() == 1 && file.tokens[only_code[0]].kind == TokKind::Ident {
            let name = file.text(only_code[0]);
            for &cand in cg.named(name) {
                let cf = &ws.fns[cand];
                let visible = !cf.in_tests
                    && (!cf.is_closure
                        || (cf.file == file_idx
                            && ws.fns[caller].body.start <= cf.body.start
                            && cf.body.end <= ws.fns[caller].body.end));
                if visible && !roots.contains(&cand) {
                    roots.push(cand);
                }
            }
        }
    }
    (closures, roots)
}

/// Workspace functions called from a token range of `file` (used to seed
/// reachability from closure-literal bodies).
pub fn calls_in_range(
    ws: &Workspace,
    cg: &CallGraph,
    file_idx: usize,
    caller: usize,
    range: &Range<usize>,
) -> Vec<usize> {
    let file = &ws.files[file_idx];
    let mut out = Vec::new();
    for j in range.clone() {
        let t = &file.tokens[j];
        if !t.is_code() || t.kind != TokKind::Ident {
            continue;
        }
        if call_open_paren(file, j).is_none() {
            continue;
        }
        for &cand in cg.named(file.text(j)) {
            let cf = &ws.fns[cand];
            let visible = !cf.in_tests
                && (!cf.is_closure
                    || (cf.file == file_idx
                        && ws.fns[caller].body.start <= cf.body.start
                        && cf.body.end <= ws.fns[caller].body.end));
            if visible && !out.contains(&cand) {
                out.push(cand);
            }
        }
    }
    out
}

/// The region's worker seed set: named roots plus functions called from
/// its closure literals.
pub fn worker_seeds(ws: &Workspace, cg: &CallGraph, region: &Region) -> Vec<usize> {
    let mut seeds = region.roots.clone();
    for clo in &region.closures {
        for c in calls_in_range(ws, cg, region.file, region.caller, &clo.body) {
            if !seeds.contains(&c) {
                seeds.push(c);
            }
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions_of(src: &str) -> (Workspace, CallGraph, Vec<Region>) {
        let mut ws = Workspace::default();
        ws.add_file("lib.rs", src.to_owned());
        let cg = CallGraph::build(&ws);
        let r = find_regions(&ws, &cg);
        (ws, cg, r)
    }

    #[test]
    fn par_chain_with_closure_is_a_region() {
        let (_, _, r) = regions_of(
            "fn f(chunks: Vec<u32>) -> u32 {\n    chunks.into_par_iter().map(|c| c + 1).sum()\n}\n",
        );
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].api, "map");
        assert_eq!(r[0].closures.len(), 1);
    }

    #[test]
    fn sequential_map_is_not_a_region() {
        let (_, _, r) = regions_of(
            "fn f(v: Vec<u32>) -> Vec<u32> {\n    v.iter().map(|c| c + 1).collect()\n}\n",
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn named_function_reference_becomes_root() {
        let (ws, _, r) = regions_of(
            "fn f(chunks: Vec<u32>) {\n    let fill = |c: u32| c + 1;\n    \
             let _: Vec<u32> = chunks.into_par_iter().map(fill).collect();\n}\n",
        );
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].roots.len(), 1);
        assert!(ws.fns[r[0].roots[0]].is_closure);
    }

    #[test]
    fn spawn_closure_is_direct_region() {
        let (_, _, r) = regions_of("fn f() {\n    spawn(move || { work(); });\n}\nfn work() {}\n");
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].api, "spawn");
    }

    #[test]
    fn pool_calls_are_direct_regions() {
        let (ws, _, r) = regions_of(
            "fn f(pieces: Vec<&mut [u64]>, n: usize) {\n    \
             let fill = |p: &mut [u64]| p.fill(1);\n    \
             cubemesh_pool::run_each(pieces, fill);\n    \
             let _ = cubemesh_pool::run_tasks(n, |i| i + 1);\n}\n",
        );
        let apis: Vec<&str> = r.iter().map(|x| x.api.as_str()).collect();
        assert_eq!(apis, ["run_each", "run_tasks"], "{r:?}");
        assert_eq!(r[0].roots.len(), 1, "named worker of run_each");
        assert!(ws.fns[r[0].roots[0]].is_closure);
        assert_eq!(r[1].closures.len(), 1, "closure literal of run_tasks");
    }

    #[test]
    fn inner_sequential_chain_inside_worker_not_reattributed() {
        // The inner `.filter(...)` rides a sequential `(1..n)` range; only
        // the outer `.map` is a region.
        let (_, _, r) = regions_of(
            "fn f(n: u64) -> u64 {\n    (1..n).into_par_iter().map(|a| \
             (1..n).filter(|&b| b > a).count() as u64).sum()\n}\n",
        );
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].api, "map");
    }

    #[test]
    fn worker_seeds_follow_closure_calls() {
        let (ws, cg, r) = regions_of(
            "fn f(chunks: Vec<u32>) -> u32 {\n    chunks.into_par_iter().map(|c| helper(c)).sum()\n}\n\
             fn helper(c: u32) -> u32 { c }\n",
        );
        assert_eq!(r.len(), 1);
        let seeds = worker_seeds(&ws, &cg, &r[0]);
        assert!(
            seeds.iter().any(|&s| ws.fns[s].name == "helper"),
            "{seeds:?}"
        );
    }
}
