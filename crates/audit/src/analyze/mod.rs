//! The workspace's source analyzer: the lexer/AST/call-graph front end
//! and every pass that runs over it. `cubemesh-audit analyze` is the one
//! source gate; its findings answer two questions.
//!
//! *Is the workspace safe to run on a work-stealing pool, and will it
//! stay byte-identical when threads reorder chunks?* The interprocedural
//! `CM-A…` passes:
//!
//! | code | rule | what it proves absent |
//! |------|------|----------------------|
//! | `CM-A005` | `nondet-order-merge` | order-sensitive merges in worker closures: `push`/`insert`/`extend` on a lock guard or `+=` to one, or `HashMap`/`HashSet` iteration feeding results |
//! | `CM-A006` | `relaxed-ordering` | `Ordering::Relaxed` outside the documented stat/trace guard files (`//! audit: relaxed-domain(…)`) |
//! | `CM-A007` | `lock-order` | two functions acquiring the same pair of locks in opposite orders |
//! | `CM-A009` | `range-mul-overflow` | unchecked `*`/`<<` on shape/address-typed `usize` values whose proven interval can exceed 64 bits (interval dataflow over the [`crate::cfg`] CFG; `checked_*`/assert guards recognized) |
//! | `CM-A010` | `range-add-overflow` | unchecked `+` where both operands are unbounded and at least one is shape/address-typed |
//! | `CM-A011` | `taint-unchecked-sink` | an untrusted value (env read, annotated decode) reaching a slice index or `Vec::with_capacity` without a validation boundary |
//! | `CM-A012` | `taint-unvalidated-shape` | an untrusted value reaching a `Shape::…` constructor without validation |
//! | `CM-A013` | `dropped-result` | the `Result` of a workspace fallible function discarded by `let _ =` |
//!
//! *Does the library keep its local hygiene?* The site-local `CM-L…`
//! rules, token checks over the same [`Workspace`]:
//!
//! | code | rule | pass | what it forbids |
//! |------|------|------|-----------------|
//! | `CM-L001` | `panic-in-lib` | [`hygiene`] | `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `CM-L002` | `narrowing-addr-cast` | [`hygiene`] | an address-carrying value cast below 64 bits |
//! | `CM-L005` | `shape-product-overflow` | [`hygiene`] | a shape extent, or a product of extents, cast below 64 bits |
//! | `CM-L006` | `alloc-in-chunk-loop` | [`hygiene`] | `Vec::new()` / `vec![…]` inside a chunk/shard loop |
//! | `CM-L007` | `shared-mut-in-worker` | [`hygiene`] | a `static mut` declaration |
//!
//! Retired codes are never reused. `CM-L003` and `CM-L004` belonged to
//! the panic allowlist. The rest are rejected by rustc, and the
//! compile-fail probes in `crates/audit/tests/compile_fail/` pin each
//! error: `CM-A001` (captured mutation), `CM-A002`
//! (`RefCell`/`Cell`/`Rc` in a worker), `CM-A004` (float reduction over
//! a parallel chain), A005's captured-collection merge and L007's cell
//! beside a fan-out fail the worker's `Fn + Sync` or `Send` bound;
//! `CM-A003` (a worker reaching a `static mut`) needs `unsafe`, which
//! every library crate forbids and `crates/pool` denies; `CM-A008` and
//! `CM-L008` (a span guard dropped early or out of order) cannot be
//! written, since `span!` binds its guard where no caller can name it;
//! and the two other forms of a dropped `Result` that `CM-A013` once
//! covered, a bare statement and a binding never read, are
//! `unused_must_use` and `unused_variables` under clippy's
//! `-D warnings`.
//!
//! Interprocedural findings carry *call-path evidence* — the chain of
//! qualified function names from the fan-out site to the sink — and
//! every finding a stable diagnostic code, so the `check.sh` gate can
//! archive machine-readable reports and a human can audit the path
//! rather than re-derive it.
//!
//! Findings are suppressed by an inline justification comment on the
//! same line or the line above:
//!
//! ```text
//! // audit:allow(CM-A006): per-worker counter, read only after join
//! ```
//!
//! The reason text is mandatory; a bare `audit:allow(CODE)` does not
//! suppress.

pub mod hygiene;
pub mod ordering;
pub mod range;
pub mod reduction;
pub mod regions;
pub mod results;
pub mod taint;

use crate::ast::Workspace;
use crate::callgraph::CallGraph;
use regions::Region;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stable diagnostic codes for analyzer findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Order-sensitive merge in a parallel region.
    NondetOrderMerge,
    /// `Ordering::Relaxed` outside a documented relaxed domain.
    RelaxedOrdering,
    /// Inconsistent lock acquisition order.
    LockOrder,
    /// Unchecked `*`/`<<` on a shape/address value that may overflow.
    RangeMulOverflow,
    /// Unchecked `+` on shape/address values that may overflow.
    RangeAddOverflow,
    /// Untrusted value reaches an index/capacity sink unvalidated.
    TaintUncheckedSink,
    /// Untrusted value reaches a shape constructor unvalidated.
    TaintUnvalidatedShape,
    /// `Result` of a workspace fallible function discarded by `let _ =`.
    DroppedResult,
    /// Panic-family call in non-test library code.
    PanicInLib,
    /// Narrowing cast of an address-carrying value.
    NarrowingAddrCast,
    /// Narrowing cast of a shape extent or extent product.
    ShapeProductOverflow,
    /// Allocation inside a chunk/shard loop body.
    AllocInChunkLoop,
    /// A `static mut` declaration.
    SharedMutInWorker,
}

impl Code {
    /// The stable `CM-Axxx` / `CM-Lxxx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::NondetOrderMerge => "CM-A005",
            Code::RelaxedOrdering => "CM-A006",
            Code::LockOrder => "CM-A007",
            Code::RangeMulOverflow => "CM-A009",
            Code::RangeAddOverflow => "CM-A010",
            Code::TaintUncheckedSink => "CM-A011",
            Code::TaintUnvalidatedShape => "CM-A012",
            Code::DroppedResult => "CM-A013",
            Code::PanicInLib => "CM-L001",
            Code::NarrowingAddrCast => "CM-L002",
            Code::ShapeProductOverflow => "CM-L005",
            Code::AllocInChunkLoop => "CM-L006",
            Code::SharedMutInWorker => "CM-L007",
        }
    }

    /// Human-readable rule slug.
    pub fn slug(self) -> &'static str {
        match self {
            Code::NondetOrderMerge => "nondet-order-merge",
            Code::RelaxedOrdering => "relaxed-ordering",
            Code::LockOrder => "lock-order",
            Code::RangeMulOverflow => "range-mul-overflow",
            Code::RangeAddOverflow => "range-add-overflow",
            Code::TaintUncheckedSink => "taint-unchecked-sink",
            Code::TaintUnvalidatedShape => "taint-unvalidated-shape",
            Code::DroppedResult => "dropped-result",
            Code::PanicInLib => "panic-in-lib",
            Code::NarrowingAddrCast => "narrowing-addr-cast",
            Code::ShapeProductOverflow => "shape-product-overflow",
            Code::AllocInChunkLoop => "alloc-in-chunk-loop",
            Code::SharedMutInWorker => "shared-mut-in-worker",
        }
    }

    /// All analyzer codes, in declaration order.
    pub const ALL: [Code; 13] = [
        Code::NondetOrderMerge,
        Code::RelaxedOrdering,
        Code::LockOrder,
        Code::RangeMulOverflow,
        Code::RangeAddOverflow,
        Code::TaintUncheckedSink,
        Code::TaintUnvalidatedShape,
        Code::DroppedResult,
        Code::PanicInLib,
        Code::NarrowingAddrCast,
        Code::ShapeProductOverflow,
        Code::AllocInChunkLoop,
        Code::SharedMutInWorker,
    ];
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable diagnostic code.
    pub code: Code,
    /// Repo-relative file of the sink.
    pub file: String,
    /// 1-based line of the sink.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Call-path evidence: qualified function names from the fan-out
    /// root to the sink (empty for intraprocedural findings).
    pub path: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.file,
            self.line,
            self.code,
            self.code.slug(),
            self.message
        )?;
        if !self.path.is_empty() {
            write!(f, "\n    via {}", self.path.join(" -> "))?;
        }
        Ok(())
    }
}

impl Finding {
    /// Render as one JSON object in the `cubemesh-audit-diag/v1` schema.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| {
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        };
        let path_json: Vec<String> = self
            .path
            .iter()
            .map(|p| format!("\"{}\"", esc(p)))
            .collect();
        format!(
            "{{\"code\":\"{}\",\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"path\":[{}]}}",
            self.code,
            self.code.slug(),
            esc(&self.file),
            self.line,
            esc(&self.message),
            path_json.join(",")
        )
    }
}

/// Inline suppressions: `// audit:allow(CODE): reason`.
#[derive(Debug, Default)]
pub struct Suppressions {
    /// `(file label, line, code string)` triples.
    entries: Vec<(String, u32, String)>,
}

impl Suppressions {
    /// Collect suppression comments from a parsed file. A suppression
    /// without a non-empty reason after `): ` is ignored (the gate
    /// refuses justification-free waivers).
    pub fn collect(&mut self, file: &crate::ast::File) {
        for t in &file.tokens {
            if t.kind != crate::lexer::TokKind::Comment {
                continue;
            }
            let text = t.text(&file.src);
            let mut rest = text;
            while let Some(pos) = rest.find("audit:allow(") {
                rest = &rest[pos + "audit:allow(".len()..];
                let Some(close) = rest.find(')') else { break };
                let code = rest[..close].trim().to_string();
                let after = &rest[close + 1..];
                let reason_ok = after
                    .strip_prefix(':')
                    .map(|r| !r.trim().is_empty())
                    .unwrap_or(false);
                if reason_ok && !code.is_empty() {
                    self.entries.push((file.label.clone(), t.line, code));
                }
                rest = after;
            }
        }
    }

    /// Is a finding with `code` at `file:line` suppressed? Matches a
    /// justified annotation on the same line or the line directly above.
    pub fn covers(&self, file: &str, line: u32, code: &str) -> bool {
        self.entries
            .iter()
            .any(|(f, l, c)| f == file && c == code && (*l == line || *l + 1 == line))
    }

    /// Number of suppression entries (for reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no suppressions were found.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Directories never holding library sources: vendored shims, binaries,
/// benches, tests, examples and build output.
const SKIP_DIRS: [&str; 7] = [
    "shims", "bin", "benches", "tests", "examples", "target", ".git",
];

/// Is `rel` (repo-relative, `/`-separated) a library source the
/// analyzer reads: `**/src/**.rs` outside [`SKIP_DIRS`]?
fn is_lib_source(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    rel.ends_with(".rs") && parts.contains(&"src") && !parts.iter().any(|p| SKIP_DIRS.contains(p))
}

/// Every library source under `root`, as sorted `(repo-relative label,
/// path)` pairs: the analyzer's file set.
pub fn walk_lib_sources(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    fn walk(dir: &Path, root: &Path, files: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                let name = path.file_name().map(|n| n.to_string_lossy());
                if !name.is_some_and(|n| SKIP_DIRS.contains(&n.as_ref())) {
                    walk(&path, root, files)?;
                }
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if is_lib_source(&rel) {
                files.push((rel, path));
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

/// Parse the library sources under `root` (the repo checkout).
pub fn load_root(root: &Path) -> io::Result<Workspace> {
    let mut ws = Workspace::default();
    for (rel, path) in walk_lib_sources(root)? {
        ws.add_file(&rel, fs::read_to_string(path)?);
    }
    Ok(ws)
}

/// What a pass sees: the parsed workspace and what is derived from it.
struct Context<'a> {
    ws: &'a Workspace,
    cg: CallGraph,
    regions: Vec<Region>,
}

/// A pass entry point.
type PassFn = fn(&Context<'_>, &mut Vec<Finding>);

/// Every pass in run order, under the name `pass_ms` reports it by.
const PASSES: [(&str, PassFn); 6] = [
    ("reduction", |cx, out| {
        reduction::check(cx.ws, &cx.cg, &cx.regions, out)
    }),
    ("ordering", |cx, out| ordering::check(cx.ws, &cx.cg, out)),
    ("range", |cx, out| range::check(cx.ws, out)),
    ("taint", |cx, out| taint::check(cx.ws, out)),
    ("results", |cx, out| results::check(cx.ws, out)),
    ("hygiene", |cx, out| hygiene::check(cx.ws, out)),
];

/// The passes that carry the `CM-L…` rules. They skip the dataflow
/// passes, so they stay cheap enough for a debug-build test.
pub const SOURCE_RULE_PASSES: [&str; 1] = ["hygiene"];

/// A complete analyzer run: findings plus run metadata.
#[derive(Debug)]
pub struct Analysis {
    /// Findings that survived suppression, sorted by file/line/code.
    pub findings: Vec<Finding>,
    /// Files analyzed.
    pub files: usize,
    /// Functions (incl. named closures) in the symbol table.
    pub functions: usize,
    /// Parallel regions discovered.
    pub regions: usize,
    /// Suppression comments honored.
    pub suppressions: usize,
    /// Wall time of the analysis (excluding file IO is not worth the
    /// complexity; this is end-to-end).
    pub elapsed_ms: u128,
    /// Per-pass wall time, in run order — surfaced by `check.sh` so a
    /// pass that blows the analyze budget is identifiable at a glance.
    pub pass_ms: Vec<(&'static str, u128)>,
}

impl Analysis {
    /// Analyze the workspace rooted at `root` (the repo checkout) with
    /// every pass.
    pub fn run_root(root: &Path) -> io::Result<Analysis> {
        let started = Instant::now();
        let ws = load_root(root)?;
        let mut analysis = Analysis::run(&ws);
        analysis.elapsed_ms = started.elapsed().as_millis();
        Ok(analysis)
    }

    /// Analyze an already-parsed workspace with every pass.
    pub fn run(ws: &Workspace) -> Analysis {
        Analysis::run_passes(ws, |_| true)
    }

    /// Analyze with the passes whose names `select` accepts (see
    /// [`SOURCE_RULE_PASSES`]).
    pub fn run_passes(ws: &Workspace, select: impl Fn(&str) -> bool) -> Analysis {
        let started = Instant::now();
        let cg = CallGraph::build(ws);
        let regions = regions::find_regions(ws, &cg);
        let cx = Context { ws, cg, regions };
        let mut suppress = Suppressions::default();
        for f in &ws.files {
            suppress.collect(f);
        }

        let mut findings = Vec::new();
        let mut pass_ms: Vec<(&'static str, u128)> = Vec::new();
        for (name, pass) in PASSES.iter().filter(|(name, _)| select(name)) {
            let t0 = Instant::now();
            pass(&cx, &mut findings);
            pass_ms.push((name, t0.elapsed().as_millis()));
        }

        findings.retain(|f| !suppress.covers(&f.file, f.line, f.code.as_str()));
        findings.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
        findings.dedup();
        Analysis {
            findings,
            files: ws.files.len(),
            functions: ws.fns.len(),
            regions: cx.regions.len(),
            suppressions: suppress.len(),
            elapsed_ms: started.elapsed().as_millis(),
            pass_ms,
        }
    }

    /// Render the run as the machine-readable gate artifact.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.findings.iter().map(Finding::to_json).collect();
        let passes: Vec<String> = self
            .pass_ms
            .iter()
            .map(|(name, ms)| format!("\"{name}\":{ms}"))
            .collect();
        format!(
            "{{\"schema\":\"cubemesh-audit-diag/v1\",\"tool\":\"analyze\",\"files\":{},\
             \"functions\":{},\"regions\":{},\"suppressions\":{},\"elapsed_ms\":{},\
             \"pass_ms\":{{{}}},\
             \"findings\":[{}]}}",
            self.files,
            self.functions,
            self.regions,
            self.suppressions,
            self.elapsed_ms,
            passes.join(","),
            body.join(",\n ")
        )
    }
}

#[cfg(test)]
pub(crate) fn analyze_str(src: &str) -> Vec<Finding> {
    let mut ws = Workspace::default();
    ws.add_file("lib.rs", src.to_owned());
    Analysis::run(&ws).findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_requires_reason() {
        let mut s = Suppressions::default();
        let f = crate::ast::File::parse(
            "lib.rs",
            "// audit:allow(CM-A006): documented stat counter\n\
             // audit:allow(CM-A005)\nfn f() {}\n"
                .to_owned(),
        );
        s.collect(&f);
        assert!(s.covers("lib.rs", 1, "CM-A006"));
        assert!(s.covers("lib.rs", 2, "CM-A006"), "line-above rule");
        assert!(!s.covers("lib.rs", 2, "CM-A005"), "reason-less is void");
        assert!(!s.covers("other.rs", 1, "CM-A006"));
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with("CM-A") || c.as_str().starts_with("CM-L"));
        }
        // Retired codes are never reused.
        for retired in [
            "CM-A001", "CM-A002", "CM-A003", "CM-A004", "CM-A008", "CM-L003", "CM-L004", "CM-L008",
        ] {
            assert!(!seen.contains(retired), "{retired} reused");
        }
    }

    #[test]
    fn lib_source_filter() {
        assert!(is_lib_source("crates/core/src/plan.rs"));
        assert!(is_lib_source("src/lib.rs"));
        assert!(!is_lib_source("crates/core/src/bin/tool.rs"));
        assert!(!is_lib_source("crates/shims/rand/src/lib.rs"));
        assert!(!is_lib_source("tests/paper_examples.rs"));
        assert!(!is_lib_source("examples/quickstart.rs"));
        assert!(!is_lib_source("crates/bench/benches/obs_overhead.rs"));
        assert!(!is_lib_source("crates/core/src/notes.md"));
    }

    #[test]
    fn finding_json_escapes() {
        let f = Finding {
            code: Code::RelaxedOrdering,
            file: "a.rs".into(),
            line: 3,
            message: "say \"hi\"".into(),
            path: vec!["a.rs::f".into()],
        };
        let j = f.to_json();
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\"code\":\"CM-A006\""));
        assert!(j.contains("\"rule\":\"relaxed-ordering\""));
    }
}
