//! Intraprocedural control-flow graphs over the token/AST layer.
//!
//! A [`Cfg`] partitions the *code* tokens of one function body into
//! basic blocks and connects them with edges for branches (`if`/`else`,
//! `match` arms), loops (`loop`/`while`/`for`, with back edges marked),
//! and early exits (`return`, `?`, `break`, `continue`). It is built
//! from the same lossless token stream the rest of the analyzer uses —
//! no separate parse — and it over-approximates: closure literals are
//! inlined into the enclosing block sequence, and a `?` adds an
//! exit edge without splitting the block.
//!
//! Invariants (property-checked over the whole workspace by
//! `tests/cfg_roundtrip.rs`):
//!
//! * every code token of the body belongs to **exactly one** block;
//! * block token lists are strictly increasing (each block is a
//!   straight-line run in source order);
//! * every edge targets a valid block, every loop construct produces
//!   at least one edge marked `back`, and back edges only target
//!   blocks [`Cfg::loop_heads`] reports.

use crate::ast::{File, FnItem};
use crate::lexer::{Delim, TokKind};
use std::ops::Range;

/// One edge of the CFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Target block id.
    pub to: usize,
    /// `true` for a loop back edge (body exit → loop head).
    pub back: bool,
}

/// A basic block: a maximal run of code tokens with no internal branch.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Indices of the code tokens (into the file's token vector) this
    /// block owns, in source order.
    pub tokens: Vec<usize>,
    /// Successor edges.
    pub succs: Vec<Edge>,
}

/// The control-flow graph of one function body.
#[derive(Debug)]
pub struct Cfg {
    /// Blocks; `blocks[entry]` is the function entry.
    pub blocks: Vec<Block>,
    /// Entry block id (always 0).
    pub entry: usize,
    /// Synthetic exit block id; `return`/`?` edges land here, as does
    /// the fall-through end of the body. Owns no tokens.
    pub exit: usize,
}

impl Cfg {
    /// Build the CFG of `item`'s body in `file`.
    pub fn build(file: &File, item: &FnItem) -> Cfg {
        // Body range is inclusive of the outer braces (or, for
        // expression-bodied closures, just the expression tokens).
        let mut range = item.body.clone();
        range.end = range.end.min(file.tokens.len());
        if range.start < range.end && file.tokens[range.start].kind == TokKind::Open(Delim::Brace) {
            range = range.start + 1..range.end.saturating_sub(1);
        }
        let mut b = Builder {
            file,
            blocks: vec![Block::default(), Block::default()],
        };
        let last = b.stmts(range, ENTRY, &LoopCtx::none());
        b.edge(last, EXIT, false);
        Cfg {
            blocks: b.blocks,
            entry: ENTRY,
            exit: EXIT,
        }
    }

    /// Ids of loop-head blocks: targets of back edges.
    pub fn loop_heads(&self) -> Vec<usize> {
        let mut heads: Vec<usize> = self
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter().filter(|e| e.back).map(|e| e.to))
            .collect();
        heads.sort_unstable();
        heads.dedup();
        heads
    }

    /// Total number of back edges.
    pub fn back_edge_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.succs.iter().filter(|e| e.back).count())
            .sum()
    }
}

const ENTRY: usize = 0;
const EXIT: usize = 1;

/// Break/continue targets of the innermost enclosing loop.
struct LoopCtx {
    /// `continue` target (loop head), if inside a loop.
    head: Option<usize>,
    /// `break` target (after-loop block), if inside a loop.
    after: Option<usize>,
}

impl LoopCtx {
    fn none() -> LoopCtx {
        LoopCtx {
            head: None,
            after: None,
        }
    }
}

struct Builder<'a> {
    file: &'a File,
    blocks: Vec<Block>,
}

impl Builder<'_> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, back: bool) {
        let e = Edge { to, back };
        if !self.blocks[from].succs.contains(&e) {
            self.blocks[from].succs.push(e);
        }
    }

    fn push(&mut self, block: usize, tok: usize) {
        self.blocks[block].tokens.push(tok);
    }

    /// Append the statement sequence in `range` starting in block `cur`;
    /// returns the block that is current after the range. Every code
    /// token in `range` is pushed to exactly one block.
    fn stmts(&mut self, range: Range<usize>, mut cur: usize, ctx: &LoopCtx) -> usize {
        let file = self.file;
        let mut i = range.start;
        while i < range.end {
            let t = &file.tokens[i];
            if !t.is_code() {
                i += 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                match file.text(i) {
                    "if" => {
                        (cur, i) = self.if_chain(i, range.end, cur, ctx);
                        continue;
                    }
                    "loop" | "while" | "for" => {
                        (cur, i) = self.loop_stmt(i, range.end, cur, ctx);
                        continue;
                    }
                    "match" => {
                        (cur, i) = self.match_stmt(i, range.end, cur, ctx);
                        continue;
                    }
                    "return" => {
                        // Consume through the end of the statement, then
                        // jump to exit; what follows starts a dead block.
                        i = self.consume_stmt(i, range.end, cur);
                        self.edge(cur, EXIT, false);
                        cur = self.new_block();
                        continue;
                    }
                    "break" | "continue" => {
                        let target = if file.text(i) == "break" {
                            ctx.after
                        } else {
                            ctx.head
                        };
                        i = self.consume_stmt(i, range.end, cur);
                        match target {
                            // `continue` to a head is the structured
                            // back edge.
                            Some(to) => self.edge(cur, to, Some(to) == ctx.head),
                            // Labeled break past our modeling, or a
                            // `break` in a match-in-loop we lost track
                            // of: fall out to exit, conservatively.
                            None => self.edge(cur, EXIT, false),
                        }
                        cur = self.new_block();
                        continue;
                    }
                    _ => {}
                }
            }
            match t.kind {
                // A nested plain block: recurse so control flow inside
                // it is modeled, then continue in its exit block.
                TokKind::Open(Delim::Brace) => {
                    let close = file.matching(i);
                    self.push(cur, i);
                    cur = self.stmts(i + 1..close.min(range.end), cur, ctx);
                    if close < range.end {
                        self.push(cur, close);
                    }
                    i = close + 1;
                    continue;
                }
                // `?`: early-return possibility — edge to exit, but the
                // happy path continues in the same block.
                TokKind::Punct if file.is(i, "?") => {
                    self.push(cur, i);
                    self.edge(cur, EXIT, false);
                    i += 1;
                    continue;
                }
                _ => {}
            }
            self.push(cur, i);
            i += 1;
        }
        cur
    }

    /// Consume tokens of a simple statement (`return …;`, `break …;`)
    /// through its terminating `;` at delimiter depth 0 (or the end of
    /// the range / an unbalanced closer), pushing them into `block`.
    /// Returns the index after the last consumed token.
    fn consume_stmt(&mut self, start: usize, end: usize, block: usize) -> usize {
        let file = self.file;
        let mut depth = 0i32;
        let mut i = start;
        while i < end {
            let t = &file.tokens[i];
            if !t.is_code() {
                i += 1;
                continue;
            }
            match t.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => {
                    if depth == 0 {
                        return i; // enclosing closer: statement ends here
                    }
                    depth -= 1;
                }
                TokKind::Punct if depth == 0 && (file.is(i, ";") || file.is(i, ",")) => {
                    self.push(block, i);
                    return i + 1;
                }
                _ => {}
            }
            self.push(block, i);
            i += 1;
        }
        end
    }

    /// Find the `{` opening the block a control header leads to,
    /// pushing the header tokens (condition/iterator) into `block`.
    /// Returns `Ok` with the index of the `{`, or `Err` with the index
    /// to resume at when there is none: an unbalanced closer (the `if`
    /// was a match guard inside `matches!(…)`), or `end`.
    fn header_to_brace(&mut self, start: usize, end: usize, block: usize) -> Result<usize, usize> {
        let file = self.file;
        let mut depth = 0i32;
        let mut i = start;
        while i < end {
            let t = &file.tokens[i];
            if !t.is_code() {
                i += 1;
                continue;
            }
            match t.kind {
                TokKind::Open(Delim::Brace) if depth == 0 => return Ok(i),
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => {
                    if depth == 0 {
                        return Err(i);
                    }
                    depth -= 1;
                }
                _ => {}
            }
            self.push(block, i);
            i += 1;
        }
        Err(end)
    }

    /// `if cond { … } [else if … { … }]* [else { … }]` — returns the
    /// join block and the index after the construct.
    fn if_chain(&mut self, if_tok: usize, end: usize, cur: usize, ctx: &LoopCtx) -> (usize, usize) {
        let file = self.file;
        self.push(cur, if_tok);
        let open = match self.header_to_brace(if_tok + 1, end, cur) {
            Ok(open) => open,
            Err(resume) => return (cur, resume),
        };
        let close = file.matching(open);
        let then_entry = self.new_block();
        self.edge(cur, then_entry, false);
        self.push(then_entry, open);
        let then_exit = self.stmts(open + 1..close.min(end), then_entry, ctx);
        if close < end {
            self.push(then_exit, close);
        }
        let join = self.new_block();
        self.edge(then_exit, join, false);

        // `else` / `else if`?
        let mut after = close + 1;
        let mut else_done = false;
        if let Some(e) = file.next_code(close + 1).filter(|&e| e < end) {
            if file.tokens[e].kind == TokKind::Ident && file.is(e, "else") {
                let else_entry = self.new_block();
                self.edge(cur, else_entry, false);
                self.push(else_entry, e);
                let nxt = file.next_code(e + 1).filter(|&n| n < end);
                match nxt {
                    Some(n) if file.is(n, "if") => {
                        let (else_exit, rest) = self.if_chain(n, end, else_entry, ctx);
                        self.edge(else_exit, join, false);
                        after = rest;
                    }
                    Some(n) if file.tokens[n].kind == TokKind::Open(Delim::Brace) => {
                        let eclose = file.matching(n);
                        self.push(else_entry, n);
                        let else_exit = self.stmts(n + 1..eclose.min(end), else_entry, ctx);
                        if eclose < end {
                            self.push(else_exit, eclose);
                        }
                        self.edge(else_exit, join, false);
                        after = eclose + 1;
                    }
                    _ => {
                        self.edge(else_entry, join, false);
                        after = e + 1;
                    }
                }
                else_done = true;
            }
        }
        if !else_done {
            // No else: condition-false falls through to the join.
            self.edge(cur, join, false);
        }
        (join, after)
    }

    /// `loop`/`while cond`/`for pat in iter` + `{ body }`.
    fn loop_stmt(&mut self, kw: usize, end: usize, cur: usize, _ctx: &LoopCtx) -> (usize, usize) {
        let file = self.file;
        let head = self.new_block();
        self.edge(cur, head, false);
        self.push(head, kw);
        let is_plain_loop = file.is(kw, "loop");
        let open = match self.header_to_brace(kw + 1, end, head) {
            Ok(open) => open,
            Err(resume) => return (head, resume),
        };
        let close = file.matching(open);
        let after = self.new_block();
        let body_entry = self.new_block();
        self.edge(head, body_entry, false);
        if !is_plain_loop {
            // while/for: the condition can be false on entry.
            self.edge(head, after, false);
        }
        self.push(body_entry, open);
        let inner = LoopCtx {
            head: Some(head),
            after: Some(after),
        };
        let body_exit = self.stmts(open + 1..close.min(end), body_entry, &inner);
        if close < end {
            self.push(body_exit, close);
        }
        self.edge(body_exit, head, true);
        (after, close + 1)
    }

    /// `match scrut { arm => body, … }`.
    fn match_stmt(&mut self, kw: usize, end: usize, cur: usize, ctx: &LoopCtx) -> (usize, usize) {
        let file = self.file;
        self.push(cur, kw);
        let open = match self.header_to_brace(kw + 1, end, cur) {
            Ok(open) => open,
            Err(resume) => return (cur, resume),
        };
        let close = file.matching(open);
        self.push(cur, open);
        let join = self.new_block();

        // Split `open+1 .. close` into arms at depth-0 commas that
        // follow a completed `=> body`. Each arm gets its own block
        // chain: pattern and guard tokens live in the arm entry block.
        let mut i = open + 1;
        let limit = close.min(end);
        while i < limit {
            // Skip trivia between arms.
            let Some(start) = file.next_code(i).filter(|&s| s < limit) else {
                break;
            };
            // Find the arm's `=>` and its end (comma at depth 0, or a
            // brace-block body's close).
            let arm_entry = self.new_block();
            self.edge(cur, arm_entry, false);
            let mut j = start;
            let mut depth = 0i32;
            let mut arrow = None;
            while j < limit {
                let t = &file.tokens[j];
                if t.is_code() {
                    match t.kind {
                        TokKind::Open(_) => depth += 1,
                        TokKind::Close(_) => depth -= 1,
                        TokKind::Punct
                            if depth == 0
                                && file.is(j, "=")
                                && file.next_code(j + 1).map(|g| file.is(g, ">")) == Some(true) =>
                        {
                            let gt = file.next_code(j + 1).unwrap_or(j + 1);
                            arrow = Some((j, gt));
                        }
                        _ => {}
                    }
                    if arrow.is_some() {
                        break;
                    }
                }
                self.push(arm_entry, j);
                j += 1;
            }
            let Some((eq, gt)) = arrow else {
                // No `=>` (trailing tokens): attach to this arm block.
                self.edge(arm_entry, join, false);
                break;
            };
            self.push(arm_entry, eq);
            for k in eq + 1..=gt {
                if file.tokens[k].is_code() {
                    self.push(arm_entry, k);
                }
            }
            // Body: either a brace block, or an expression to the next
            // depth-0 comma.
            let mut body_end = gt + 1;
            let mut depth = 0i32;
            let mut k = gt + 1;
            while k < limit {
                let t = &file.tokens[k];
                if t.is_code() {
                    match t.kind {
                        TokKind::Open(_) => depth += 1,
                        TokKind::Close(_) => depth -= 1,
                        TokKind::Punct if depth == 0 && file.is(k, ",") => {
                            body_end = k;
                            break;
                        }
                        _ => {}
                    }
                }
                k += 1;
                body_end = k;
            }
            let arm_exit = self.stmts(gt + 1..body_end.min(limit), arm_entry, ctx);
            // Consume the separating comma, if any.
            let mut next = body_end;
            if next < limit
                && file.tokens[next].is_code()
                && file.tokens[next].kind == TokKind::Punct
                && file.is(next, ",")
            {
                self.push(arm_exit, next);
                next += 1;
            }
            self.edge(arm_exit, join, false);
            i = next;
        }
        if close < end {
            self.push(join, close);
        }
        // Defensive: a match with no arms still flows through.
        if self.blocks[cur].succs.iter().all(|e| e.to != join)
            && !self
                .blocks
                .iter()
                .any(|b| b.succs.iter().any(|e| e.to == join))
        {
            self.edge(cur, join, false);
        }
        (join, close + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Workspace;

    fn cfg_of(src: &str) -> (Workspace, Cfg) {
        let mut ws = Workspace::default();
        ws.add_file("lib.rs", src.to_owned());
        let f = ws
            .fns
            .iter()
            .find(|f| !f.is_closure)
            .expect("no fn in source");
        let cfg = Cfg::build(&ws.files[f.file], f);
        (ws, cfg)
    }

    fn token_partition_ok(ws: &Workspace, cfg: &Cfg) {
        let f = ws.fns.iter().find(|f| !f.is_closure).unwrap();
        let file = &ws.files[f.file];
        let mut body = f.body.clone();
        body.end = body.end.min(file.tokens.len());
        if file.tokens[body.start].kind == TokKind::Open(Delim::Brace) {
            body = body.start + 1..body.end - 1;
        }
        let mut owned = vec![0usize; file.tokens.len()];
        for b in &cfg.blocks {
            for &t in &b.tokens {
                owned[t] += 1;
            }
        }
        for i in body.clone() {
            if file.tokens[i].is_code() {
                assert_eq!(
                    owned[i],
                    1,
                    "token {} `{}` owned {} times",
                    i,
                    file.text(i),
                    owned[i]
                );
            }
        }
    }

    #[test]
    fn straight_line_is_two_blocks() {
        let (ws, cfg) = cfg_of("fn f(x: u32) -> u32 {\n    let y = x + 1;\n    y\n}\n");
        token_partition_ok(&ws, &cfg);
        assert_eq!(cfg.back_edge_count(), 0);
        assert!(cfg.blocks[cfg.entry].succs.iter().any(|e| e.to == cfg.exit));
    }

    #[test]
    fn if_else_branches_and_joins() {
        let (ws, cfg) = cfg_of("fn f(x: u32) -> u32 {\n    if x > 1 { x } else { 0 }\n}\n");
        token_partition_ok(&ws, &cfg);
        // Entry must have two successors (then, else).
        assert!(
            cfg.blocks[cfg.entry].succs.len() >= 2,
            "{:?}",
            cfg.blocks[cfg.entry]
        );
        assert_eq!(cfg.back_edge_count(), 0);
    }

    #[test]
    fn for_loop_has_back_edge() {
        let (ws, cfg) = cfg_of(
            "fn f(n: usize) -> usize {\n    let mut s = 0;\n    for i in 0..n { s += i; }\n    s\n}\n",
        );
        token_partition_ok(&ws, &cfg);
        assert_eq!(cfg.back_edge_count(), 1);
        assert_eq!(cfg.loop_heads().len(), 1);
    }

    #[test]
    fn while_and_nested_loops() {
        let (ws, cfg) = cfg_of(
            "fn f(mut n: usize) {\n    while n > 0 {\n        for j in 0..n { let _ = j; }\n        n -= 1;\n    }\n}\n",
        );
        token_partition_ok(&ws, &cfg);
        assert_eq!(cfg.back_edge_count(), 2);
        assert_eq!(cfg.loop_heads().len(), 2);
    }

    #[test]
    fn early_return_reaches_exit() {
        let (ws, cfg) = cfg_of("fn f(x: u32) -> u32 {\n    if x == 0 { return 7; }\n    x\n}\n");
        token_partition_ok(&ws, &cfg);
        let to_exit = cfg
            .blocks
            .iter()
            .flat_map(|b| &b.succs)
            .filter(|e| e.to == cfg.exit)
            .count();
        assert!(to_exit >= 2, "return and fall-through both reach exit");
    }

    #[test]
    fn question_mark_adds_exit_edge() {
        let (ws, cfg) =
            cfg_of("fn f(x: Option<u32>) -> Option<u32> {\n    let y = x?;\n    Some(y + 1)\n}\n");
        token_partition_ok(&ws, &cfg);
        assert!(cfg.blocks[cfg.entry].succs.iter().any(|e| e.to == cfg.exit));
    }

    #[test]
    fn match_arms_branch_and_join() {
        let (ws, cfg) = cfg_of(
            "fn f(x: Option<u32>) -> u32 {\n    match x {\n        Some(v) => v,\n        None => 0,\n    }\n}\n",
        );
        token_partition_ok(&ws, &cfg);
        assert!(cfg.blocks[cfg.entry].succs.len() >= 2);
        assert_eq!(cfg.back_edge_count(), 0);
    }

    #[test]
    fn match_guard_if_in_macro_keeps_the_rest_of_the_body() {
        let (ws, cfg) = cfg_of(
            "fn f(x: Option<u32>) -> bool {\n    let y = matches!(x, Some(c) if c > 1);\n    y\n}\n",
        );
        token_partition_ok(&ws, &cfg);
    }

    #[test]
    fn break_continue_edges() {
        let (ws, cfg) = cfg_of(
            "fn f(n: usize) -> usize {\n    let mut s = 0;\n    loop {\n        if s > n { break; }\n        s += 1;\n        continue;\n    }\n    s\n}\n",
        );
        token_partition_ok(&ws, &cfg);
        assert!(
            cfg.back_edge_count() >= 1,
            "continue or body-end is a back edge"
        );
    }

    #[test]
    fn edges_target_valid_blocks() {
        let (_, cfg) = cfg_of(
            "fn f(n: usize) -> usize {\n    let mut s = 0;\n    for i in 0..n {\n        match i % 3 {\n            0 => s += 1,\n            1 => { if s > 10 { return s; } }\n            _ => continue,\n        }\n    }\n    s\n}\n",
        );
        for b in &cfg.blocks {
            for e in &b.succs {
                assert!(e.to < cfg.blocks.len());
            }
        }
        assert!(cfg.back_edge_count() >= 1);
    }
}
