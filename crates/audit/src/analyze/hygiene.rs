//! Source hygiene: site-local token rules over non-test library code
//! (`CM-L001`, `CM-L002`, `CM-L005`, `CM-L006`).
//!
//! Unlike the dataflow passes, each rule judges one site by its tokens:
//!
//! * **`CM-L001` panic-in-lib** — `.unwrap()`, `.expect(…)`, `panic!`,
//!   `unreachable!`, `todo!` and `unimplemented!`. Library code returns
//!   typed errors; a provably infallible site is waived by an inline
//!   `audit:allow(CM-L001)` comment that states why.
//! * **`CM-L002` narrowing-addr-cast** — an `as` cast of an
//!   address-carrying identifier (name contains `addr`) to a type
//!   narrower than the 64-bit cube address space
//!   (`u8/u16/u32/i8/i16/i32`) drops high bits for hosts above `Q_32`.
//! * **`CM-L005` shape-product-overflow** — the same narrowing cast of a
//!   shape extent (a name mentioning `dim`/`len`/`extent`/`stride`/
//!   `nodes`/`shape`/`factor`) or of a parenthesized product of one:
//!   extent products grow multiplicatively (a 2¹¹×2¹¹×2¹¹ guest already
//!   overflows `u32` node counts). Widen first, narrow never.
//! * **`CM-L006` alloc-in-chunk-loop** — `Vec::new()` / `vec![…]` in the
//!   body of a `for`/`while` loop whose header mentions `chunk` or
//!   `shard` allocates once per chunk on the hot parallel-lowering path;
//!   hoist the buffer out and `clear()` it.
//!
//! Comments and literals are tokens of their own, so text inside them
//! never matches; `#[cfg(test)]` items and `macro_rules!` bodies are
//! skipped like everywhere else in the analyzer.

use super::{Code, Finding};
use crate::ast::{File, Workspace};
use crate::lexer::{Delim, TokKind};
use std::ops::Range;

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

const NARROW_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier fragments that mark a value as a shape extent (or a
/// product of extents) for CM-L005.
const EXTENT_KEYWORDS: [&str; 7] = ["dim", "len", "extent", "stride", "nodes", "shape", "factor"];

/// Run the hygiene rules over every file.
pub fn check(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        // `fn` bodies of this file, for attribution and loop scoping.
        let fns: Vec<(&str, Range<usize>)> = ws
            .fns
            .iter()
            .filter(|f| f.file == fi && !f.is_closure)
            .map(|f| (f.name.as_str(), f.body.clone()))
            .collect();
        for i in 0..file.tokens.len() {
            if file.tokens[i].kind != TokKind::Ident {
                continue;
            }
            let hits = rules_at(file, &fns, i);
            if hits.is_empty() || masked(file, i) {
                continue;
            }
            findings.extend(hits.into_iter().map(|(code, line, message)| Finding {
                code,
                file: file.label.clone(),
                line,
                message,
                path: Vec::new(),
            }));
        }
    }
}

/// The findings anchored at identifier `i`, as `(code, line, message)`.
fn rules_at(file: &File, fns: &[(&str, Range<usize>)], i: usize) -> Vec<(Code, u32, String)> {
    let line = file.tokens[i].line;
    if let Some(call) = panic_call(file, i) {
        let holder = fns
            .iter()
            .filter(|(_, body)| body.contains(&i))
            .max_by_key(|(_, body)| body.start)
            .map_or("<module>", |(name, _)| name);
        let message = format!(
            "`{call}` in non-test library code (fn `{holder}`); return a typed error instead"
        );
        return vec![(Code::PanicInLib, line, message)];
    }
    if file.is(i, "as") {
        return narrowing_cast(file, i)
            .map(|(code, message)| vec![(code, line, message)])
            .unwrap_or_default();
    }
    if (file.is(i, "for") || file.is(i, "while")) && fns.iter().any(|(_, b)| b.contains(&i)) {
        return chunk_loop_allocs(file, i)
            .into_iter()
            .map(|(line, alloc)| {
                let message = format!(
                    "`{alloc}` allocates on every iteration of a chunk/shard loop; hoist the \
                     buffer out and `clear()` it"
                );
                (Code::AllocInChunkLoop, line, message)
            })
            .collect();
    }
    Vec::new()
}

/// Is token `i` in `#[cfg(test)]` code or a `macro_rules!` body?
fn masked(file: &File, i: usize) -> bool {
    let off = file.tokens[i].span.start;
    file.in_tests(off) || file.in_macro_def(off)
}

/// The panic-family call named by identifier `i`, as shown in messages.
fn panic_call(file: &File, i: usize) -> Option<String> {
    let name = file.text(i);
    if PANIC_MACROS.contains(&name) {
        return file.spells(i, &[name, "!"]).map(|_| format!("{name}!"));
    }
    if !file.prev_code(i).is_some_and(|p| file.is(p, ".")) {
        return None;
    }
    if file.spells(i, &["unwrap", "(", ")"]).is_some() {
        Some(".unwrap()".to_owned())
    } else if file.spells(i, &["expect", "("]).is_some() {
        Some(".expect(…)".to_owned())
    } else {
        None
    }
}

/// CM-L002 / CM-L005 for the `as` at token `i`.
fn narrowing_cast(file: &File, i: usize) -> Option<(Code, String)> {
    let ty = file.text(file.next_code(i + 1)?);
    if !NARROW_TYPES.contains(&ty) {
        return None;
    }
    let prev = file.prev_code(i)?;
    let mentions_extent = |s: &str| {
        let low = s.to_ascii_lowercase();
        EXTENT_KEYWORDS.iter().any(|k| low.contains(k))
    };
    match file.tokens[prev].kind {
        TokKind::Ident => {
            let operand = file.text(prev);
            if operand.to_ascii_lowercase().contains("addr") {
                Some((
                    Code::NarrowingAddrCast,
                    format!(
                        "`{operand} as {ty}` narrows a cube address below 64 bits; keep \
                         address arithmetic in u64"
                    ),
                ))
            } else if mentions_extent(operand) {
                Some((
                    Code::ShapeProductOverflow,
                    format!(
                        "`{operand} as {ty}` narrows a shape extent; extent products overflow \
                         narrow integers — widen first, narrow never"
                    ),
                ))
            } else {
                None
            }
        }
        TokKind::Close(Delim::Paren) => {
            let open = file.matching(prev);
            let group = open..prev + 1;
            let product = group.clone().any(|k| file.is(k, "*"))
                && group.clone().any(|k| {
                    file.tokens[k].kind == TokKind::Ident && mentions_extent(file.text(k))
                });
            product.then(|| {
                let expr = &file.src[file.tokens[open].span.start..file.tokens[prev].span.end];
                (
                    Code::ShapeProductOverflow,
                    format!(
                        "`{expr} as {ty}` narrows a product of shape extents; compute in \
                         u64/usize and keep it wide"
                    ),
                )
            })
        }
        _ => None,
    }
}

/// CM-L006 for the loop keyword at token `kw`: `(line, allocation)` for
/// each `Vec::new()` / `vec![` in the body, if the header (keyword to
/// the body's `{`) mentions `chunk` or `shard`.
fn chunk_loop_allocs(file: &File, kw: usize) -> Vec<(u32, &'static str)> {
    let mut depth = 0i32;
    let mut open = None;
    for k in kw + 1..file.tokens.len() {
        match file.tokens[k].kind {
            TokKind::Open(Delim::Paren | Delim::Bracket) => depth += 1,
            TokKind::Close(Delim::Paren | Delim::Bracket) => depth -= 1,
            TokKind::Open(Delim::Brace) if depth == 0 => {
                open = Some(k);
                break;
            }
            TokKind::Punct if depth == 0 && file.is(k, ";") => break,
            _ => {}
        }
    }
    let Some(open) = open else {
        return Vec::new();
    };
    let header = (kw..open).any(|k| {
        let low = file.text(k).to_ascii_lowercase();
        file.tokens[k].kind == TokKind::Ident && (low.contains("chunk") || low.contains("shard"))
    });
    if !header {
        return Vec::new();
    }
    (open..file.matching(open))
        .filter_map(|k| {
            let alloc = if file
                .spells(k, &["Vec", ":", ":", "new", "(", ")"])
                .is_some()
            {
                "Vec::new()"
            } else if file.spells(k, &["vec", "!", "["]).is_some() {
                "vec![…]"
            } else {
                return None;
            };
            Some((file.tokens[k].line, alloc))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::analyze_str;
    use super::Code;

    fn codes(src: &str) -> Vec<&'static str> {
        analyze_str(src).iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn codes_are_stable() {
        // Part of the gate's public schema; never renumbered. CM-L003
        // and CM-L004 were retired with the panic allowlist.
        assert_eq!(Code::PanicInLib.as_str(), "CM-L001");
        assert_eq!(Code::NarrowingAddrCast.as_str(), "CM-L002");
        assert_eq!(Code::ShapeProductOverflow.as_str(), "CM-L005");
        assert_eq!(Code::AllocInChunkLoop.as_str(), "CM-L006");
        assert_eq!(Code::SharedMutInWorker.as_str(), "CM-L007");
        assert_eq!(Code::DroppedSpanGuard.as_str(), "CM-L008");
    }

    #[test]
    fn unwrap_is_l001_with_its_fn() {
        let f = analyze_str("pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, Code::PanicInLib);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("fn `f`"), "{}", f[0].message);
    }

    #[test]
    fn every_panic_family_call_is_l001() {
        for call in [
            "x.expect(\"set\")",
            "panic!(\"x\")",
            "std::unreachable!()",
            "todo!()",
            "unimplemented!()",
        ] {
            let src = format!("pub fn f(x: Option<u32>) -> u32 {{\n    {call}\n}}\n");
            assert_eq!(codes(&src), ["CM-L001"], "{call}");
        }
        // Lookalikes are not panics.
        assert!(codes("pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n").is_empty());
    }

    #[test]
    fn panic_in_cfg_test_module_is_ignored() {
        let src = "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { \
                   Option::<u32>::None.unwrap(); panic!(\"x\") }\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip() {
        let src = "pub fn msg() -> &'static str {\n    // panic! in a comment is fine\n    \
                   \"call .unwrap() and panic!\"\n}\n/// Docs may say panic! too.\npub fn d() {}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn raw_strings_and_chars_do_not_trip() {
        let src = "pub fn f() -> (char, &'static str) {\n    ('{', r#\"panic!(\"no\")\"#)\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn byte_strings_do_not_trip() {
        let src = "pub fn f() -> &'static [u8] {\n    b\"panic!(\\\"x\\\") .unwrap()\"\n}\n\
                   pub fn g() -> &'static [u8] {\n    br#\"todo! and .expect(\"#\n}\n\
                   pub fn h() -> u8 {\n    b'!'\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn panic_attribution_handles_nesting() {
        let src =
            "pub fn outer() {\n    fn inner(x: Option<u32>) -> u32 {\n        x.unwrap()\n    \
                   }\n    let _ = inner(Some(3));\n}\n";
        let f = analyze_str(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("fn `inner`"), "{}", f[0].message);
    }

    #[test]
    fn narrowing_addr_cast_is_l002() {
        assert_eq!(
            codes("pub fn f(addr: u64) -> u32 {\n    addr as u32\n}\n"),
            ["CM-L002"]
        );
        // `as usize` and non-address identifiers stay legal.
        assert!(codes(
            "pub fn g(addr: u64, w: u64) -> usize { (addr as usize) + (w as u32) as usize }\n"
        )
        .is_empty());
    }

    #[test]
    fn narrowing_extent_cast_is_l005() {
        // Bare extent identifier narrowed.
        assert_eq!(
            codes("pub fn f(stride: usize) -> u32 {\n    stride as u32\n}\n"),
            ["CM-L005"]
        );
        // Parenthesized product of extents narrowed (the range pass
        // also flags the unchecked product itself).
        let c = codes("pub fn g(a: usize, f: usize) -> u16 {\n    (a * dim_len(f)) as u16\n}\n");
        assert!(c.contains(&"CM-L005"), "{c:?}");
        // Widening casts and non-extent operands stay legal.
        assert!(codes(
            "pub fn h(stride: usize, i: usize) -> u64 {\n    (stride as u64) + foo(i) as u64 + i \
             as u32 as u64\n}\n"
        )
        .is_empty());
        // A call result without `*` in the parens is not a product.
        assert!(codes("pub fn k(x: usize) -> u32 {\n    ilog(x) as u32\n}\n").is_empty());
    }

    #[test]
    fn alloc_in_chunk_loop_is_l006() {
        let src = "pub fn lower(chunks: &[u32]) {\n    for chunk in chunks {\n        let mut buf \
                   = Vec::new();\n        buf.push(*chunk);\n    }\n}\n";
        let f = analyze_str(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, Code::AllocInChunkLoop);
        assert_eq!(f[0].line, 3);
        // `vec!` counts too, in `while` loops as well; loops whose
        // header names no chunk or shard do not.
        let src = "pub fn s(shards: usize) {\n    while shards > 0 {\n        let _ = vec![0u8; 4];\n    \
                   }\n}\npub fn ok(xs: &[u32]) {\n    for _x in xs {\n        let _ = Vec::<u8>::new();\n    \
                   }\n}\n";
        assert_eq!(codes(src), ["CM-L006"]);
    }

    #[test]
    fn chunk_named_impl_is_not_a_loop() {
        let src = "pub struct Chunks;\nimpl Default for Chunks {\n    fn default() -> Self {\n        \
                   let _ = Vec::<u8>::new();\n        let _v: Vec<u8> = Vec::new();\n        Chunks\n    \
                   }\n}\n";
        assert!(codes(src).is_empty());
    }
}
