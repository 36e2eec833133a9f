//! Lexer round-trip properties, referenced by the `lexer` module docs.
//!
//! The lexer is *lossless*: every byte of the input lands in exactly one
//! token span, so concatenating token texts reproduces the source
//! verbatim.
//!
//! The property is checked exhaustively over every library source in
//! the workspace (the corpus the analyzer actually runs on) and then
//! property-tested on adversarial slices of those files — line-granular
//! cuts that split block comments, raw strings and string literals mid-
//! token, where a heuristic scanner would desynchronize.

use cubemesh_audit::analyze::walk_lib_sources;
use cubemesh_audit::lexer::lex;
use proptest::prelude::*;
use std::fs;
use std::path::Path;

/// Every library source in the workspace as `(label, contents)`.
fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = walk_lib_sources(&root).expect("walk workspace");
    assert!(files.len() > 50, "workspace walk found too few files");
    files
        .into_iter()
        .map(|(rel, path)| {
            let text = fs::read_to_string(&path).expect("read source");
            (rel, text)
        })
        .collect()
}

/// Concatenation of token texts must equal the input byte-for-byte.
fn assert_lossless(label: &str, src: &str) {
    let tokens = lex(src);
    let mut rebuilt = String::with_capacity(src.len());
    let mut prev_end = 0usize;
    for t in &tokens {
        assert_eq!(
            t.span.start, prev_end,
            "{label}: gap or overlap before token at byte {}",
            t.span.start
        );
        rebuilt.push_str(t.text(src));
        prev_end = t.span.end;
    }
    assert_eq!(prev_end, src.len(), "{label}: tokens do not cover the tail");
    assert_eq!(rebuilt, src, "{label}: concat of tokens differs from input");
}

#[test]
fn every_workspace_source_roundtrips() {
    for (label, src) in workspace_sources() {
        assert_lossless(&label, &src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary line-granular slices of real sources still lex
    /// losslessly — even when the cut lands inside a block comment, a
    /// raw string, or a multi-line string literal, the lexer stays
    /// total and byte-exact (a truncated literal becomes one token to
    /// end-of-input, never a desync).
    #[test]
    fn sliced_workspace_source_roundtrips(seed in any::<u64>()) {
        let sources = workspace_sources();
        let (label, src) = &sources[(seed as usize) % sources.len()];
        let lines: Vec<&str> = src.lines().collect();
        let n = lines.len().max(1);
        let start = ((seed >> 16) as usize) % n;
        let end = start + 1 + ((seed >> 40) as usize) % (n - start).max(1);
        let fragment = lines[start..end.min(n)].join("\n");
        assert_lossless(&format!("{label}[{start}..{end}]"), &fragment);
    }

    /// Single-byte corruption cannot desynchronize the lexer: it stays
    /// total (every byte covered) and lossless on near-arbitrary input.
    #[test]
    fn mutated_source_still_lexes_losslessly(seed in any::<u64>()) {
        let sources = workspace_sources();
        let (label, src) = &sources[(seed as usize) % sources.len()];
        let mut bytes = src.as_bytes().to_vec();
        if !bytes.is_empty() {
            // Mutate an ASCII byte to an ASCII byte so the mutant stays
            // valid UTF-8 (sources contain multi-byte math glyphs).
            let start = ((seed >> 8) as usize) % bytes.len();
            if let Some(pos) = (start..bytes.len()).find(|&i| bytes[i].is_ascii()) {
                bytes[pos] = 0x20 + ((seed >> 48) as u8 % 0x5f);
            }
        }
        let mutant = String::from_utf8(bytes).expect("ascii mutation");
        assert_lossless(&format!("{label}+mut"), &mutant);
    }
}
