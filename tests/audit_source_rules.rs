//! The workspace's library sources pass the analyzer's hygiene rules
//! (`CM-L001`, `L002`, `L005`–`L007`): no panics, no narrowing casts of
//! addresses or extents, no chunk-loop allocation, no `static mut`.
//!
//! Only the pass that carries those rules runs here, so the test stays
//! fast in a debug build; `cubemesh-audit analyze` in `scripts/check.sh`
//! runs every pass over the same file set.

use cubemesh_audit::analyze::{load_root, Analysis, SOURCE_RULE_PASSES};
use std::path::Path;

#[test]
fn workspace_passes_the_source_rules() {
    let ws = load_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("read workspace");
    assert!(ws.files.len() > 50, "found only {} files", ws.files.len());
    let analysis = Analysis::run_passes(&ws, |p| SOURCE_RULE_PASSES.contains(&p));
    let ran: Vec<&str> = analysis.pass_ms.iter().map(|(name, _)| *name).collect();
    assert_eq!(ran, SOURCE_RULE_PASSES);
    assert!(
        analysis.findings.is_empty(),
        "workspace must pass the source rules:\n{}",
        analysis
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
