//! Golden-file test for the SARIF 2.1.0 export.
//!
//! Pins the exact bytes `cubemesh_audit::sarif::to_sarif` produces for
//! a representative pair of findings — one dataflow finding with a
//! call path, one hygiene finding without — so any change to the SARIF
//! surface (field order, escaping, schema URL) shows up as a readable
//! diff against `tests/golden/analyze.sarif` rather than a silent
//! consumer break. Regenerate by running this test with
//! `BLESS_SARIF=1` if a change is intentional.

use cubemesh_audit::sarif::to_sarif;
use cubemesh_audit::{Code, Finding};

fn sample() -> Vec<Finding> {
    vec![
        Finding {
            code: Code::RangeMulOverflow,
            file: "crates/core/src/product.rs".to_owned(),
            line: 42,
            message: "`n1 * n2` may exceed usize (lhs <= 2^48, rhs <= 2^48)".to_owned(),
            path: vec![
                "core::embed_mesh".to_owned(),
                "core::mesh_product_embedding".to_owned(),
            ],
        },
        Finding {
            code: Code::PanicInLib,
            file: "crates/topology/src/graph.rs".to_owned(),
            line: 7,
            message: "`.unwrap()` in library code without an allowlist entry".to_owned(),
            path: Vec::new(),
        },
    ]
}

#[test]
fn sarif_export_matches_golden_file() {
    let actual = to_sarif(&sample());
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/analyze.sarif");
    if std::env::var_os("BLESS_SARIF").is_some() {
        std::fs::write(golden_path, &actual).expect("bless golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file present");
    assert_eq!(
        actual,
        golden.trim_end(),
        "SARIF output drifted from tests/golden/analyze.sarif \
         (rerun with BLESS_SARIF=1 to accept)"
    );
    // Belt and braces: the golden bytes are themselves valid JSON.
    cubemesh_obs::parse_json(&golden).expect("golden is valid JSON");
}
