//! SARIF 2.1.0 export for analyzer findings.
//!
//! [`to_sarif`] renders a list of [`Finding`]s — stable code, rule slug,
//! repo-relative file, 1-based line, message and (for interprocedural
//! findings) a call path — as a single-run SARIF log, so editors and CI
//! annotators can consume the gate output without knowing the in-house
//! `cubemesh-audit-diag/v1` schema.
//!
//! The emitted subset is deliberately small: one `run`, one
//! `tool.driver` with a deduplicated `rules` table, and one `result`
//! per finding with a `physicalLocation` and (when present) the call
//! path flattened into the message text plus a `cubemesh/path`
//! property bag entry. Everything is spec-valid SARIF 2.1.0; the
//! golden-file test in `tests/sarif_golden.rs` pins the exact bytes.

use crate::analyze::Finding;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    cubemesh_obs::json_escape_into(&mut out, s);
    out
}

/// Render `findings` as a SARIF 2.1.0 log with one run of the
/// `cubemesh-audit analyze` tool.
///
/// Rules are collected in first-seen order and deduplicated by code;
/// each result carries `ruleIndex` into that table. Output is
/// deterministic for a given input.
pub fn to_sarif(findings: &[Finding]) -> String {
    let mut rules: Vec<(&str, &str)> = Vec::new();
    for f in findings {
        if !rules.iter().any(|(c, _)| *c == f.code.as_str()) {
            rules.push((f.code.as_str(), f.code.slug()));
        }
    }
    let rules_json: Vec<String> = rules
        .iter()
        .map(|(code, slug)| {
            format!(
                "{{\"id\":{},\"name\":{},\"shortDescription\":{{\"text\":{}}}}}",
                esc(code),
                esc(slug),
                esc(slug)
            )
        })
        .collect();
    let results: Vec<String> = findings
        .iter()
        .map(|f| {
            let rule_index = rules
                .iter()
                .position(|(c, _)| *c == f.code.as_str())
                .unwrap_or(0);
            let text = if f.path.is_empty() {
                f.message.clone()
            } else {
                format!("{} (via {})", f.message, f.path.join(" -> "))
            };
            let props = if f.path.is_empty() {
                String::new()
            } else {
                let steps: Vec<String> = f.path.iter().map(|p| esc(p)).collect();
                format!(
                    ",\"properties\":{{\"cubemesh/path\":[{}]}}",
                    steps.join(",")
                )
            };
            format!(
                "{{\"ruleId\":{},\"ruleIndex\":{},\"level\":\"error\",\
                 \"message\":{{\"text\":{}}},\
                 \"locations\":[{{\"physicalLocation\":{{\
                 \"artifactLocation\":{{\"uri\":{}}},\
                 \"region\":{{\"startLine\":{}}}}}}}]{}}}",
                esc(f.code.as_str()),
                rule_index,
                esc(&text),
                esc(&f.file),
                f.line.max(1),
                props
            )
        })
        .collect();
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":{},\"informationUri\":\"https://example.invalid/cubemesh\",\
         \"rules\":[{}]}}}},\"results\":[{}]}}]}}",
        esc("cubemesh-audit analyze"),
        rules_json.join(","),
        results.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::Code;

    fn finding(code: Code, file: &str, line: u32, message: &str, path: &[&str]) -> Finding {
        Finding {
            code,
            file: file.to_owned(),
            line,
            message: message.to_owned(),
            path: path.iter().map(|p| p.to_string()).collect(),
        }
    }

    fn sample() -> Vec<Finding> {
        vec![
            finding(
                Code::RangeMulOverflow,
                "crates/x/src/lib.rs",
                12,
                "product may exceed usize",
                &["x::outer", "x::inner"],
            ),
            finding(
                Code::PanicInLib,
                "crates/y/src/lib.rs",
                3,
                "unwrap in library code",
                &[],
            ),
            finding(
                Code::RangeMulOverflow,
                "crates/z/src/lib.rs",
                7,
                "another product",
                &[],
            ),
        ]
    }

    #[test]
    fn sarif_is_valid_json_with_expected_structure() {
        let log = to_sarif(&sample());
        let doc = cubemesh_obs::parse_json(&log).expect("valid JSON");
        assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
        let runs = doc.get("runs").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(runs.len(), 1);
        let driver = runs[0].get("tool").and_then(|t| t.get("driver")).unwrap();
        // Two distinct codes -> two rules, first-seen order.
        let rules = driver.get("rules").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].get("id").and_then(|v| v.as_str()), Some("CM-A009"));
        let results = runs[0].get("results").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(results.len(), 3);
        // Third result shares rule 0 with the first.
        assert_eq!(
            results[2].get("ruleIndex").and_then(|v| v.as_u64()),
            Some(0)
        );
        // The call path lands in the message and the property bag.
        let msg = results[0]
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(|t| t.as_str())
            .unwrap();
        assert!(msg.contains("via x::outer -> x::inner"), "{msg}");
    }

    #[test]
    fn empty_input_is_still_a_valid_run() {
        let log = to_sarif(&[]);
        let doc = cubemesh_obs::parse_json(&log).expect("valid JSON");
        let runs = doc.get("runs").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(
            runs[0]
                .get("results")
                .and_then(|r| r.as_arr())
                .map(<[_]>::len),
            Some(0)
        );
    }
}
