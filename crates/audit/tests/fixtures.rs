//! The known-bad corpus: one fixture file per analyzer diagnostic code,
//! each asserted to trip *exactly* its own rule — no misses, no
//! collateral findings. `scripts/check.sh` runs this test as the gate's
//! self-test, so a pass that silently stops firing breaks the build
//! even while the workspace itself is clean.

use cubemesh_audit::analyze::Analysis;
use cubemesh_audit::ast::Workspace;
use cubemesh_audit::Code;
use std::fs;
use std::path::Path;

/// `(fixture file, the one code it must trip)`, covering all of
/// [`Code::ALL`].
const CORPUS: [(&str, Code); 13] = [
    ("a005_nondet_order_merge.rs", Code::NondetOrderMerge),
    ("a006_relaxed_ordering.rs", Code::RelaxedOrdering),
    ("a007_lock_order.rs", Code::LockOrder),
    ("a009_range_overflow_mul.rs", Code::RangeMulOverflow),
    ("a010_range_overflow_add.rs", Code::RangeAddOverflow),
    ("a011_taint_unchecked_sink.rs", Code::TaintUncheckedSink),
    (
        "a012_taint_unvalidated_shape.rs",
        Code::TaintUnvalidatedShape,
    ),
    ("a013_dropped_result.rs", Code::DroppedResult),
    ("l001_panic_in_lib.rs", Code::PanicInLib),
    ("l002_narrowing_addr_cast.rs", Code::NarrowingAddrCast),
    ("l005_shape_product_overflow.rs", Code::ShapeProductOverflow),
    ("l006_alloc_in_chunk_loop.rs", Code::AllocInChunkLoop),
    ("l007_shared_mut_in_worker.rs", Code::SharedMutInWorker),
];

fn analyze_fixture(name: &str) -> Analysis {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    let mut ws = Workspace::default();
    ws.add_file(name, src);
    Analysis::run(&ws)
}

#[test]
fn every_fixture_trips_exactly_its_code() {
    for (name, code) in CORPUS {
        let analysis = analyze_fixture(name);
        assert!(
            !analysis.findings.is_empty(),
            "{name}: expected {} to fire, analyzer found nothing",
            code.as_str()
        );
        for f in &analysis.findings {
            assert_eq!(
                f.code,
                code,
                "{name}: expected only {}, also got {} ({})",
                code.as_str(),
                f.code.as_str(),
                f.message
            );
        }
    }
}

#[test]
fn corpus_covers_every_diagnostic_code() {
    for code in Code::ALL {
        assert!(
            CORPUS.iter().any(|&(_, c)| c == code),
            "no fixture exercises {}",
            code.as_str()
        );
    }
}

#[test]
fn fixture_findings_carry_call_path_evidence() {
    // The interprocedural codes attribute their sink to where it came
    // from: the merge fixture's finding starts at its `run_tasks` fan-out.
    let analysis = analyze_fixture("a005_nondet_order_merge.rs");
    let f = &analysis.findings[0];
    assert!(
        f.path.first().is_some_and(|q| q.contains("run_tasks")),
        "expected a call path from the `run_tasks` worker, got {:?}",
        f.path
    );
}
