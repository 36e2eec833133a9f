//! One plan per shape: every surface that chooses a plan asks the
//! strategy ladder the plan database serves.
//!
//! For every sorted triple ≤ 32, `plan_shape` agrees with the database
//! record in plan text, strategy, confidence and fingerprint, and the
//! crosscheck certifies the record's figures. Where the rule engine on
//! its own (`Planner::plan`) would pick another plan, `embed_mesh` still
//! builds the record's embedding byte for byte, and a served `resolve`
//! measures what `embed` measures.

use cubemesh::audit::{crosscheck_shape, fingerprint};
use cubemesh::core::{construct, default_strategies, embed_mesh, plan_shape, Planner};
use cubemesh::embedding::portable::write_embedding;
use cubemesh::embedding::Embedding;
use cubemesh::topology::Shape;
use cubemesh_plandb::{plan_record, RecordStatus};
use cubemesh_service::{EngineConfig, QueryEngine};

const MAX_AXIS: usize = 32;

/// Every sorted triple `a ≤ b ≤ c ≤ max_axis`.
fn sorted_triples(max_axis: usize) -> Vec<[usize; 3]> {
    let mut out = Vec::new();
    for a in 1..=max_axis {
        for b in a..=max_axis {
            for c in b..=max_axis {
                out.push([a, b, c]);
            }
        }
    }
    out
}

fn portable_bytes(emb: &Embedding) -> Vec<u8> {
    let mut out = Vec::new();
    write_embedding(emb, &mut out).expect("writing to a Vec cannot fail");
    out
}

#[test]
fn every_sorted_triple_plans_as_the_database_serves() {
    let strategies = default_strategies();
    let (mut db_planner, mut ladder, mut audit) = (Planner::new(), Planner::new(), Planner::new());
    let triples = sorted_triples(MAX_AXIS);
    assert_eq!(triples.len(), 5_984);
    for dims in triples {
        let shape = Shape::new(&dims);
        let rec = plan_record(&mut db_planner, &strategies, &dims).expect("record");
        let cert =
            crosscheck_shape(&mut audit, &shape, false).unwrap_or_else(|e| panic!("{shape}: {e}"));
        let Some(hit) = plan_shape(&mut ladder, &shape) else {
            assert_eq!(rec.status, RecordStatus::NoDilation2Plan, "{shape}");
            assert_eq!(cert, None, "{shape}");
            continue;
        };
        assert_eq!(rec.status, RecordStatus::Certified, "{shape}");
        assert_eq!(hit.plan.to_canonical_string(), rec.plan_text, "{shape}");
        assert_eq!(hit.strategy, rec.strategy, "{shape}");
        assert_eq!(hit.confidence, rec.confidence, "{shape}");
        assert_eq!(fingerprint(&hit.plan), rec.fingerprint, "{shape}");
        let cert = cert.unwrap_or_else(|| panic!("{shape}: crosscheck found no plan"));
        assert_eq!(
            (cert.host_dim, cert.dilation_bound, cert.congestion_bound),
            (rec.cert.host_dim, rec.cert.dilation, rec.cert.congestion),
            "{shape}"
        );
    }
}

#[test]
fn embed_builds_the_served_embedding_where_the_rule_engine_differs() {
    let strategies = default_strategies();
    let (mut db_planner, mut engine) = (Planner::new(), Planner::new());
    let mut differing = 0;
    for dims in sorted_triples(MAX_AXIS) {
        let shape = Shape::new(&dims);
        let rec = plan_record(&mut db_planner, &strategies, &dims).expect("record");
        let Some(engine_plan) = engine.plan(&shape) else {
            continue;
        };
        if engine_plan.to_canonical_string() == rec.plan_text {
            continue;
        }
        differing += 1;
        let served = construct(&shape, &rec.plan().expect("record plan parses"))
            .unwrap_or_else(|e| panic!("{shape}: {e}"));
        let (embedded, minimal) = embed_mesh(&shape);
        assert!(minimal, "{shape}");
        assert!(
            portable_bytes(&embedded) == portable_bytes(&served),
            "{shape}: embed_mesh differs from the served plan {} (rule engine: {})",
            rec.plan_text,
            engine_plan.to_canonical_string()
        );
    }
    // The rule engine alone picks another plan for these shapes; the
    // ladder's narrower rungs answer them first.
    assert_eq!(differing, 48);
}

#[test]
fn resolve_measures_what_embed_measures() {
    let engine = QueryEngine::new(&EngineConfig {
        db: None,
        overflow: None,
    })
    .expect("engine without a database");
    let dims = [2, 5, 22];
    let resolved = engine.resolve(&dims).expect("2x5x22 resolves");
    let (emb, minimal) = embed_mesh(&Shape::new(&dims));
    let m = emb.metrics();
    assert!(minimal && resolved.minimal && resolved.within_certificate);
    assert_eq!(
        (resolved.host_dim, resolved.dilation, resolved.congestion),
        (m.host_dim, m.dilation, m.congestion)
    );
}
