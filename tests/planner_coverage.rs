//! Planner/classification coherence: every plan constructs, verifies, and
//! meets its certificate; constructive coverage never exceeds the paper's
//! existence classification; the fast census mirror agrees with the real
//! planner.

use cubemesh::audit::check_plan;
use cubemesh::census::cover::{workspace_catalog, Cover2, Cover3};
use cubemesh::core::{classify3, construct, Planner};
use cubemesh::topology::Shape;

/// Exhaustive over a small 3-D domain: plans construct and verify.
#[test]
fn all_plans_construct_and_verify_small_domain() {
    let mut planner = Planner::new();
    for a in 1..=8usize {
        for b in a..=8usize {
            for c in b..=8usize {
                let shape = Shape::new(&[a, b, c]);
                if let Some(plan) = planner.plan(&shape) {
                    let cert = check_plan(&shape, &plan)
                        .unwrap_or_else(|e| panic!("{}: certify: {}", shape, e));
                    let emb = construct(&shape, &plan).expect("plan lowers");
                    emb.verify().unwrap_or_else(|e| panic!("{}: {}", shape, e));
                    let m = emb.metrics();
                    assert!(m.is_minimal_expansion(), "{}", shape);
                    assert!(
                        m.dilation <= cert.dilation_bound,
                        "{}: {} > {}",
                        shape,
                        m.dilation,
                        cert.dilation_bound
                    );
                    assert!(
                        m.congestion <= cert.congestion_bound,
                        "{}: {} > {}",
                        shape,
                        m.congestion,
                        cert.congestion_bound
                    );
                }
            }
        }
    }
}

/// Constructive ⊆ classified: our planner never claims a mesh the paper's
/// (strictly more generous, Chan-backed) classification rejects.
#[test]
fn constructive_is_subset_of_classification() {
    let mut planner = Planner::new();
    for a in 1..=10usize {
        for b in a..=14usize {
            for c in b..=18usize {
                let shape = Shape::new(&[a, b, c]);
                if planner.covers(&shape) {
                    assert!(
                        classify3(a as u64, b as u64, c as u64).is_some(),
                        "{} planned but unclassified",
                        shape
                    );
                }
            }
        }
    }
}

/// The census's fast existence mirror agrees with the planner on a
/// scattered sample (the dense small-domain check lives in the census
/// crate's unit tests).
#[test]
fn census_mirror_agrees_on_sample() {
    let (two, three) = workspace_catalog();
    let c2 = Cover2::build(256, two);
    let mut c3 = Cover3::new(&c2, &three);
    let mut planner = Planner::new();
    let mut mixed = 0usize;
    for (a, b, c) in [
        (21usize, 9usize, 5usize),
        (27, 3, 3),
        (5, 5, 5),
        (33, 9, 5),
        (48, 36, 20),
        (100, 100, 100),
        (63, 65, 17),
        (3, 3, 23),
        (255, 3, 3),
        (17, 34, 51),
    ] {
        let shape = Shape::new(&[a, b, c]);
        let covered = c3.covered(a, b, c);
        assert_eq!(covered, planner.covers(&shape), "{}", shape);
        if covered {
            mixed += 1;
        }
    }
    assert!(mixed >= 4, "sample should include covered shapes");
}

/// Planner determinism: planning twice yields the same plan.
#[test]
fn planner_is_deterministic() {
    for dims in [vec![21usize, 9, 5], vec![12, 20], vec![9, 9, 9]] {
        let shape = Shape::new(&dims);
        let p1 = Planner::new().plan(&shape);
        let p2 = Planner::new().plan(&shape);
        assert_eq!(p1, p2);
    }
}
