//! Golden values pinning *which* plan the planner picks, not only that
//! it picks one: any change to the rule order, the memo or the catalog
//! matching that alters an answer breaks these hashes.
//!
//! * the census database bytes at max axis 24;
//! * the canonical plan of every sorted rank-4 shape with extents ≤ 8
//!   (the k-D bipartition path);
//! * two rank-9 shapes, wider than any inline memo key;
//! * the Figure 1 and Figure 2 census counts at pool widths 1 and 8.

use cubemesh::audit::fnv1a;
use cubemesh::census::{census_3d, gray_fraction_exact};
use cubemesh::core::Planner;
use cubemesh::pool::with_threads;
use cubemesh::topology::Shape;
use cubemesh_plandb::{build, BuildConfig};

#[test]
fn census_db_bytes_at_max_axis_24() {
    let dir = std::env::temp_dir().join(format!("cubemesh-census-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = dir.join("plans.db");
    build(&BuildConfig::new(24), &out).expect("build");
    let bytes = std::fs::read(&out).expect("read db");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(bytes.len(), 356_045);
    assert_eq!(fnv1a(&bytes), 0xc800_176c_acc5_4398);
}

#[test]
fn rank4_plans_up_to_8() {
    let mut planner = Planner::new();
    let mut text = String::new();
    let (mut shapes, mut planned) = (0, 0);
    for a in 1..=8usize {
        for b in a..=8 {
            for c in b..=8 {
                for d in c..=8 {
                    shapes += 1;
                    match planner.plan(&Shape::new(&[a, b, c, d])) {
                        Some(plan) => {
                            planned += 1;
                            text.push_str(&plan.to_canonical_string());
                        }
                        None => text.push('-'),
                    }
                    text.push('\n');
                }
            }
        }
    }
    assert_eq!((shapes, planned), (330, 320));
    assert_eq!(fnv1a(text.as_bytes()), 0x63cc_7f20_4af1_fb46);
}

#[test]
fn rank9_plans() {
    let mut planner = Planner::new();
    for (dims, want) in [
        (
            [3; 9],
            "(3x3x3x1x1x1x1x1x1 d * 1x1x1x3x3x3x3x3x3 (3x3x3x1x1x1 d * 1x1x1x3x3x3 d))",
        ),
        (
            [5, 3, 3, 3, 3, 3, 3, 3, 7],
            "(1x3x1x1x1x1x1x1x1 g * 5x1x3x3x3x3x3x3x7 (5x3x1x1x1x1x1x1 d \
             * 1x1x3x3x3x3x3x7 (3x3x3x1x1x1 d * 1x1x1x3x3x7 d)))",
        ),
    ] {
        let plan = planner.plan(&Shape::new(&dims)).expect("rank-9 plan");
        assert_eq!(plan.to_canonical_string(), want, "{dims:?}");
    }
}

#[test]
fn census_counts_at_pool_widths_1_and_8() {
    for threads in [1, 8] {
        let c = with_threads(threads, || census_3d(6));
        assert_eq!(c.total, 262_144, "threads={threads}");
        assert_eq!(
            c.by_method,
            [99_219, 125_054, 6_773, 13_225],
            "threads={threads}"
        );
        assert_eq!(c.uncovered, 17_873, "threads={threads}");
        assert_eq!(c.constructive, 238_690, "threads={threads}");
        let fraction = |k, n| with_threads(threads, || gray_fraction_exact(k, n).map(f64::to_bits));
        assert_eq!(
            fraction(2, 8),
            Some(0x3fe4_a340_0000_0000),
            "threads={threads}"
        );
        assert_eq!(
            fraction(3, 6),
            Some(0x3fd8_3930_0000_0000),
            "threads={threads}"
        );
    }
}
