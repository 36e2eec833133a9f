//! The Figure 2 census: cumulative method coverage over all 3-D meshes
//! with `1 ≤ ℓᵢ ≤ 2ⁿ`.

use crate::cover::{workspace_catalog, Cover2, Cover3};
use cubemesh_core::classify::{method1, method2, method3, method4};
use cubemesh_obs as obs;
use cubemesh_obs::Progress;

/// Census results for one `n`.
#[derive(Clone, Debug)]
pub struct ThreeDCensus {
    /// Axis bound exponent: `ℓᵢ ≤ 2ⁿ`.
    pub n: u32,
    /// `(2ⁿ)³` ordered shapes.
    pub total: u64,
    /// Ordered-shape counts newly covered by methods 1..4 (paper
    /// classification).
    pub by_method: [u64; 4],
    /// Ordered shapes the paper's methods miss.
    pub uncovered: u64,
    /// Ordered shapes our *constructive* planner covers.
    pub constructive: u64,
}

impl ThreeDCensus {
    /// Cumulative percentages S₁..S₄ (the paper's Figure 2 series).
    pub fn cumulative_percent(&self) -> [f64; 4] {
        let mut acc = 0u64;
        let mut out = [0.0; 4];
        for (i, &c) in self.by_method.iter().enumerate() {
            acc += c;
            out[i] = 100.0 * acc as f64 / self.total as f64;
        }
        out
    }

    /// Constructive coverage percentage.
    pub fn constructive_percent(&self) -> f64 {
        100.0 * self.constructive as f64 / self.total as f64
    }
}

/// Multiplicity of a sorted triple among ordered triples.
#[inline]
fn multiplicity(a: usize, b: usize, c: usize) -> u64 {
    if a == b && b == c {
        1
    } else if a == b || b == c {
        3
    } else {
        6
    }
}

/// Run the census for `ℓᵢ ≤ 2ⁿ`. Enumerates sorted triples in parallel
/// and weights by permutation multiplicity (the classification is
/// permutation-invariant; tested in `cubemesh-core`).
pub fn census_3d(n: u32) -> ThreeDCensus {
    assert!((1..=9).contains(&n), "paper domain is n = 1..9");
    obs::span!("census.3d");
    let limit = 1usize << n;
    let (two, three) = workspace_catalog();
    let c2 = Cover2::build(limit, two);

    // Sorted triples to visit: C(limit + 2, 3); workers tick one slice at
    // a time, so the reporter's rate is shapes/sec across all threads.
    let sorted_total = (limit as u64) * (limit as u64 + 1) * (limit as u64 + 2) / 6;
    let progress = Progress::new("census", sorted_total);
    // Resolve the per-method counters once; the workers only touch the
    // (mutex-free) counters themselves when flushing a slice.
    let method_ctrs = [
        obs::counter_named("census.method.m1"),
        obs::counter_named("census.method.m2"),
        obs::counter_named("census.method.m3"),
        obs::counter_named("census.method.m4"),
    ];
    let uncovered_ctr = obs::counter_named("census.uncovered");
    let constructive_ctr = obs::counter_named("census.constructive");

    // One task per smallest axis `a`; the slices are summed in `a` order.
    let slices = cubemesh_pool::run_tasks(limit, |i| {
        let a = i + 1;
        let mut c3 = Cover3::new(&c2, &three);
        let mut by = [0u64; 4];
        let mut unc = 0u64;
        let mut cons = 0u64;
        let mut visited = 0u64;
        for b in a..=limit {
            for c in b..=limit {
                visited += 1;
                let w = multiplicity(a, b, c);
                let (x, y, z) = (a as u64, b as u64, c as u64);
                if method1(x, y, z) {
                    by[0] += w;
                } else if method2(x, y, z) {
                    by[1] += w;
                } else if method3(x, y, z) {
                    by[2] += w;
                } else if method4(x, y, z) {
                    by[3] += w;
                } else {
                    unc += w;
                }
                if c3.covered(a, b, c) {
                    cons += w;
                }
            }
        }
        // One atomic batch per slice keeps the inner loop metric-free.
        for (ctr, &n) in method_ctrs.iter().zip(&by) {
            ctr.add(n);
        }
        uncovered_ctr.add(unc);
        constructive_ctr.add(cons);
        progress.tick(visited);
        (by, unc, cons)
    });
    let mut by_method = [0u64; 4];
    let (mut uncovered, mut constructive) = (0u64, 0u64);
    for (by, unc, cons) in slices {
        for (total, n) in by_method.iter_mut().zip(by) {
            *total += n;
        }
        uncovered += unc;
        constructive += cons;
    }

    progress.finish();
    let total = (limit as u64).pow(3);
    debug_assert_eq!(by_method.iter().sum::<u64>() + uncovered, total);
    // Trace gauges at dispatch-complete: one sample per method (not per
    // shape — the census visits millions), so a trace shows the method
    // mix of each census run without drowning in events.
    for (name, &count) in [
        "census.method.m1",
        "census.method.m2",
        "census.method.m3",
        "census.method.m4",
    ]
    .iter()
    .zip(&by_method)
    {
        obs::trace::gauge(name, count);
    }
    obs::trace::gauge("census.uncovered", uncovered);
    ThreeDCensus {
        n,
        total,
        by_method,
        uncovered,
        constructive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_census_is_complete() {
        let c = census_3d(1);
        // ℓᵢ ∈ {1, 2}: everything is Gray-minimal.
        assert_eq!(c.total, 8);
        assert_eq!(c.by_method[0], 8);
        assert_eq!(c.uncovered, 0);
        assert_eq!(c.constructive, 8);
        assert_eq!(c.cumulative_percent()[3], 100.0);
    }

    #[test]
    fn n2_census_counts() {
        let c = census_3d(2);
        assert_eq!(c.total, 64);
        assert_eq!(c.by_method.iter().sum::<u64>() + c.uncovered, 64);
        // 3x3x3 is the only shape ≤ 4 needing method 3? Verify coverage is
        // total (everything ≤ 4x4x4 is embeddable).
        assert_eq!(c.uncovered, 0);
        assert_eq!(c.constructive, 64);
    }

    #[test]
    fn n3_has_exceptions() {
        // 5x5x5, 5x7x7 live in the ≤ 8 domain and fail all methods.
        let c = census_3d(3);
        assert!(c.uncovered > 3, "at least 5x5x5 and 5x7x7 perms");
        assert!(
            c.constructive <= c.total - c.uncovered,
            "constructive can never beat the existence classification"
        );
    }

    #[test]
    fn multiplicities() {
        assert_eq!(multiplicity(2, 2, 2), 1);
        assert_eq!(multiplicity(2, 2, 3), 3);
        assert_eq!(multiplicity(2, 3, 3), 3);
        assert_eq!(multiplicity(2, 3, 4), 6);
    }
}
