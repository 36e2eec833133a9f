//! Choosing a wraparound construction for a given torus.
//!
//! The paper applies one rule (halve or quarter) to every axis; the driver
//! generalizes slightly by choosing per axis, then plans the inner mesh
//! with [`plan_shape`] and keeps only combinations whose total host
//! dimension is minimal. For each feasible combination it *constructs*
//! the inner embedding, measures the fiber-max Hamming cost of every
//! short inner hop, and places the removal bridges adaptively
//! ([`crate::axis::axis_quarter_adaptive`]) — then picks the combination
//! with the smallest certified dilation bound.

use crate::axis::{axis_half_adaptive, axis_quarter_adaptive, AxisCode};
use crate::build::build_torus_embedding;
use cubemesh_core::{construct, plan_shape, Plan, Planner};
use cubemesh_embedding::Embedding;
use cubemesh_topology::{cube_dim, hamming, Shape};

/// A successful torus plan.
pub struct TorusPlanOutcome {
    /// The verified minimal-expansion embedding.
    pub embedding: Embedding,
    /// Per-axis rule: 1 = halving, 2 = quartering.
    pub rule: Vec<u8>,
    /// Inner mesh axis lengths.
    pub inner_dims: Vec<usize>,
    /// Certified dilation bound (from measured inner costs).
    pub dilation_bound: u32,
}

/// Banded fiber-max cost table for one axis of an inner embedding:
/// `cost(w1, w2)` = max over inner nodes `x` with `xᵢ = w1` of
/// `Hamming(φ(x), φ(x[i → w2]))`, for `|w1 − w2| ≤ 3`.
struct AxisCosts {
    m: usize,
    /// `band[w * 4 + d]` = cost from `w` to `w + d`, `d ∈ 0..4`.
    band: Vec<u32>,
}

impl AxisCosts {
    fn measure(inner_shape: &Shape, inner: &Embedding, axis: usize) -> Self {
        let m = inner_shape.len(axis);
        let mut band = vec![0u32; m * 4];
        let mut coords = vec![0usize; inner_shape.rank()];
        for node in 0..inner_shape.nodes() {
            inner_shape.coords_into(node, &mut coords);
            let w = coords[axis];
            let a = inner.image(node);
            for d in 1..4usize {
                if w + d < m {
                    let mut other = coords.clone();
                    other[axis] = w + d;
                    let b = inner.image(inner_shape.index(&other));
                    let h = hamming(a, b);
                    let slot = &mut band[w * 4 + d];
                    *slot = (*slot).max(h);
                }
            }
        }
        AxisCosts { m, band }
    }

    fn cost(&self, w1: usize, w2: usize) -> u32 {
        let (lo, hi) = (w1.min(w2), w1.max(w2));
        let d = hi - lo;
        if d == 0 {
            0
        } else if d < 4 && hi < self.m {
            self.band[lo * 4 + d]
        } else {
            // Bridges never span further; make it unattractive.
            64
        }
    }
}

/// A feasible torus construction under consideration: (bound, per-axis
/// rule, axis codes, inner shape, inner embedding).
type Candidate = (u32, Vec<u8>, Vec<AxisCode>, Shape, Embedding);

/// One feasible halving/quartering combination for a wraparound shape:
/// the per-axis rule, the inner mesh it factors through, and the inner
/// mesh's plan. This is the *static* face of the driver — enumerable
/// without constructing anything, so the audit layer certifies exactly
/// the combinations [`embed_torus_with`] chooses among.
#[derive(Clone, Debug)]
pub struct TorusCombo {
    /// Per-axis rule: 1 = halving (Lemma 3), 2 = quartering (Lemma 4).
    pub rule: Vec<u8>,
    /// The inner mesh `⌈ℓᵢ/2rᵢ⌉ × …` the ring codes factor through.
    pub inner_shape: Shape,
    /// The inner mesh's plan, as [`plan_shape`] picks it.
    pub inner_plan: Plan,
    /// Submesh code bits `Σ rᵢ` spent on ring copies.
    pub cbits: u32,
}

/// Enumerate every feasible halving/quartering combination for `shape`:
/// per-axis rules whose inner mesh is plannable and whose host dimension
/// `⌈log₂ inner⌉ + Σrᵢ` equals the minimal cube `⌈log₂ Πℓᵢ⌉`. The driver
/// constructs precisely these; the audit layer certifies precisely these.
pub fn feasible_combos(shape: &Shape, planner: &mut Planner) -> Vec<TorusCombo> {
    let k = shape.rank();
    let total = cube_dim(shape.nodes() as u64);
    let mut combos = Vec::new();
    for mask in 0..(1u32 << k) {
        let rule: Vec<u8> = (0..k)
            .map(|i| if mask & (1 << i) != 0 { 2 } else { 1 })
            .collect();
        let inner_dims: Vec<usize> = shape
            .dims()
            .iter()
            .zip(&rule)
            .map(|(&l, &r)| l.div_ceil(r as usize * 2))
            .collect();
        let cbits: u32 = rule.iter().map(|&r| r as u32).sum();
        let inner_shape = Shape::new(&inner_dims);
        let inner_min = cube_dim(inner_shape.nodes() as u64);
        if inner_min + cbits != total {
            continue;
        }
        let Some(inner_plan) = plan_shape(planner, &inner_shape).map(|hit| hit.plan) else {
            continue;
        };
        combos.push(TorusCombo {
            rule,
            inner_shape,
            inner_plan,
            cbits,
        });
    }
    combos
}

/// Embed a wraparound mesh into its minimal cube with the §6 machinery.
///
/// Returns `None` when no halving/quartering combination lands in the
/// minimal cube with a plannable inner mesh.
pub fn embed_torus(shape: &Shape) -> Option<TorusPlanOutcome> {
    let mut planner = Planner::new();
    embed_torus_with(shape, &mut planner)
}

/// [`embed_torus`] reusing a caller-provided planner memo.
pub fn embed_torus_with(shape: &Shape, planner: &mut Planner) -> Option<TorusPlanOutcome> {
    let k = shape.rank();
    let mut best: Option<Candidate> = None;

    for combo in feasible_combos(shape, planner) {
        let Ok(inner) = construct(&combo.inner_shape, &combo.inner_plan) else {
            // A Direct plan outside the catalog is a planner bug; skip the
            // combo rather than abort the whole sweep.
            continue;
        };

        // Adaptive per-axis codes against measured costs.
        let mut codes = Vec::with_capacity(k);
        let mut bound = 0u32;
        for (i, &r) in combo.rule.iter().enumerate() {
            let costs = AxisCosts::measure(&combo.inner_shape, &inner, i);
            let cost_fn = |a: usize, b: usize| costs.cost(a, b);
            let code = if r == 2 {
                axis_quarter_adaptive(shape.len(i), &cost_fn)
            } else {
                axis_half_adaptive(shape.len(i), &cost_fn)
            };
            bound = bound.max(code.dilation_bound_with(&cost_fn));
            codes.push(code);
        }

        if best.as_ref().map(|(b, ..)| bound < *b).unwrap_or(true) {
            best = Some((bound, combo.rule, codes, combo.inner_shape, inner));
        }
    }

    let (bound, rule, codes, inner_shape, inner) = best?;
    let embedding = build_torus_embedding(shape, &codes, &inner);
    Some(TorusPlanOutcome {
        embedding,
        rule,
        inner_dims: inner_shape.dims().to_vec(),
        dilation_bound: bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corollary3_even_cases_reach_dilation_two() {
        for (a, b) in [(6usize, 10usize), (4, 6), (10, 14), (12, 20)] {
            let shape = Shape::new(&[a, b]);
            let out = embed_torus(&shape).unwrap_or_else(|| panic!("{}x{}", a, b));
            out.embedding.verify().unwrap();
            let m = out.embedding.metrics();
            assert!(m.is_minimal_expansion(), "{}x{}", a, b);
            assert!(m.dilation <= 2, "{}x{} dilation {}", a, b, m.dilation);
        }
    }

    #[test]
    fn lemma3_odd_cases_reach_inner_plus_one() {
        // 5x9 satisfies Lemma 3 with inner 3x5 (direct, d = 2): 45 -> Q6 =
        // Q4 + 2 submesh bits; odd axes pay at most d+1 -> dilation ≤ 3
        // (adaptive placement often does better).
        let shape = Shape::new(&[5, 9]);
        let out = embed_torus(&shape).expect("5x9 torus");
        out.embedding.verify().unwrap();
        let m = out.embedding.metrics();
        assert!(m.is_minimal_expansion());
        assert!(m.dilation <= 3, "dilation {}", m.dilation);

        // 7x8: inner 4x4 Gray (d = 1), one odd axis -> dilation ≤ 2.
        let out = embed_torus(&Shape::new(&[7, 8])).expect("7x8 torus");
        out.embedding.verify().unwrap();
        let m = out.embedding.metrics();
        assert!(m.is_minimal_expansion());
        assert!(m.dilation <= 2, "dilation {}", m.dilation);
    }

    #[test]
    fn adaptive_placement_helps_odd_quartering() {
        // 9x17 satisfies the Lemma 4 condition with inner 3x5 (d = 2);
        // the fixed removal rule pays 3, adaptive placement should reach
        // the paper's max(d,2) = 2 if any placement can.
        let shape = Shape::new(&[9, 17]);
        let out = embed_torus(&shape).expect("9x17 torus");
        out.embedding.verify().unwrap();
        let m = out.embedding.metrics();
        assert!(m.is_minimal_expansion());
        assert!(
            m.dilation <= out.dilation_bound,
            "{} > bound {}",
            m.dilation,
            out.dilation_bound
        );
        assert!(m.dilation <= 3);
    }

    #[test]
    fn rings_embed_optimally() {
        for len in [8usize, 12, 16, 5, 7, 15] {
            let shape = Shape::new(&[len]);
            let out = embed_torus(&shape).unwrap_or_else(|| panic!("ring {}", len));
            out.embedding.verify().unwrap();
            let m = out.embedding.metrics();
            assert!(m.is_minimal_expansion());
            let expect = if len % 2 == 0 { 1 } else { 2 };
            assert!(
                m.dilation <= expect,
                "ring {} dilation {} > {}",
                len,
                m.dilation,
                expect
            );
        }
    }

    #[test]
    fn three_d_torus() {
        let shape = Shape::new(&[4, 6, 10]);
        let out = embed_torus(&shape).expect("4x6x10");
        out.embedding.verify().unwrap();
        let m = out.embedding.metrics();
        assert!(m.is_minimal_expansion());
        assert!(m.dilation <= 2, "dilation {}", m.dilation);
    }

    #[test]
    fn infeasible_torus_returns_none() {
        // 5x5 satisfies neither lemma condition with a plannable inner.
        assert!(embed_torus(&Shape::new(&[5, 5])).is_none());
    }
}
