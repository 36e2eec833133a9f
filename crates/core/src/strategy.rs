//! The confidence-ranked strategy ladder: the one answer to "which plan
//! for this shape".
//!
//! The census-sweep builder and the query service want more than "a
//! plan": they want to know *which* family of machinery justified it
//! and how much to trust that family, so the plan database records
//! that provenance beside each plan. A [`PlanStrategy`] is one such
//! family — a named, confidence-weighted view onto the [`Planner`]'s
//! rule space, restricted by a rule mask so a strategy's claim
//! ("methods 1–3 cover this shape") is justified by exactly the rules
//! it names, recursion included.
//!
//! The built-in strategies mirror the paper's method sets
//! S₁ ⊂ S₂ ⊂ S₃ ⊂ S₄: each widens the previous one, so trying them in
//! descending confidence order and keeping the first hit records the
//! *weakest* machinery that covers a shape — the same reading as the
//! paper's cumulative census columns. The plan database stores the
//! ladder's answer for every shape, and [`plan_shape`] gives the same
//! answer to every other surface that picks a plan (embed, certify, the
//! crosscheck sweeps, the torus driver, replay slack), so they all build
//! the embedding the database serves. Construction (route resolution)
//! stays deferred: a strategy produces a [`Plan`], and callers decide if
//! and when to lower it.

use crate::plan::Plan;
use crate::planner::{Planner, RuleMask};
use cubemesh_topology::Shape;
use std::sync::OnceLock;

/// One decomposition family: a named, confidence-ranked proposal
/// engine over shapes.
pub trait PlanStrategy {
    /// Stable machine-readable name, persisted in plan-database records.
    fn name(&self) -> &'static str;

    /// Confidence in `0..=1000` (per-mille). Ranks strategies: higher
    /// means "prefer a plan from me over one from a lower-ranked
    /// strategy for the same shape". The scale is ordinal, not a
    /// probability.
    fn confidence(&self) -> u16;

    /// Propose a minimal-expansion dilation-≤2 plan for `shape`, or
    /// `None` when this family's machinery does not cover it. `planner`
    /// carries the shared memo table; masked passes never cross-read
    /// wider passes' conclusions.
    fn propose(&self, planner: &mut Planner, shape: &Shape) -> Option<Plan>;
}

/// A [`PlanStrategy`] defined by a rule mask; every rung of the
/// built-in ladder is one.
#[derive(Clone, Copy, Debug)]
struct MaskedStrategy {
    name: &'static str,
    confidence: u16,
    mask: RuleMask,
}

impl PlanStrategy for MaskedStrategy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn confidence(&self) -> u16 {
        self.confidence
    }

    fn propose(&self, planner: &mut Planner, shape: &Shape) -> Option<Plan> {
        planner.plan_masked(shape, self.mask)
    }
}

/// The built-in ladder, descending by confidence: the paper's method
/// sets S₁ ⊂ S₂ ⊂ S₃ ⊂ S₄, each rung widening the one before.
const LADDER: [MaskedStrategy; 4] = [
    // Method 1 alone: whole-mesh binary-reflected Gray code. Dilation 1
    // and congestion 1, exactly — the only strategy whose plans beat
    // the dilation-2 family, hence the top confidence.
    MaskedStrategy {
        name: "gray",
        confidence: 1000,
        mask: RuleMask::GRAY,
    },
    // Methods 1 + direct lookup: Gray, exact catalog hits, and catalog
    // hits by axis extension inside the same cube. Plans are baked,
    // hand-verified embeddings composed with nothing else.
    MaskedStrategy {
        name: "direct",
        confidence: 950,
        mask: RuleMask::GRAY
            .union(RuleMask::DIRECT)
            .union(RuleMask::DIRECT_EXT),
    },
    // Methods 1–3: the above plus power-of-two peeling, catalog ⊙
    // factor products and pair + Gray decompositions (§4.2 steps 1–3).
    MaskedStrategy {
        name: "product",
        confidence: 850,
        mask: RuleMask::GRAY
            .union(RuleMask::DIRECT)
            .union(RuleMask::DIRECT_EXT)
            .union(RuleMask::PEEL_POW2)
            .union(RuleMask::CATALOG_PRODUCT)
            .union(RuleMask::PAIR_GRAY),
    },
    // Methods 1–4 plus the rank ≥ 4 bipartition search: the full rule
    // space of `Planner::plan`, including the axis-split search
    // `ℓⱼ → ℓ′·ℓ″ ≥ ℓⱼ`. Widest coverage, deepest recursion, most slack
    // in the factor products.
    MaskedStrategy {
        name: "axis-split",
        confidence: 750,
        mask: RuleMask::ALL,
    },
];

/// The built-in strategy ladder, descending by confidence — the order
/// the plan-database builder and the service's cold-miss path try them.
pub fn default_strategies() -> Vec<Box<dyn PlanStrategy + Send + Sync>> {
    LADDER
        .iter()
        .map(|&s| Box::new(s) as Box<dyn PlanStrategy + Send + Sync>)
        .collect()
}

/// The plan for `shape`: the first proposal of the built-in ladder,
/// tagged with its provenance — the plan the database stores for a
/// sorted shape. Every surface that chooses a plan asks this function;
/// [`Planner::plan`] is the rule engine under its widest rung and
/// covers exactly the same shapes. `None` means no rung covers the
/// shape (the census exception set).
pub fn plan_shape(planner: &mut Planner, shape: &Shape) -> Option<StrategyPlan> {
    static BOXED: OnceLock<Vec<Box<dyn PlanStrategy + Send + Sync>>> = OnceLock::new();
    plan_with_strategies(planner, shape, BOXED.get_or_init(default_strategies))
}

/// A strategy's successful proposal: the winning plan plus the
/// provenance the plan database persists alongside it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyPlan {
    /// Name of the strategy that produced the plan.
    pub strategy: &'static str,
    /// That strategy's confidence (per-mille).
    pub confidence: u16,
    /// The proposed plan.
    pub plan: Plan,
}

/// Try `strategies` in the order given (callers pass them ranked by
/// descending confidence) and return the first proposal, tagged with
/// its provenance. `None` means no strategy covers the shape — for the
/// 3-D universe, the ~3.9% census exception set.
pub fn plan_with_strategies(
    planner: &mut Planner,
    shape: &Shape,
    strategies: &[Box<dyn PlanStrategy + Send + Sync>],
) -> Option<StrategyPlan> {
    strategies.iter().find_map(|s| {
        s.propose(planner, shape).map(|plan| StrategyPlan {
            strategy: s.name(),
            confidence: s.confidence(),
            plan,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ranked_descending() {
        let s = default_strategies();
        assert!(s.windows(2).all(|w| w[0].confidence() > w[1].confidence()));
        assert_eq!(s[0].name(), "gray");
        assert_eq!(s.last().map(|s| s.name()), Some("axis-split"));
    }

    #[test]
    fn weakest_covering_strategy_wins() {
        let mut planner = Planner::new();
        let mut strategy = |dims: &[usize]| {
            plan_shape(&mut planner, &Shape::new(dims)).map(|h| (h.strategy, h.confidence))
        };
        // 4x8x16: Gray is minimal — method 1 takes it.
        assert_eq!(strategy(&[4, 8, 16]), Some(("gray", 1000)));
        // 3x3x3: a direct catalog shape, not Gray-minimal.
        assert_eq!(strategy(&[3, 3, 3]), Some(("direct", 950)));
        // 5x6x7: needs a product decomposition.
        assert_eq!(strategy(&[5, 6, 7]), Some(("product", 850)));
        // 2x5x22: the product rung answers before the rule engine's
        // peel-then-split plan is reached.
        assert_eq!(strategy(&[2, 5, 22]), Some(("product", 850)));
        // 5x5x5: the paper's open case — no strategy covers it.
        assert_eq!(strategy(&[5, 5, 5]), None);
    }

    #[test]
    fn masked_pass_agrees_with_full_planner_on_coverage() {
        // The widest strategy must cover exactly what `Planner::plan`
        // covers — RuleMask::ALL is the identity restriction.
        let mut a = Planner::new();
        let mut b = Planner::new();
        for dims in [[3usize, 5, 17], [6, 11, 7], [9, 9, 9], [5, 7, 7]] {
            let shape = Shape::new(&dims);
            assert_eq!(LADDER[3].propose(&mut a, &shape), b.plan(&shape), "{shape}");
        }
    }

    #[test]
    fn masked_recursion_stays_inside_the_mask() {
        // 2x5x11 needs an axis split; the product-only strategy must
        // not find a plan for it even though the full planner does.
        let mut planner = Planner::new();
        let shape = Shape::new(&[2, 5, 11]);
        assert!(LADDER[2].propose(&mut planner, &shape).is_none());
        assert!(LADDER[3].propose(&mut planner, &shape).is_some());
    }
}
