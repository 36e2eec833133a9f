//! Graph-decomposition embeddings of meshes in Boolean cubes — the primary
//! contribution of Ho & Johnsson (ICPP 1990).
//!
//! The central theorem (Theorem 3) says an embedding of a product graph
//! `G₁ × G₂ → H₁ × H₂` can be assembled from embeddings of the factors,
//! inheriting `dilation = max(d₁, d₂)`, `congestion = max(c₁, c₂)` and
//! `expansion = ε₁ · ε₂`. Because hypercubes are products of hypercubes and
//! big meshes are subgraphs of products of small meshes (with a
//! boustrophedon reflection), this turns a few small *direct* embeddings
//! plus Gray codes into minimal-expansion dilation-2 embeddings of almost
//! every 3-D mesh.
//!
//! * [`product`] — the constructive Theorem 3 / Corollary 2 machinery
//!   (explicit maps *and* routes, so the metric laws hold exactly, not just
//!   as bounds);
//! * [`plan`] — the decomposition-plan IR;
//! * [`planner`] — the §4.2 rule engine: a memoized recursive planner
//!   that picks Gray axes, direct catalog pieces, and axis splits;
//! * [`strategy`] — the confidence-ranked strategy ladder (method sets
//!   S₁..S₄ as rule-masked views of the planner) and [`plan_shape`],
//!   the one answer to "which plan for this shape";
//! * [`classify`] — the paper-faithful arithmetic classification (methods
//!   1–4 of §5) used by the Figure-2 census;
//! * [`construct`] — lowering a [`plan::Plan`] to a verified
//!   [`cubemesh_embedding::Embedding`].
//!
//! The one-call entry points are [`embed_mesh`] (construct the best
//! embedding we can) and [`plan_shape`] for repeated planning with a
//! shared [`Planner`] memo table.

pub mod classify;
pub mod construct;
pub mod plan;
pub mod planner;
pub mod product;
pub mod strategy;

pub use classify::{classify3, Method};
pub use construct::{construct, restrict, ConstructError};
pub use plan::{Plan, PlanParseError};
pub use planner::Planner;
pub use product::{mesh_product_embedding, product_embedding};
pub use strategy::{
    default_strategies, plan_shape, plan_with_strategies, PlanStrategy, StrategyPlan,
};

use cubemesh_embedding::{gray_mesh_embedding, Embedding};
use cubemesh_topology::Shape;

/// Embed a mesh with the plan [`plan_shape`] picks: a minimal-expansion
/// dilation-≤2 embedding when the ladder covers the shape, otherwise the
/// Gray code embedding (dilation 1, non-minimal expansion).
///
/// Returns the embedding and whether it is minimal-expansion.
pub fn embed_mesh(shape: &Shape) -> (Embedding, bool) {
    match plan_shape(&mut Planner::new(), shape).and_then(|hit| construct(shape, &hit.plan).ok()) {
        Some(emb) => (emb, true),
        None => (gray_mesh_embedding(shape), false),
    }
}
