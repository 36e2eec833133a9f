//! Lowering a [`Plan`] to a concrete, verifiable embedding.

use crate::plan::{reduce, Plan};
use crate::product::mesh_product_embedding;
use cubemesh_embedding::{gray_mesh_embedding, Embedding, MeshEdgeView};
use cubemesh_obs as obs;
use cubemesh_search::catalog_embedding;
use cubemesh_topology::Shape;

/// Largest guest, in nodes, that the command-line tools construct as
/// one embedding (`cubemesh embed`/`classify`, `cubemesh-bench
/// --shapes`): the paper's 512×512×512 census corner, `2²⁷` nodes. Its
/// node map and hop-form routes peak at ~1.8 GiB (14 B per node). The
/// bench holds one embedding at a time and peaks where `embed` does:
/// 227 vs 227 MiB at `2²⁴` nodes and 451 vs 451 MiB at `2²⁵` (x86-64
/// release build). A larger request is refused up front instead of
/// aborting in the allocator.
pub const MAX_EMBED_NODES: usize = 1 << 27;

/// Why a plan cannot be lowered to an embedding.
///
/// The planner only emits `Direct` after a successful catalog lookup, so
/// this error indicates a hand-built or corrupted plan tree (use
/// `cubemesh_audit::check_plan` to validate plans before constructing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstructError {
    /// A `Direct` plan names a shape absent from the embedding catalog.
    DirectNotInCatalog { shape: Shape },
}

impl std::fmt::Display for ConstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstructError::DirectNotInCatalog { shape } => {
                write!(f, "Direct plan but {shape} not in catalog")
            }
        }
    }
}

impl std::error::Error for ConstructError {}

/// Build the embedding a plan describes for `shape`.
///
/// The plan must have been produced for this shape (or one with the same
/// reduced dims). The result's host cube is `Q_{plan.host_dim()}` and its
/// dilation/congestion obey the Theorem 3 bounds `cubemesh_audit::check_plan`
/// certifies — property-checked in the tests rather than here
/// (construction is hot in censuses).
pub fn construct(shape: &Shape, plan: &Plan) -> Result<Embedding, ConstructError> {
    // One span per top-level lowering; the product recursion shows up as
    // nested `product.fill` children in a trace.
    obs::span!("construct");
    let reduced = reduce(shape);
    let emb = construct_reduced(&reduced, plan)?;
    Ok(lift(emb, shape))
}

fn construct_reduced(shape: &Shape, plan: &Plan) -> Result<Embedding, ConstructError> {
    match plan {
        Plan::Gray => Ok(gray_mesh_embedding(shape)),
        Plan::Direct => {
            catalog_embedding(shape).ok_or_else(|| ConstructError::DirectNotInCatalog {
                shape: shape.clone(),
            })
        }
        Plan::Product { f1, p1, f2, p2 } => {
            // Factors are planned on their reduced shapes; construct and
            // lift back to the product rank.
            let e1 = lift(construct_reduced(&reduce(f1), p1)?, f1);
            let e2 = lift(construct_reduced(&reduce(f2), p2)?, f2);
            Ok(mesh_product_embedding(shape, f1, &e1, f2, &e2))
        }
    }
}

/// Re-declare a mesh embedding at a different rank with the same reduced
/// shape. Length-1 axes change neither linear node indices nor the edge
/// enumeration, so the map and routes transfer verbatim and only the guest
/// shape is swapped — an O(rank) relabel, with no edge list materialized
/// at any recursion level of [`construct`].
pub fn lift(emb: Embedding, shape: &Shape) -> Embedding {
    emb.with_mesh_guest(shape)
}

/// Restrict a mesh embedding of `big` to the submesh `small`
/// (`small ≤ big` axiswise): nodes with out-of-range coordinates are
/// dropped, routes of surviving edges transfer verbatim (as node paths).
/// All metrics can only improve; the host cube is unchanged.
pub fn restrict(emb: &Embedding, big: &Shape, small: &Shape) -> Embedding {
    assert!(small.fits_in(big), "{} does not fit in {}", small, big);
    assert_eq!(emb.guest_nodes(), big.nodes());
    let idx = crate::product::MeshEdgeIndex::new(big);
    let view = MeshEdgeView::new(small);
    let edge_count = view.edge_count();
    let rank = small.rank();

    let mut map = Vec::with_capacity(small.nodes());
    let mut routes = cubemesh_embedding::PathRoutes::with_capacity(edge_count, edge_count * 3);
    let mut c = vec![0usize; rank];
    loop {
        let big_node = big.index(&c);
        map.push(emb.image(big_node));
        for (axis, &coord) in c.iter().enumerate() {
            if coord + 1 >= small.len(axis) {
                continue;
            }
            routes.push(&emb.route(idx.id(big_node, axis)));
        }
        if !small.advance_coords(&mut c) {
            break;
        }
    }
    Embedding::new_mesh(small, emb.host(), map, routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;

    fn check(dims: &[usize]) -> cubemesh_embedding::Metrics {
        let shape = Shape::new(dims);
        let plan = Planner::new()
            .plan(&shape)
            .unwrap_or_else(|| panic!("no plan for {:?}", dims));
        let emb = construct(&shape, &plan).expect("plan lowers");
        emb.verify().unwrap_or_else(|e| panic!("{:?}: {}", dims, e));
        let m = emb.metrics();
        assert!(m.is_minimal_expansion(), "{:?} not minimal", dims);
        assert!(m.dilation <= 2, "{:?} dilation {}", dims, m.dilation);
        assert!(m.congestion <= 2, "{:?} congestion {}", dims, m.congestion);
        m
    }

    #[test]
    fn paper_examples_construct_and_verify() {
        // §4.2/§5 worked examples.
        check(&[12, 20]); // (3x5)·(4x4)
        check(&[3, 25, 3]); // two 3x5 pieces
        check(&[21, 9, 5]); // (7x9x1)·(3x1x5)
        check(&[3, 3, 23]); // extension to 3x3x25
        check(&[5, 6, 7]); // pair (5,6) + Gray 7
        check(&[5, 10, 11]);
        check(&[6, 11, 7]);
    }

    #[test]
    fn method3_style_products_construct() {
        check(&[6, 6, 6]); // (3x3x3)·(2x2x2)
        check(&[3, 3, 14]); // (3x3x7)·(1x1x2)
        check(&[27, 3, 3]); // extension 28x3x3 = (7x3x3)·(4x1x1)
    }

    #[test]
    fn direct_extension_constructs() {
        let m = check(&[10, 11]); // inside 11x11
        assert_eq!(m.host_dim, 7);
    }

    #[test]
    fn gray_plans_construct_at_dilation_one() {
        let m = check(&[4, 8, 16]);
        assert_eq!(m.dilation, 1);
        assert_eq!(m.congestion, 1);
    }

    #[test]
    fn larger_meshes_construct() {
        check(&[9, 9, 9]); // (3x9)-style splits
        check(&[12, 10, 20]);
        check(&[24, 20, 12]);
    }

    #[test]
    fn four_d_construction() {
        check(&[3, 5, 2, 4]);
        check(&[3, 3, 3, 3]);
    }

    #[test]
    fn restrict_keeps_metrics_bounded() {
        let big = Shape::new(&[4, 8]);
        let emb = gray_mesh_embedding(&big);
        let small = Shape::new(&[3, 7]);
        let r = restrict(&emb, &big, &small);
        r.verify().unwrap();
        assert_eq!(r.guest_nodes(), 21);
        let m = r.metrics();
        assert_eq!(m.dilation, 1);
        assert!(m.congestion <= 1);
        assert_eq!(r.host().dim(), emb.host().dim());
    }

    #[test]
    fn lift_preserves_everything() {
        let shape2 = Shape::new(&[3, 5]);
        let emb = gray_mesh_embedding(&shape2);
        let shape3 = Shape::new(&[3, 1, 5]);
        let lifted = lift(emb.clone(), &shape3);
        lifted.verify().unwrap();
        assert_eq!(lifted.map(), emb.map());
        assert_eq!(lifted.metrics().dilation, emb.metrics().dilation);
    }
}
