//! The constructive product-embedding machinery (Theorem 3, Corollary 2).
//!
//! Two layers:
//!
//! * [`product_embedding`] — the literal Theorem 3 construction for
//!   arbitrary guest graphs: `G₁ × G₂ → Q_{n₁+n₂}`, every `G₁`-type edge
//!   routed inside its copy of `H₁`, every `G₂`-type edge inside its copy
//!   of `H₂`. Expansion multiplies; dilation and congestion take maxima —
//!   *exactly*, which the tests check.
//!
//! * [`mesh_product_embedding`] — the Corollary 2 construction: an
//!   `ℓ₁ × ⋯ × ℓ_k` mesh with `ℓᵢ ≤ ℓ₁ᵢ·ℓ₂ᵢ` is embedded through the
//!   product of an `ℓ₁₁ × ⋯ × ℓ₁ₖ` mesh `M₁` and an `ℓ₂₁ × ⋯ × ℓ₂ₖ`
//!   mesh `M₂`, using the boustrophedon reflection `φ̃₁` (instances of
//!   `M₁` with odd `M₂`-coordinate are reflected) so the big mesh really is
//!   a subgraph of the product. Writing `zᵢ = yᵢ·ℓ₁ᵢ + xᵢ`, the address is
//!   `φ₂(y) ‖ φ₁(x′)`. Allowing `ℓᵢ < ℓ₁ᵢ·ℓ₂ᵢ` implements the §4.2
//!   axis-extension trick (embed the slightly larger mesh, restrict).

use cubemesh_embedding::builders::{node_chunks, split_at_ends, MeshEdgeView};
use cubemesh_embedding::{Embedding, RouteSet};
use cubemesh_obs as obs;
use cubemesh_pool::{run_each, run_tasks};
use cubemesh_topology::{Hypercube, Shape};
use std::ops::Range;

/// Edge-id lookup for the canonical mesh edge enumeration: `id(node, axis)`
/// is the position of that edge in [`Mesh::edges`] order.
pub struct MeshEdgeIndex {
    rank: usize,
    ids: Vec<u32>,
}

impl MeshEdgeIndex {
    /// Build the lookup for a mesh shape: one pass in canonical order
    /// (nodes row-major, axes ascending) behind a coordinate cursor.
    pub fn new(shape: &Shape) -> Self {
        let rank = shape.rank();
        let mut ids = vec![u32::MAX; shape.nodes() * rank];
        let mut coords = vec![0usize; rank];
        let mut next = 0u32;
        for node_ids in ids.chunks_exact_mut(rank) {
            for (axis, id) in node_ids.iter_mut().enumerate() {
                if coords[axis] + 1 < shape.len(axis) {
                    *id = next;
                    next += 1;
                }
            }
            shape.advance_coords(&mut coords);
        }
        MeshEdgeIndex { rank, ids }
    }

    /// Edge id of the edge starting at linear index `node` along `axis`.
    ///
    /// # Panics
    /// Panics if no such edge exists (node at the high end of the axis).
    #[inline]
    pub fn id(&self, node: usize, axis: usize) -> usize {
        let id = self.ids[node * self.rank + axis];
        assert!(id != u32::MAX, "no edge at node {} axis {}", node, axis);
        id as usize
    }
}

/// The Theorem 3 construction for arbitrary guests.
///
/// Guest nodes of the product are indexed `u * |V(G₂)| + v`; guest edges
/// are emitted `G₂`-type first (per `u`, in `e2`'s edge order), then
/// `G₁`-type (per `v`, in `e1`'s edge order). The host is
/// `Q_{n₁+n₂}` with `φ([u,v]) = φ₁(u) ‖ φ₂(v)` (`φ₁` in the high bits).
pub fn product_embedding(e1: &Embedding, e2: &Embedding) -> Embedding {
    let n1 = e1.guest_nodes();
    let n2 = e2.guest_nodes();
    let host = Hypercube::new(e1.host().dim() + e2.host().dim());
    let shift = e2.host().dim();

    // The guest count n1·n2 is at most 2^{d1+d2} — the node count of the
    // host cube built above (d1+d2 <= 48) — a relational bound interval
    // analysis cannot carry.
    // audit:allow(CM-A009): n1·n2 <= 2^{d1+d2} <= 2^48, see host above
    let guest = n1 * n2;
    let mut map = Vec::with_capacity(guest);
    for u in 0..n1 {
        let hi = e1.image(u) << shift;
        for v in 0..n2 {
            map.push(hi | e2.image(v));
        }
    }

    // audit:allow(CM-A009): each term is below the product edge count < 3·guest
    let edge_total = n1 * e2.edge_count() + n2 * e1.edge_count();
    let mut edges = Vec::with_capacity(edge_total);
    let mut routes = RouteSet::with_capacity(edge_total, edge_total * 2);

    // G₂-type edges: copy of G₂ for every node u of G₁.
    for u in 0..n1 {
        let hi = e1.image(u) << shift;
        // audit:allow(CM-A009): u < n1, so u·n2 < guest ≤ 2^48.
        let base = (u * n2) as u32;
        for (i, (a, b)) in e2.edges_iter().enumerate() {
            edges.push((base + a, base + b));
            routes.push_iter(e2.routes().route(i).iter().map(|&r| hi | r));
        }
    }
    // G₁-type edges: copy of G₁ for every node v of G₂.
    for v in 0..n2 {
        let lo = e2.image(v);
        for (i, (a, b)) in e1.edges_iter().enumerate() {
            // audit:allow(CM-A009): a,b < n1, so a·n2 + v < guest ≤ 2^48.
            edges.push(((a as usize * n2 + v) as u32, (b as usize * n2 + v) as u32));
            routes.push_iter(e1.routes().route(i).iter().map(|&r| (r << shift) | lo));
        }
    }

    Embedding::new(guest, edges, host, map, routes)
}

/// The Corollary 2 construction.
///
/// * `shape` — the target mesh, with `shape[i] ≤ s1[i] * s2[i]`;
/// * `(s1, e1)` — the inner factor `M₁` and its embedding (reflected per
///   instance);
/// * `(s2, e2)` — the outer factor `M₂` and its embedding.
///
/// The returned embedding maps `z` with `zᵢ = yᵢ·ℓ₁ᵢ + xᵢ` to
/// `φ₂(y) ‖ φ₁(x′)` and routes every mesh edge inside a single copy of the
/// relevant factor's host cube, so dilation and congestion are bounded by
/// the factor embeddings' (Theorem 3).
pub fn mesh_product_embedding(
    shape: &Shape,
    s1: &Shape,
    e1: &Embedding,
    s2: &Shape,
    e2: &Embedding,
) -> Embedding {
    let k = shape.rank();
    assert_eq!(s1.rank(), k, "factor ranks must match the target");
    assert_eq!(s2.rank(), k, "factor ranks must match the target");
    for i in 0..k {
        assert!(
            shape.len(i) <= s1.len(i) * s2.len(i),
            "axis {} does not fit: {} > {}*{}",
            i,
            shape.len(i),
            s1.len(i),
            s2.len(i)
        );
    }
    assert_eq!(e1.guest_nodes(), s1.nodes());
    assert_eq!(e2.guest_nodes(), s2.nodes());

    let n1 = e1.host().dim();
    let host = Hypercube::new(n1 + e2.host().dim());
    let lowering = Lowering {
        shape,
        s1,
        s2,
        e1,
        e2,
        idx1: MeshEdgeIndex::new(s1),
        idx2: MeshEdgeIndex::new(s2),
        s1_strides: (0..k)
            .map(|a| s1.dims()[a + 1..].iter().product())
            .collect(),
        n1,
    };

    // The map and the routes are written in place per contiguous node
    // range. The canonical enumeration visits nodes in linear order and
    // axes ascending within a node, so a node range owns a dense run of
    // edge ids (`edges_before_node` places it in `offsets`); a counting
    // pass over the same walk places its run of route nodes in the arena.
    let nodes = shape.nodes();
    let view = MeshEdgeView::new(shape);
    let chunks = node_chunks(nodes);
    let arena_ends: Vec<usize> = {
        let _span = obs::span!("product.count");
        let sizes = run_tasks(chunks.len(), |i| lowering.route_nodes(chunks[i].clone()));
        sizes
            .iter()
            .scan(0, |end, &size| {
                *end += size;
                Some(*end)
            })
            .collect()
    };
    let mut map = vec![0u64; nodes];
    let mut offsets = vec![0u32; view.edge_count() + 1];
    let mut arena = vec![0u64; arena_ends.last().copied().unwrap_or(0)];
    {
        let _span = obs::span!("product.fill");
        let map_pieces = split_at_ends(&mut map, chunks.iter().map(|r| r.end));
        let offset_pieces = split_at_ends(
            &mut offsets[1..],
            chunks.iter().map(|r| view.edges_before_node(r.end)),
        );
        let arena_pieces = split_at_ends(&mut arena, arena_ends.iter().copied());
        let bases = std::iter::once(0).chain(arena_ends.iter().copied());
        let pieces: Vec<Piece<'_>> = chunks
            .into_iter()
            .zip(bases)
            .zip(map_pieces)
            .zip(offset_pieces.into_iter().zip(arena_pieces))
            .map(|(((nodes, base), map), (offsets, arena))| Piece {
                nodes,
                base,
                map,
                offsets,
                arena,
            })
            .collect();
        run_each(pieces, |piece| lowering.fill(piece));
    }
    Embedding::new_mesh(shape, host, map, RouteSet::from_parts(offsets, arena))
}

/// One worker's share of a product lowering: its node range, and the
/// pieces of the map, the route offsets and the route arena it writes.
/// The arena piece starts `base` nodes into the arena.
struct Piece<'a> {
    nodes: Range<usize>,
    base: usize,
    map: &'a mut [u64],
    offsets: &'a mut [u32],
    arena: &'a mut [u64],
}

/// The factor route a product edge copies (Theorem 3): an `M₂` route
/// with `φ₁(x′)` below it, or an `M₁` route with `φ₂(y)` above it,
/// reversed in a reflected instance.
#[derive(Clone, Copy)]
enum FactorRoute {
    Outer(usize),
    Inner(usize),
    InnerReversed(usize),
}

/// Everything the Corollary 2 lowering reads, shared by its workers.
struct Lowering<'a> {
    shape: &'a Shape,
    s1: &'a Shape,
    s2: &'a Shape,
    e1: &'a Embedding,
    e2: &'a Embedding,
    idx1: MeshEdgeIndex,
    idx2: MeshEdgeIndex,
    /// Row-major strides of `M₁`.
    s1_strides: Vec<usize>,
    /// `φ₁`'s cube dimension: `φ₂` sits above it.
    n1: u32,
}

impl Lowering<'_> {
    /// Visit the nodes of `range` in order, as `visit(c, a1, a2)`: the
    /// cursor at the node, `a1 = φ₁(x′)` and `a2 = φ₂(y) << n₁`.
    fn walk(&self, range: Range<usize>, mut visit: impl FnMut(&FactorCursor<'_>, u64, u64)) {
        let mut c = FactorCursor::new(self.shape, self.s1, self.s2, range.start);
        for _ in range {
            visit(
                &c,
                self.e1.image(c.inner),
                self.e2.image(c.outer) << self.n1,
            );
            c.advance();
        }
    }

    /// The factor routes of the edges at the cursor's node, in canonical
    /// (axis) order.
    fn edges<'s>(&'s self, c: &'s FactorCursor<'_>) -> impl Iterator<Item = FactorRoute> + 's {
        (0..self.shape.rank()).filter_map(move |axis| {
            if c.z[axis] + 1 == self.shape.len(axis) {
                return None;
            }
            Some(if c.x[axis] + 1 == self.s1.len(axis) {
                // M₂-type edge: y -> y + e_axis; x' identical on both ends.
                FactorRoute::Outer(self.idx2.id(c.outer, axis))
            } else if c.y[axis].is_multiple_of(2) {
                // M₁-type edge, x' increasing: the stored route runs
                // forward.
                FactorRoute::Inner(self.idx1.id(c.inner, axis))
            } else {
                // Reflected instance: x' decreases, so the canonical edge
                // starts at x' - 1; reverse its route.
                let from = c.inner - self.s1_strides[axis];
                FactorRoute::InnerReversed(self.idx1.id(from, axis))
            })
        })
    }

    /// Total route nodes of the edges whose lower endpoint lies in
    /// `range`: the arena space [`Lowering::fill`] writes for it.
    fn route_nodes(&self, range: Range<usize>) -> usize {
        let mut total = 0;
        self.walk(range, |c, _, _| {
            for route in self.edges(c) {
                total += self.factor_route(route).len();
            }
        });
        total
    }

    /// The stored factor route a product edge copies.
    fn factor_route(&self, route: FactorRoute) -> &[u64] {
        match route {
            FactorRoute::Outer(id) => self.e2.routes().route(id),
            FactorRoute::Inner(id) | FactorRoute::InnerReversed(id) => self.e1.routes().route(id),
        }
    }

    /// Write a piece's node map `φ₂(y) ‖ φ₁(x′)`, its routes, and each
    /// route's end offset.
    fn fill(&self, piece: Piece<'_>) {
        let Piece {
            nodes,
            base,
            map,
            offsets,
            arena,
        } = piece;
        let n1 = self.n1;
        let (mut node, mut edge, mut at) = (0, 0, 0);
        self.walk(nodes, |c, a1, a2| {
            map[node] = a2 | a1;
            node += 1;
            for route in self.edges(c) {
                let src = self.factor_route(route);
                let dst = &mut arena[at..at + src.len()];
                match route {
                    FactorRoute::Outer(_) => {
                        for (slot, &r) in dst.iter_mut().zip(src) {
                            *slot = (r << n1) | a1;
                        }
                    }
                    FactorRoute::Inner(_) => {
                        for (slot, &r) in dst.iter_mut().zip(src) {
                            *slot = a2 | r;
                        }
                    }
                    FactorRoute::InnerReversed(_) => {
                        for (slot, &r) in dst.iter_mut().zip(src.iter().rev()) {
                            *slot = a2 | r;
                        }
                    }
                }
                at += src.len();
                offsets[edge] = (base + at) as u32;
                edge += 1;
            }
        });
    }
}

/// A product node's place in the two factors, stepped in row-major order.
///
/// Per axis `zᵢ = yᵢ·ℓ₁ᵢ + xᵢ`; `inner` is the `M₁` index of the
/// reflected `x′` and `outer` the `M₂` index of `y`. Along a row of the
/// innermost axis only that axis moves, so `x`, `y`, `x′` and both
/// indices change by one per step, and the reflection keeps `x′` fixed
/// across an instance boundary. Coordinates are divided out again only
/// when a row wraps or a chunk starts.
struct FactorCursor<'a> {
    shape: &'a Shape,
    s1: &'a Shape,
    s2: &'a Shape,
    z: Vec<usize>,
    x: Vec<usize>,
    y: Vec<usize>,
    inner: usize,
    outer: usize,
}

impl<'a> FactorCursor<'a> {
    fn new(shape: &'a Shape, s1: &'a Shape, s2: &'a Shape, node: usize) -> Self {
        let k = shape.rank();
        let mut c = FactorCursor {
            shape,
            s1,
            s2,
            z: vec![0; k],
            x: vec![0; k],
            y: vec![0; k],
            inner: 0,
            outer: 0,
        };
        shape.coords_into(node, &mut c.z);
        c.split();
        c
    }

    /// Re-derive `x`, `y` and both factor indices from `z`.
    fn split(&mut self) {
        self.inner = 0;
        self.outer = 0;
        for i in 0..self.z.len() {
            let l1 = self.s1.len(i);
            let (y, x) = (self.z[i] / l1, self.z[i] % l1);
            let xr = if y.is_multiple_of(2) { x } else { l1 - 1 - x };
            // audit:allow(CM-A009): the row-major index of x' in M₁, below s1.nodes()
            self.inner = self.inner * l1 + xr;
            // audit:allow(CM-A009): the row-major index of y in M₂, below s2.nodes()
            self.outer = self.outer * self.s2.len(i) + y;
            self.x[i] = x;
            self.y[i] = y;
        }
    }

    /// Step to the next node in row-major order.
    fn advance(&mut self) {
        let last = self.z.len() - 1;
        if self.z[last] + 1 == self.shape.len(last) {
            self.shape.advance_coords(&mut self.z);
            self.split();
        } else if self.x[last] + 1 == self.s1.len(last) {
            // Into the next M₁ instance: y steps, the reflection keeps x'.
            self.z[last] += 1;
            self.x[last] = 0;
            self.y[last] += 1;
            self.outer += 1;
        } else {
            self.z[last] += 1;
            self.x[last] += 1;
            if self.y[last].is_multiple_of(2) {
                self.inner += 1;
            } else {
                self.inner -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_embedding::gray_mesh_embedding;
    use cubemesh_topology::Mesh;

    #[test]
    fn mesh_edge_index_matches_enumeration() {
        for dims in [
            vec![7usize],
            vec![3, 4],
            vec![1, 5, 1],
            vec![4, 3, 5],
            vec![2, 1, 3, 2],
        ] {
            let shape = Shape::new(&dims);
            let idx = MeshEdgeIndex::new(&shape);
            let mesh = Mesh::new(shape.clone());
            for (i, e) in mesh.edges().enumerate() {
                assert_eq!(idx.id(e.node, e.axis), i, "{dims:?}");
            }
            let assigned = idx.ids.iter().filter(|&&id| id != u32::MAX).count();
            assert_eq!(assigned, shape.mesh_edges(), "{dims:?}");
        }
    }

    #[test]
    fn corollary2_gray_times_gray_is_valid() {
        // (4x2) ⊙ (2x3) ⊇ 8x6.
        let s1 = Shape::new(&[4, 2]);
        let s2 = Shape::new(&[2, 3]);
        let e1 = gray_mesh_embedding(&s1);
        let e2 = gray_mesh_embedding(&s2);
        let shape = Shape::new(&[8, 6]);
        let emb = mesh_product_embedding(&shape, &s1, &e1, &s2, &e2);
        emb.verify().unwrap();
        let m = emb.metrics();
        assert_eq!(m.dilation, 1, "gray x gray stays dilation 1");
        assert_eq!(m.host_dim, e1.host().dim() + e2.host().dim());
    }

    #[test]
    fn corollary2_restriction_embeds_smaller_mesh() {
        // 3x3x23 inside (3x3x5) ⊙ (1x1x5) — the paper's extension example
        // (3x3x25 ⊇ 3x3x23), with the 3x3x5 factor Gray-coded here.
        let s1 = Shape::new(&[3, 3, 5]);
        let s2 = Shape::new(&[1, 1, 5]);
        let e1 = gray_mesh_embedding(&s1);
        let e2 = gray_mesh_embedding(&s2);
        let shape = Shape::new(&[3, 3, 23]);
        let emb = mesh_product_embedding(&shape, &s1, &e1, &s2, &e2);
        emb.verify().unwrap();
        assert_eq!(emb.metrics().dilation, 1);
        assert_eq!(emb.guest_nodes(), 207);
    }

    #[test]
    fn theorem3_metric_laws_hold_exactly() {
        // Factors with different dilation: Gray (d=1) x snake-ish… use two
        // Gray factors and check multiplicativity of expansion instead;
        // dilation/congestion maxima are exercised with the catalog in the
        // cross-crate integration tests.
        let s1 = Shape::new(&[3, 1]);
        let s2 = Shape::new(&[1, 5]);
        let e1 = gray_mesh_embedding(&s1);
        let e2 = gray_mesh_embedding(&s2);
        let shape = Shape::new(&[3, 5]);
        let emb = mesh_product_embedding(&shape, &s1, &e1, &s2, &e2);
        emb.verify().unwrap();
        let m = emb.metrics();
        assert_eq!(m.dilation, 1);
        assert_eq!(m.congestion, 1);
        assert!((emb.expansion() - e1.expansion() * e2.expansion()).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn oversize_target_rejected() {
        let s1 = Shape::new(&[2, 2]);
        let s2 = Shape::new(&[2, 2]);
        let e1 = gray_mesh_embedding(&s1);
        let e2 = gray_mesh_embedding(&s2);
        let shape = Shape::new(&[5, 4]);
        let _ = mesh_product_embedding(&shape, &s1, &e1, &s2, &e2);
    }
}
