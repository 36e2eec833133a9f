//! The [`Embedding`] type: a guest graph, a host cube, a node map, routes.

use crate::builders::{MeshEdgeIter, MeshEdgeView};
use crate::route::{self, HopRoutes, PathRoutes, RouteSet};
use crate::verify::{self, VerifyError};
use cubemesh_topology::{Hypercube, Shape};
use std::borrow::Cow;
use std::ops::Range;

/// The guest graph's edge set: either a materialized list (irregular
/// guests — tori, contracted graphs, test fixtures) or an implicit
/// [`MeshEdgeView`] that computes the canonical mesh enumeration from the
/// shape on demand. Edge *indices* are identical either way, so routes
/// line up across both representations.
#[derive(Clone, Debug)]
pub enum GuestEdges {
    /// Materialized endpoint pairs, in whatever order the builder chose.
    Explicit(Vec<(u32, u32)>),
    /// The canonical mesh enumeration, derived from the shape on the fly.
    Mesh(MeshEdgeView),
}

impl GuestEdges {
    /// Number of guest edges.
    #[inline]
    pub fn count(&self) -> usize {
        match self {
            GuestEdges::Explicit(v) => v.len(),
            GuestEdges::Mesh(view) => view.edge_count(),
        }
    }

    /// Iterate every edge as `(u, v)` endpoint indices, in edge-id order.
    pub fn iter(&self) -> GuestEdgeIter<'_> {
        match self {
            GuestEdges::Explicit(v) => GuestEdgeIter::Explicit(v.iter()),
            GuestEdges::Mesh(view) => GuestEdgeIter::Mesh(view.iter()),
        }
    }

    /// The guest mesh shape, when the edges are an implicit mesh view.
    pub fn mesh_shape(&self) -> Option<&Shape> {
        match self {
            GuestEdges::Explicit(_) => None,
            GuestEdges::Mesh(view) => Some(view.shape()),
        }
    }

    /// Materialize the edge list (allocates; prefer [`GuestEdges::iter`]
    /// on hot paths).
    pub fn to_vec(&self) -> Vec<(u32, u32)> {
        self.iter().collect()
    }

    /// Split the edge space into at most `parts` contiguous chunks, each
    /// a `(first_edge_id, iterator)` pair covering a dense id range —
    /// what parallel metrics/verify shard over. Mesh views split at node
    /// boundaries (edge ids stay dense via the closed-form
    /// [`MeshEdgeView::edges_before_node`]); explicit lists split by
    /// index.
    pub fn chunks(&self, parts: usize) -> Vec<(usize, GuestEdgeIter<'_>)> {
        let parts = parts.max(1);
        match self {
            GuestEdges::Explicit(v) => {
                if v.is_empty() {
                    return vec![(0, GuestEdgeIter::Explicit(v.iter()))];
                }
                let chunk = v.len().div_ceil(parts);
                (0..v.len())
                    .step_by(chunk)
                    .map(|lo| {
                        let hi = (lo + chunk).min(v.len());
                        (lo, GuestEdgeIter::Explicit(v[lo..hi].iter()))
                    })
                    .collect()
            }
            GuestEdges::Mesh(view) => {
                let nodes = view.shape().nodes();
                let chunk = nodes.div_ceil(parts).max(1);
                let mut out = Vec::new();
                let mut lo = 0usize;
                while lo < nodes {
                    let hi = (lo + chunk).min(nodes);
                    out.push((
                        view.edges_before_node(lo),
                        GuestEdgeIter::Mesh(view.iter_nodes(lo..hi)),
                    ));
                    lo = hi;
                }
                if out.is_empty() {
                    out.push((0, GuestEdgeIter::Mesh(view.iter_nodes(0..nodes))));
                }
                out
            }
        }
    }

    /// Iterate the edges of a node sub-range for mesh guests; `None` for
    /// explicit guests (whose edges have no node-locality guarantee).
    pub fn mesh_iter_nodes(&self, nodes: Range<usize>) -> Option<MeshEdgeIter<'_>> {
        match self {
            GuestEdges::Explicit(_) => None,
            GuestEdges::Mesh(view) => Some(view.iter_nodes(nodes)),
        }
    }
}

/// Iterator over a [`GuestEdges`] (or a chunk of one).
#[derive(Clone)]
pub enum GuestEdgeIter<'a> {
    /// Over a materialized slice.
    Explicit(std::slice::Iter<'a, (u32, u32)>),
    /// Over an implicit mesh view.
    Mesh(MeshEdgeIter<'a>),
}

impl Iterator for GuestEdgeIter<'_> {
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        match self {
            GuestEdgeIter::Explicit(it) => it.next().copied(),
            GuestEdgeIter::Mesh(it) => it.next(),
        }
    }
}

/// A one-to-one embedding `φ : G → Q_n` with explicit edge routes
/// (Definition 1 of the paper).
///
/// The guest graph is stored as its node count plus a [`GuestEdges`]:
/// mesh guests carry their *shape* (edges computed on demand in the
/// canonical [`cubemesh_topology::Mesh::edges`] order), irregular guests
/// a materialized list. Route indices line up with edge ids across
/// crates either way. Routes of a mesh guest may be stored in hop form
/// (see [`crate::route`]); every reader goes through [`Embedding::route`]
/// or [`Embedding::route_paths`], which decode either form.
#[derive(Clone, Debug)]
pub struct Embedding {
    guest_nodes: usize,
    guest_edges: GuestEdges,
    host: Hypercube,
    map: Vec<u64>,
    routes: RouteSet,
}

impl Embedding {
    /// Assemble an embedding from parts with a materialized edge list,
    /// whose routes are node paths. Cheap structural checks only (lengths
    /// agree); semantic validation is [`Embedding::verify`].
    ///
    /// # Panics
    /// Panics if `map.len() != guest_nodes` or `routes.len()` differs from
    /// the edge count.
    pub fn new(
        guest_nodes: usize,
        guest_edges: Vec<(u32, u32)>,
        host: Hypercube,
        map: Vec<u64>,
        routes: PathRoutes,
    ) -> Self {
        Embedding::from_guest(
            guest_nodes,
            GuestEdges::Explicit(guest_edges),
            host,
            map,
            routes,
        )
    }

    /// Assemble a mesh embedding whose guest edges are the implicit
    /// canonical enumeration of `shape` — no edge list is materialized.
    ///
    /// # Panics
    /// Panics if `map.len() != shape.nodes()` or `routes.len()` differs
    /// from the mesh edge count.
    pub fn new_mesh(
        shape: &Shape,
        host: Hypercube,
        map: Vec<u64>,
        routes: impl Into<RouteSet>,
    ) -> Self {
        Embedding::from_guest(
            shape.nodes(),
            GuestEdges::Mesh(MeshEdgeView::new(shape)),
            host,
            map,
            routes,
        )
    }

    /// Assemble an embedding from parts with any guest representation.
    ///
    /// # Panics
    /// Panics if `map.len() != guest_nodes`, if `routes.len()` differs
    /// from the edge count, or if hop-form routes come with an explicit
    /// edge list (they decode against the mesh enumeration only).
    pub fn from_guest(
        guest_nodes: usize,
        guest_edges: GuestEdges,
        host: Hypercube,
        map: Vec<u64>,
        routes: impl Into<RouteSet>,
    ) -> Self {
        let routes = routes.into();
        assert_eq!(map.len(), guest_nodes, "map length != node count");
        assert_eq!(
            routes.len(),
            guest_edges.count(),
            "route count != edge count"
        );
        assert_hop_guest(&guest_edges, &routes);
        Embedding {
            guest_nodes,
            guest_edges,
            host,
            map,
            routes,
        }
    }

    /// Number of guest nodes.
    #[inline]
    pub fn guest_nodes(&self) -> usize {
        self.guest_nodes
    }

    /// The guest edge set (implicit or materialized).
    #[inline]
    pub fn edges(&self) -> &GuestEdges {
        &self.guest_edges
    }

    /// Number of guest edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.guest_edges.count()
    }

    /// Iterate guest edges in edge-id order (each edge once; the
    /// canonical enumeration order of whichever builder produced this
    /// embedding).
    pub fn edges_iter(&self) -> GuestEdgeIter<'_> {
        self.guest_edges.iter()
    }

    /// Materialize the guest edge list (allocates; prefer
    /// [`Embedding::edges_iter`] on hot paths).
    pub fn edges_vec(&self) -> Vec<(u32, u32)> {
        self.guest_edges.to_vec()
    }

    /// The guest mesh shape, when the guest is an implicit mesh.
    pub fn guest_shape(&self) -> Option<&Shape> {
        self.guest_edges.mesh_shape()
    }

    /// The host cube.
    #[inline]
    pub fn host(&self) -> Hypercube {
        self.host
    }

    /// The node map `φ`.
    #[inline]
    pub fn map(&self) -> &[u64] {
        &self.map
    }

    /// Image of guest node `v`.
    #[inline]
    pub fn image(&self, v: usize) -> u64 {
        self.map[v]
    }

    /// The stored routes, parallel to the guest edge enumeration. Read
    /// individual routes through [`Embedding::route`]: a hop-form set
    /// only decodes against the map.
    #[inline]
    pub fn routes(&self) -> &RouteSet {
        &self.routes
    }

    /// The endpoints of guest edge `i`, `None` past the last edge:
    /// `O(rank · log nodes)` for a mesh guest.
    fn edge(&self, i: usize) -> Option<(u32, u32)> {
        match &self.guest_edges {
            GuestEdges::Explicit(v) => v.get(i).copied(),
            GuestEdges::Mesh(view) => view.edge(i),
        }
    }

    /// Route `i` as an owned node path, endpoints included. A hop-form
    /// route is decoded from its edge's images and its stored
    /// dimensions.
    ///
    /// # Panics
    /// Panics if `i` is not an edge id.
    pub fn route(&self, i: usize) -> Vec<u64> {
        assert!(i < self.edge_count(), "edge {i} out of range");
        match &self.routes {
            RouteSet::Paths(paths) => paths.path(i).unwrap_or_default().to_vec(),
            RouteSet::Hops(hops) => {
                let (u, v) = self.edge(i).unwrap_or_default();
                let interior = hops.interior(i).unwrap_or_default();
                let mut path = Vec::with_capacity(interior.len() + 2);
                route::decode_into(
                    self.map[u as usize],
                    interior,
                    self.map[v as usize],
                    &mut path,
                );
                path
            }
        }
    }

    /// Every route in edge order, decoded into one reused buffer.
    pub fn route_paths(&self) -> RoutePaths<'_> {
        RoutePaths {
            emb: self,
            edges: self.guest_edges.iter(),
            next: 0,
            buf: Vec::new(),
        }
    }

    /// The routes in hop form: borrowed when stored so, otherwise
    /// converted from the stored paths ([`HopRoutes::from_paths`]), which
    /// is exact for routes that run between their edge's images — what
    /// the product constructions read it for.
    pub fn hop_routes(&self) -> Cow<'_, HopRoutes> {
        match &self.routes {
            RouteSet::Hops(hops) => Cow::Borrowed(hops),
            RouteSet::Paths(paths) => Cow::Owned(HopRoutes::from_paths(paths)),
        }
    }

    /// Expansion `|V(H)| / |V(G)|` (Definition 1).
    #[inline]
    pub fn expansion(&self) -> f64 {
        self.host.nodes() as f64 / self.guest_nodes as f64
    }

    /// `true` if the host is the *minimal* cube for this guest
    /// (`n = ⌈log₂ |V(G)|⌉`), i.e. the embedding has minimal expansion.
    #[inline]
    pub fn is_minimal_expansion(&self) -> bool {
        self.host.dim() == cubemesh_topology::cube_dim(self.guest_nodes as u64)
    }

    /// Full semantic validation: injectivity, address ranges, and that every
    /// route is a path in the cube connecting the images of its edge's
    /// endpoints.
    pub fn verify(&self) -> Result<(), VerifyError> {
        verify::verify_embedding(self)
    }

    /// Compute all metrics (never fails; call [`Self::verify`] first if the
    /// embedding comes from untrusted construction code).
    pub fn metrics(&self) -> crate::metrics::Metrics {
        crate::metrics::metrics(self)
    }

    /// Replace the routes (e.g. re-route with a different strategy). The new
    /// route set must have one route per guest edge.
    pub fn set_routes(&mut self, routes: impl Into<RouteSet>) {
        let routes = routes.into();
        assert_eq!(routes.len(), self.guest_edges.count());
        assert_hop_guest(&self.guest_edges, &routes);
        self.routes = routes;
    }

    /// Re-declare the guest as the mesh of `shape`, keeping map and
    /// routes verbatim. The new shape must have the same node count and
    /// the same edge count as the current guest — which is exactly the
    /// case for rank lifts (adding/removing length-1 axes changes neither
    /// linear indices nor the canonical edge enumeration).
    ///
    /// # Panics
    /// Panics if node or edge counts disagree.
    pub fn with_mesh_guest(self, shape: &Shape) -> Embedding {
        let view = MeshEdgeView::new(shape);
        assert_eq!(
            self.guest_nodes,
            shape.nodes(),
            "mesh guest must preserve nodes"
        );
        assert_eq!(
            self.guest_edges.count(),
            view.edge_count(),
            "mesh guest must preserve edges"
        );
        Embedding {
            guest_edges: GuestEdges::Mesh(view),
            ..self
        }
    }

    /// Decompose into parts (used by composition code in `cubemesh-core`).
    pub fn into_parts(self) -> (usize, GuestEdges, Hypercube, Vec<u64>, RouteSet) {
        (
            self.guest_nodes,
            self.guest_edges,
            self.host,
            self.map,
            self.routes,
        )
    }
}

/// Hop-form routes decode against the mesh enumeration, whose endpoints
/// are always in range.
fn assert_hop_guest(guest: &GuestEdges, routes: &RouteSet) {
    assert!(
        matches!(routes, RouteSet::Paths(_)) || guest.mesh_shape().is_some(),
        "hop-form routes need a mesh guest"
    );
}

/// Every route of an embedding in edge order, as node paths decoded into
/// one reused buffer ([`Embedding::route_paths`]). A lending cursor: each
/// path borrows the buffer until the next call.
pub struct RoutePaths<'a> {
    emb: &'a Embedding,
    edges: GuestEdgeIter<'a>,
    next: usize,
    buf: Vec<u64>,
}

impl RoutePaths<'_> {
    /// The next route's node path, endpoints included; `None` after the
    /// last.
    pub fn next_path(&mut self) -> Option<&[u64]> {
        let (u, v) = self.edges.next()?;
        let i = self.next;
        self.next += 1;
        match &self.emb.routes {
            RouteSet::Paths(paths) => paths.path(i),
            RouteSet::Hops(hops) => {
                let map = &self.emb.map;
                let interior = hops.interior(i)?;
                self.buf.clear();
                route::decode_into(map[u as usize], interior, map[v as usize], &mut self.buf);
                Some(&self.buf)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Embedding {
        // Path 0-1-2 into Q_2: 00, 01, 11.
        let mut routes = PathRoutes::new();
        routes.push(&[0b00, 0b01]);
        routes.push(&[0b01, 0b11]);
        Embedding::new(
            3,
            vec![(0, 1), (1, 2)],
            Hypercube::new(2),
            vec![0b00, 0b01, 0b11],
            routes,
        )
    }

    #[test]
    fn accessors() {
        let e = tiny();
        assert_eq!(e.guest_nodes(), 3);
        assert_eq!(e.image(2), 0b11);
        assert_eq!(e.expansion(), 4.0 / 3.0);
        assert!(e.is_minimal_expansion());
        assert!(e.verify().is_ok());
        assert_eq!(e.edge_count(), 2);
        assert_eq!(e.edges_vec(), vec![(0, 1), (1, 2)]);
        assert!(e.guest_shape().is_none());
    }

    #[test]
    fn mesh_guest_matches_explicit() {
        let shape = Shape::new(&[2, 3]);
        let mesh = cubemesh_topology::Mesh::new(shape.clone());
        let explicit = crate::builders::mesh_edge_list(&mesh);
        let mut routes = PathRoutes::new();
        let map: Vec<u64> = (0..6).collect();
        for &(u, v) in &explicit {
            routes.push(&[map[u as usize], map[v as usize]]);
        }
        let e = Embedding::new_mesh(&shape, Hypercube::new(3), map, routes);
        assert_eq!(e.edge_count(), explicit.len());
        assert_eq!(e.edges_vec(), explicit);
        assert_eq!(e.guest_shape(), Some(&shape));
    }

    #[test]
    fn chunked_edges_cover_everything_in_order() {
        let shape = Shape::new(&[3, 4]);
        let view = MeshEdgeView::new(&shape);
        let guest = GuestEdges::Mesh(view);
        for parts in [1, 2, 3, 7, 100] {
            let mut ids = Vec::new();
            let mut all = Vec::new();
            for (first_id, it) in guest.chunks(parts) {
                ids.push(first_id);
                all.extend(it);
            }
            assert_eq!(all, guest.to_vec(), "parts {}", parts);
            assert!(ids.windows(2).all(|w| w[0] <= w[1]));
        }
        let explicit = GuestEdges::Explicit(guest.to_vec());
        for parts in [1, 2, 5] {
            let mut all = Vec::new();
            for (_, it) in explicit.chunks(parts) {
                all.extend(it);
            }
            assert_eq!(all, guest.to_vec());
        }
    }

    #[test]
    fn with_mesh_guest_relabels() {
        let shape2 = Shape::new(&[2, 3]);
        let e = crate::builders::gray_mesh_embedding(&shape2);
        let shape3 = Shape::new(&[2, 1, 3]);
        let lifted = e.clone().with_mesh_guest(&shape3);
        assert_eq!(lifted.edges_vec(), e.edges_vec());
        assert_eq!(lifted.guest_shape(), Some(&shape3));
        lifted.verify().unwrap();
    }

    #[test]
    #[should_panic]
    fn mismatched_routes_rejected() {
        Embedding::new(
            2,
            vec![(0, 1)],
            Hypercube::new(1),
            vec![0, 1],
            PathRoutes::new(),
        );
    }
}
