//! Convenience constructors for mesh embeddings, plus the implicit
//! (index-computable) mesh edge enumeration every hot path iterates.
//!
//! The canonical mesh edge order — nodes in row-major order, axes
//! ascending, skipping high-boundary nodes — is pure arithmetic on a
//! [`Shape`], so paper-scale guests never need a materialized
//! `Vec<(u32, u32)>`: a [`MeshEdgeView`] yields endpoints on the fly,
//! knows how many edges precede any node in closed form (which is what
//! lets metrics/verify/construction shard the edge space over workers at
//! node boundaries), and costs `O(rank)` memory.

use crate::map::Embedding;
use crate::route::RouteSet;
use crate::router::{route_all, RouteStrategy};
use cubemesh_gray::{gray_fill_run, gray_mesh_address, AxisLayout};
use cubemesh_pool::run_each;
use cubemesh_topology::{Hypercube, Mesh, Shape};
use std::ops::Range;

/// Below this many guest nodes a mesh sweep stays sequential: thread
/// spawn/join overhead would dominate, and censuses construct thousands
/// of such small shapes in a tight loop.
pub const PAR_MIN_NODES: usize = 1 << 15;

/// Contiguous node ranges for a parallel mesh sweep: one per pool
/// worker, or a single whole-range chunk when the sweep is too small (or
/// the worker pool has one thread) to be worth fanning out.
pub fn node_chunks(nodes: usize) -> Vec<Range<usize>> {
    let threads = cubemesh_pool::effective_threads();
    if threads <= 1 || nodes < PAR_MIN_NODES {
        return std::iter::once(0..nodes).collect();
    }
    let chunk = nodes.div_ceil(threads);
    (0..threads)
        .map(|w| w.saturating_mul(chunk).min(nodes)..(w + 1).saturating_mul(chunk).min(nodes))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Cut `out` into consecutive pieces ending at the ascending offsets
/// `ends` (the last end is normally `out.len()`).
///
/// # Panics
/// Panics if an end is below the one before it or past `out.len()`.
pub fn split_at_ends<T>(out: &mut [T], ends: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    let mut pieces = Vec::new();
    let mut rest = out;
    let mut at = 0;
    for end in ends {
        let (piece, tail) = std::mem::take(&mut rest).split_at_mut(end - at);
        pieces.push(piece);
        rest = tail;
        at = end;
    }
    pieces
}

/// The [`node_chunks`] of a `nodes`-node sweep, each with its piece of
/// the pre-sized buffer `out`: chunk `r` owns `out[at(r.start)..at(r.end)]`,
/// where `at` maps a node boundary to its buffer offset (ascending, with
/// `at(0) == 0`). A worker fills its piece in place, so every element is
/// written once.
fn node_chunk_pieces<T>(
    out: &mut [T],
    nodes: usize,
    at: impl Fn(usize) -> usize,
) -> Vec<(Range<usize>, &mut [T])> {
    let chunks = node_chunks(nodes);
    let pieces = split_at_ends(out, chunks.iter().map(|r| at(r.end)));
    chunks.into_iter().zip(pieces).collect()
}

/// The canonical mesh edge enumeration as an implicit, index-computable
/// view: edge endpoints are derived from the shape on demand instead of
/// being stored. Replaces materialized [`mesh_edge_list`] vectors in the
/// hot construct/metrics/verify pipeline.
#[derive(Clone, Debug)]
pub struct MeshEdgeView {
    shape: Shape,
    /// Row-major stride of each axis (product of later axis lengths).
    strides: Vec<usize>,
    edges: usize,
}

impl MeshEdgeView {
    /// Build the view for a mesh shape. `O(rank)` work and memory.
    pub fn new(shape: &Shape) -> Self {
        let rank = shape.rank();
        let mut strides = vec![1usize; rank];
        for a in (0..rank.saturating_sub(1)).rev() {
            strides[a] = strides[a + 1] * shape.len(a + 1);
        }
        debug_assert!(
            shape.nodes() <= u32::MAX as usize,
            "mesh node indices must fit in u32"
        );
        MeshEdgeView {
            strides,
            edges: shape.mesh_edges(),
            shape: shape.clone(),
        }
    }

    /// The underlying mesh shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Row-major stride of `axis`.
    #[inline]
    pub fn stride(&self, axis: usize) -> usize {
        self.strides[axis]
    }

    /// Total number of mesh edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Number of edges whose lower endpoint precedes `node` in the
    /// canonical enumeration — in closed form, `O(rank)`. This is the
    /// edge-id offset of `node`'s first edge, which is what lets
    /// parallel sweeps align route indices across node-range chunks.
    pub fn edges_before_node(&self, node: usize) -> usize {
        let mut total = 0usize;
        for (a, &stride) in self.strides.iter().enumerate() {
            // Along axis `a`, node m carries an edge iff its coordinate
            // (m / stride) % len is below len - 1, i.e. m mod
            // (stride·len) < stride·(len − 1): count those m < node.
            let len = self.shape.len(a);
            let period = stride * len;
            let carry = stride * (len - 1);
            // audit:allow(CM-A009): carry < period, so (node/period)·carry <= node
            total += (node / period) * carry + (node % period).min(carry);
        }
        total
    }

    /// Iterate every edge as `(u, v)` linear-index endpoints, `u < v`,
    /// in canonical order.
    pub fn iter(&self) -> MeshEdgeIter<'_> {
        self.iter_nodes(0..self.shape.nodes())
    }

    /// Iterate only the edges whose lower endpoint lies in `nodes`
    /// (edge ids `edges_before_node(start)..edges_before_node(end)`).
    pub fn iter_nodes(&self, nodes: Range<usize>) -> MeshEdgeIter<'_> {
        let mut coords = vec![0usize; self.shape.rank()];
        if nodes.start > 0 && nodes.start < self.shape.nodes() {
            self.shape.coords_into(nodes.start, &mut coords);
        }
        MeshEdgeIter {
            view: self,
            coords,
            node: nodes.start,
            end: nodes.end.min(self.shape.nodes()),
            axis: 0,
        }
    }
}

/// Iterator over (a node range of) a [`MeshEdgeView`].
pub struct MeshEdgeIter<'a> {
    view: &'a MeshEdgeView,
    coords: Vec<usize>,
    node: usize,
    end: usize,
    axis: usize,
}

impl Iterator for MeshEdgeIter<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        let shape = &self.view.shape;
        let rank = shape.rank();
        while self.node < self.end {
            while self.axis < rank {
                let a = self.axis;
                self.axis += 1;
                if self.coords[a] + 1 < shape.len(a) {
                    return Some((self.node as u32, (self.node + self.view.strides[a]) as u32));
                }
            }
            self.axis = 0;
            self.node += 1;
            shape.advance_coords(&mut self.coords);
        }
        None
    }
}

/// The canonical edge list of a mesh, in [`Mesh::edges`] order, as index
/// pairs — the *materialized* form, for irregular-guest call sites and
/// routers that want a slice. Hot paths should use [`MeshEdgeView`].
pub fn mesh_edge_list(mesh: &Mesh) -> Vec<(u32, u32)> {
    let view = MeshEdgeView::new(mesh.shape());
    let mut out = Vec::with_capacity(view.edge_count());
    out.extend(view.iter());
    out
}

/// Fill the node map of `shape` by evaluating `f` on every coordinate
/// vector, fanning out over node-range chunks when the mesh is large.
pub fn fill_node_map(shape: &Shape, f: impl Fn(&[usize]) -> u64 + Sync) -> Vec<u64> {
    let nodes = shape.nodes();
    let mut map = vec![0u64; nodes];
    let pieces = node_chunk_pieces(&mut map, nodes, |node| node);
    run_each(pieces, |(range, out)| {
        let mut coords = vec![0usize; shape.rank()];
        shape.coords_into(range.start, &mut coords);
        for slot in out {
            *slot = f(&coords);
            shape.advance_coords(&mut coords);
        }
    });
    map
}

/// Build a mesh embedding from an address function, generating routes with
/// the given strategy.
///
/// The address function receives mesh coordinates and must return a node of
/// `host`; injectivity is *not* checked here (call
/// [`Embedding::verify`]).
pub fn mesh_embedding_from_fn(
    shape: &Shape,
    host: Hypercube,
    f: impl Fn(&[usize]) -> u64 + Sync,
    strategy: RouteStrategy,
) -> Embedding {
    let map = fill_node_map(shape, f);
    let edges = mesh_edge_list(&Mesh::new(shape.clone()));
    let routes = route_all(&map, &edges, host, strategy);
    Embedding::new_mesh(shape, host, map, routes)
}

/// Build a mesh embedding from an explicit node map (indexed in row-major
/// order), generating routes with the given strategy.
pub fn mesh_embedding_with_router(
    shape: &Shape,
    host: Hypercube,
    map: Vec<u64>,
    strategy: RouteStrategy,
) -> Embedding {
    assert_eq!(map.len(), shape.nodes());
    let edges = mesh_edge_list(&Mesh::new(shape.clone()));
    let routes = route_all(&map, &edges, host, strategy);
    Embedding::new_mesh(shape, host, map, routes)
}

/// The Gray node map filled in innermost-axis runs through the batch
/// kernel: along the last axis only that axis' Gray field changes, so a
/// whole run shares one `base` address and [`gray_fill_run`] writes it
/// without re-walking the coordinate vector per node. Byte-identical to
/// `fill_node_map(shape, |c| gray_mesh_address(layout, c))`.
fn gray_node_map(shape: &Shape, layout: &AxisLayout) -> Vec<u64> {
    let nodes = shape.nodes();
    let rank = shape.rank();
    if rank == 0 || nodes == 0 {
        return fill_node_map(shape, |c| gray_mesh_address(layout, c));
    }
    let last = shape.len(rank - 1);
    let shift = layout.bit_offset(rank - 1);
    let mut map = vec![0u64; nodes];
    let pieces = node_chunk_pieces(&mut map, nodes, |node| node);
    run_each(pieces, |(range, mut out)| {
        let mut coords = vec![0usize; rank];
        // A chunk boundary may fall mid-run; re-derive coordinates per
        // run start and emit the (possibly clipped) run in one call.
        let mut pos = range.start;
        while !out.is_empty() {
            shape.coords_into(pos, &mut coords);
            let x0 = coords[rank - 1];
            let run = (last - x0).min(out.len());
            let (head, rest) = out.split_at_mut(run);
            let base = gray_mesh_address(layout, &coords[..rank - 1]);
            gray_fill_run(head, x0 as u64, base, shift);
            pos += run;
            out = rest;
        }
    });
    map
}

/// The binary-reflected Gray-code embedding of §3.1: dilation 1,
/// congestion 1, host dimension `Σᵢ ⌈log₂ ℓᵢ⌉`.
///
/// This is the paper's method 1; its expansion is minimal exactly when
/// [`Shape::gray_is_minimal`] holds (Theorem 1 makes this the best any
/// dilation-one embedding can do). The map and the route arena are both
/// filled in parallel node-range chunks on large meshes.
pub fn gray_mesh_embedding(shape: &Shape) -> Embedding {
    let layout = AxisLayout::from_shape(shape);
    let host = Hypercube::new(layout.total_dim());
    let map = gray_node_map(shape, &layout);
    let view = MeshEdgeView::new(shape);

    // Every Gray route is the two-node path between adjacent addresses:
    // route `i` is `lanes[2i..2i + 2]`, so a node chunk owns the lanes of
    // the edges its nodes start.
    let mut lanes = vec![0u64; 2 * view.edge_count()];
    let pieces = node_chunk_pieces(&mut lanes, shape.nodes(), |node| {
        2 * view.edges_before_node(node)
    });
    run_each(pieces, |(range, out)| {
        for ((u, v), lane) in view.iter_nodes(range).zip(out.chunks_exact_mut(2)) {
            lane[0] = map[u as usize];
            lane[1] = map[v as usize];
        }
    });
    Embedding::new_mesh(shape, host, map, RouteSet::from_pairs(lanes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_embedding_is_dilation_one_congestion_one() {
        for dims in [vec![4usize, 8], vec![5, 6], vec![3, 5, 7], vec![2, 2, 2, 2]] {
            let shape = Shape::new(&dims);
            let e = gray_mesh_embedding(&shape);
            e.verify().unwrap();
            let m = e.metrics();
            assert_eq!(m.dilation, 1, "shape {:?}", dims);
            assert_eq!(m.congestion, 1, "shape {:?}", dims);
            assert_eq!(m.avg_dilation, 1.0);
            assert_eq!(m.host_dim, shape.gray_cube_dim());
        }
    }

    #[test]
    fn gray_expansion_matches_theory() {
        // 5x6x7: Gray needs 3+3+3 = 9 dims for 210 nodes -> expansion 512/210.
        let shape = Shape::new(&[5, 6, 7]);
        let e = gray_mesh_embedding(&shape);
        assert!((e.expansion() - 512.0 / 210.0).abs() < 1e-12);
        assert!(!e.metrics().is_minimal_expansion());

        // 3x3: minimal.
        let shape = Shape::new(&[3, 3]);
        let e = gray_mesh_embedding(&shape);
        assert!(e.metrics().is_minimal_expansion());
    }

    #[test]
    fn batched_gray_map_matches_generic_fill() {
        for dims in [vec![5usize, 3, 6], vec![1, 7], vec![2, 2, 2, 3], vec![9]] {
            let shape = Shape::new(&dims);
            let layout = AxisLayout::from_shape(&shape);
            let batched = gray_node_map(&shape, &layout);
            let generic = fill_node_map(&shape, |c| gray_mesh_address(&layout, c));
            assert_eq!(batched, generic, "shape {:?}", dims);
        }
    }

    #[test]
    fn from_fn_builder_roundtrip() {
        let shape = Shape::new(&[2, 3]);
        let host = Hypercube::new(3);
        // Identity-ish packing: linear index as address.
        let e = mesh_embedding_from_fn(
            &shape,
            host,
            |c| (c[0] * 3 + c[1]) as u64,
            RouteStrategy::Canonical,
        );
        e.verify().unwrap();
        assert_eq!(e.guest_nodes(), 6);
    }

    #[test]
    fn single_node_mesh_embeds_in_point_cube() {
        let shape = Shape::new(&[1, 1]);
        let e = gray_mesh_embedding(&shape);
        e.verify().unwrap();
        assert_eq!(e.host().dim(), 0);
        assert_eq!(e.metrics().dilation, 0);
    }

    #[test]
    fn view_matches_mesh_enumeration() {
        for dims in [
            vec![1usize],
            vec![7],
            vec![1, 1, 1],
            vec![3, 4],
            vec![3, 4, 5],
            vec![1, 6, 1, 2],
            vec![2, 2, 2, 2],
        ] {
            let shape = Shape::new(&dims);
            let mesh = Mesh::new(shape.clone());
            let view = MeshEdgeView::new(&shape);
            let expected: Vec<(u32, u32)> = mesh
                .edges()
                .map(|e| {
                    let (a, b) = mesh.edge_endpoints(e);
                    (a as u32, b as u32)
                })
                .collect();
            let got: Vec<(u32, u32)> = view.iter().collect();
            assert_eq!(got, expected, "shape {:?}", dims);
            assert_eq!(view.edge_count(), expected.len());
        }
    }

    #[test]
    fn edges_before_node_matches_enumeration() {
        let shape = Shape::new(&[3, 4, 5]);
        let view = MeshEdgeView::new(&shape);
        let all: Vec<(u32, u32)> = view.iter().collect();
        for node in 0..=shape.nodes() {
            let expect = all.iter().filter(|&&(u, _)| (u as usize) < node).count();
            assert_eq!(view.edges_before_node(node), expect, "node {}", node);
        }
    }

    #[test]
    fn iter_nodes_partitions_the_edge_space() {
        let shape = Shape::new(&[4, 3, 5]);
        let view = MeshEdgeView::new(&shape);
        let all: Vec<(u32, u32)> = view.iter().collect();
        for split in [1, 7, 29, 43, shape.nodes()] {
            let mut joined: Vec<(u32, u32)> = view.iter_nodes(0..split).collect();
            joined.extend(view.iter_nodes(split..shape.nodes()));
            assert_eq!(joined, all, "split {}", split);
            assert_eq!(
                view.iter_nodes(0..split).count(),
                view.edges_before_node(split)
            );
        }
    }
}
