//! Assembling a torus embedding from per-axis ring codes and an inner mesh
//! embedding (the constructive content of Lemmas 3 and 4).

use crate::axis::{AxisCode, Step};
use cubemesh_core::product::MeshEdgeIndex;
use cubemesh_embedding::{Embedding, PathRoutes};
use cubemesh_topology::{Hypercube, Shape, Torus, TorusEdge};

/// Build the wraparound-mesh embedding.
///
/// * `shape` — the torus axis lengths `ℓᵢ`;
/// * `codes` — one [`AxisCode`] per axis (halving or quartering);
/// * `inner` — an embedding of the inner mesh whose axis `i` has length
///   `codes[i].inner_len`.
///
/// The host cube has `inner.host().dim() + Σ cbitsᵢ` dimensions: the
/// inner embedding in the low bits and each axis' submesh bits above it.
/// Guest edges are enumerated in [`Torus::edges`] order.
pub fn build_torus_embedding(shape: &Shape, codes: &[AxisCode], inner: &Embedding) -> Embedding {
    let k = shape.rank();
    assert_eq!(codes.len(), k);
    for (i, code) in codes.iter().enumerate() {
        assert_eq!(code.len, shape.len(i), "axis {} code length mismatch", i);
    }
    let inner_shape = Shape::new(&codes.iter().map(|c| c.inner_len).collect::<Vec<_>>());
    assert_eq!(
        inner.guest_nodes(),
        inner_shape.nodes(),
        "inner embedding shape"
    );

    let n2 = inner.host().dim();
    // Submesh-bit fields, axis 0 topmost.
    let mut bit_offsets = vec![0u32; k];
    let mut acc = n2;
    for i in (0..k).rev() {
        bit_offsets[i] = acc;
        acc += codes[i].cbits;
    }
    let host = Hypercube::new(acc);
    let idx_inner = MeshEdgeIndex::new(&inner_shape);

    let torus = Torus::new(shape.clone());

    // Node map.
    let mut w = vec![0usize; k];
    let mut map = vec![0u64; shape.nodes()];
    for z in shape.iter_coords() {
        let mut cfield = 0u64;
        for i in 0..k {
            let (c, wi) = codes[i].pos[z[i]];
            cfield |= (c as u64) << bit_offsets[i];
            w[i] = wi;
        }
        map[shape.index(&z)] = cfield | inner.image(inner_shape.index(&w));
    }

    // Routes, in Torus::edges() order.
    let mut edges = Vec::with_capacity(torus.edge_count());
    let mut routes = PathRoutes::with_capacity(torus.edge_count(), torus.edge_count() * 3);
    let mut zc = vec![0usize; k];
    for e in torus.edges() {
        let (u, v) = torus.edge_endpoints(e);
        edges.push((u as u32, v as u32));
        let (axis, start) = match e {
            TorusEdge::Mesh(me) => {
                shape.coords_into(me.node, &mut zc);
                (me.axis, me.node)
            }
            TorusEdge::Wrap { node: _, axis } => {
                // The transition runs from ring position ℓ−1 to 0, i.e.
                // from `v` to `u`; assemble from `v` and reverse.
                shape.coords_into(v, &mut zc);
                (axis, v)
            }
        };
        let path = assemble_route(
            map[start],
            axis,
            &zc,
            codes,
            &inner_shape,
            inner,
            &idx_inner,
            &bit_offsets,
            n2,
        );
        match e {
            TorusEdge::Mesh(_) => {
                routes.push(&path);
            }
            TorusEdge::Wrap { .. } => {
                let rev: Vec<u64> = path.iter().rev().copied().collect();
                routes.push(&rev);
            }
        }
    }

    Embedding::new(shape.nodes(), edges, host, map, routes)
}

/// Walk the transition of `axis` at torus coordinates `z`, starting from
/// host address `start`.
#[allow(clippy::too_many_arguments)]
fn assemble_route(
    start: u64,
    axis: usize,
    z: &[usize],
    codes: &[AxisCode],
    inner_shape: &Shape,
    inner: &Embedding,
    idx_inner: &MeshEdgeIndex,
    bit_offsets: &[u32],
    n2: u32,
) -> Vec<u64> {
    let k = z.len();
    let mut wvec: Vec<usize> = (0..k).map(|i| codes[i].pos[z[i]].1).collect();
    let mut path = vec![start];
    let mut cur = start;
    let inner_mask = (1u64 << n2) - 1;
    for step in &codes[axis].trans[z[axis]] {
        match *step {
            Step::C { from, to } => {
                debug_assert_eq!(
                    (cur >> bit_offsets[axis]) & ((1 << codes[axis].cbits) - 1),
                    from as u64
                );
                cur ^= ((from ^ to) as u64) << bit_offsets[axis];
                path.push(cur);
            }
            Step::M2 { from, to } => {
                debug_assert_eq!(wvec[axis], from);
                // Inner-mesh edge between wvec and wvec±e_axis.
                let lo = from.min(to);
                let mut wlo = wvec.clone();
                wlo[axis] = lo;
                let edge_id = idx_inner.id(inner_shape.index(&wlo), axis);
                let route = inner.route(edge_id);
                let cfields = cur & !inner_mask;
                if from < to {
                    for &r in &route[1..] {
                        cur = cfields | r;
                        path.push(cur);
                    }
                } else {
                    for &r in route[..route.len() - 1].iter().rev() {
                        cur = cfields | r;
                        path.push(cur);
                    }
                }
                wvec[axis] = to;
            }
            Step::Jump {
                w_from,
                w_to,
                c_from,
                c_to,
            } => {
                debug_assert_eq!(wvec[axis], w_from);
                debug_assert_eq!(
                    (cur >> bit_offsets[axis]) & ((1 << codes[axis].cbits) - 1),
                    c_from as u64
                );
                let cmask = ((1u64 << codes[axis].cbits) - 1) << bit_offsets[axis];
                let mut wnew = wvec.clone();
                wnew[axis] = w_to;
                let target = (cur & !inner_mask & !cmask)
                    | ((c_to as u64) << bit_offsets[axis])
                    | inner.image(inner_shape.index(&wnew));
                for step in cubemesh_embedding::router::canonical_path(cur, target)
                    .into_iter()
                    .skip(1)
                {
                    path.push(step);
                }
                cur = target;
                wvec[axis] = w_to;
            }
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::{axis_half, axis_quarter};
    use cubemesh_embedding::gray_mesh_embedding;

    fn build_half(dims: &[usize]) -> Embedding {
        let shape = Shape::new(dims);
        let codes: Vec<AxisCode> = dims.iter().map(|&l| axis_half(l)).collect();
        let inner_shape = Shape::new(&codes.iter().map(|c| c.inner_len).collect::<Vec<_>>());
        let inner = gray_mesh_embedding(&inner_shape);
        build_torus_embedding(&shape, &codes, &inner)
    }

    fn build_quarter(dims: &[usize]) -> Embedding {
        let shape = Shape::new(dims);
        let codes: Vec<AxisCode> = dims.iter().map(|&l| axis_quarter(l)).collect();
        let inner_shape = Shape::new(&codes.iter().map(|c| c.inner_len).collect::<Vec<_>>());
        let inner = gray_mesh_embedding(&inner_shape);
        build_torus_embedding(&shape, &codes, &inner)
    }

    #[test]
    fn even_tori_embed_at_inner_dilation() {
        for dims in [vec![4usize, 6], vec![8, 2], vec![6, 6, 4], vec![10]] {
            let e = build_half(&dims);
            e.verify()
                .unwrap_or_else(|err| panic!("{:?}: {}", dims, err));
            let m = e.metrics();
            assert_eq!(m.dilation, 1, "{:?} (gray inner, all even)", dims);
        }
    }

    #[test]
    fn odd_axes_pay_at_most_one_extra() {
        for dims in [vec![5usize, 6], vec![7, 7], vec![3, 5, 7], vec![9]] {
            let e = build_half(&dims);
            e.verify()
                .unwrap_or_else(|err| panic!("{:?}: {}", dims, err));
            let m = e.metrics();
            assert!(m.dilation <= 2, "{:?} dilation {}", dims, m.dilation);
        }
    }

    #[test]
    fn quartering_tori_verify() {
        for dims in [vec![8usize, 12], vec![6, 10], vec![7, 9], vec![12]] {
            let e = build_quarter(&dims);
            e.verify()
                .unwrap_or_else(|err| panic!("{:?}: {}", dims, err));
            let m = e.metrics();
            assert!(m.dilation <= 2, "{:?} dilation {}", dims, m.dilation);
        }
    }

    #[test]
    fn ring_embeddings_match_gray_ring_quality() {
        // Even rings: dilation 1 (compare cubemesh-gray's even_ring_code).
        for len in [6usize, 8, 14, 16] {
            let e = build_half(&[len]);
            e.verify().unwrap();
            assert_eq!(e.metrics().dilation, 1, "ring {}", len);
        }
        // Odd rings: dilation 2, the optimum for odd cycles in bipartite
        // hosts.
        for len in [5usize, 7, 9] {
            let e = build_half(&[len]);
            e.verify().unwrap();
            assert_eq!(e.metrics().dilation, 2, "ring {}", len);
        }
    }

    #[test]
    fn torus_edge_count_and_injectivity() {
        let e = build_half(&[5, 6]);
        assert_eq!(e.edge_count(), Shape::new(&[5, 6]).torus_edges());
        e.verify().unwrap();
    }
}
