//! Axis contraction (Lemma 5): map blocks of consecutive coordinates onto
//! one node of a base embedding.

use cubemesh_core::product::MeshEdgeIndex;
use cubemesh_embedding::{Embedding, PathRoutes};
use cubemesh_topology::{Mesh, Shape};

/// The optimal (information-theoretic) load-factor for `guest_nodes` on an
/// `n`-cube: `⌈|V(G)| / 2ⁿ⌉`.
pub fn optimal_load_factor(guest_nodes: usize, host_dim: u32) -> u64 {
    (guest_nodes as u64).div_ceil(1u64 << host_dim)
}

/// Lemma 5: contract an `ℓ₁ℓ′₁ × ⋯ × ℓ_kℓ′_k` mesh onto a base embedding
/// of the `ℓ₁ × ⋯ × ℓ_k` mesh by the block map `zᵢ ↦ ⌊zᵢ/ℓ′ᵢ⌋`.
///
/// The result is a many-to-one embedding with
/// * load-factor `= Π ℓ′ᵢ` exactly (blocks are full),
/// * dilation = the base dilation (block-internal edges collapse to
///   zero-length routes),
/// * congestion of axis-`i` host edges ≤ `cᵢ · Πⱼ≠ᵢ ℓ′ⱼ`.
///
/// Validate with [`cubemesh_embedding::verify_many_to_one`] — the map is
/// intentionally non-injective.
pub fn contract(base_shape: &Shape, base: &Embedding, factors: &[usize]) -> Embedding {
    let k = base_shape.rank();
    assert_eq!(factors.len(), k);
    assert!(factors.iter().all(|&f| f >= 1));
    assert_eq!(base.guest_nodes(), base_shape.nodes());

    let big_dims: Vec<usize> = base_shape
        .dims()
        .iter()
        .zip(factors)
        .map(|(&l, &f)| l * f)
        .collect();
    let big = Shape::new(&big_dims);
    let mesh = Mesh::new(big.clone());
    let idx = MeshEdgeIndex::new(base_shape);

    let mut q = vec![0usize; k];
    let mut map = vec![0u64; big.nodes()];
    for z in big.iter_coords() {
        for i in 0..k {
            q[i] = z[i] / factors[i];
        }
        map[big.index(&z)] = base.image(base_shape.index(&q));
    }

    let mut edges = Vec::with_capacity(mesh.edge_count());
    let mut routes = PathRoutes::with_capacity(mesh.edge_count(), mesh.edge_count() * 3);
    for z in big.iter_coords() {
        let node = big.index(&z) as u32;
        for axis in 0..k {
            if z[axis] + 1 >= big.len(axis) {
                continue;
            }
            let stride: usize = big.dims()[axis + 1..].iter().product();
            let next = big.index(&z) + stride;
            edges.push((node, next as u32));
            for i in 0..k {
                q[i] = z[i] / factors[i];
            }
            if (z[axis] + 1) / factors[axis] == q[axis] {
                // Block-internal edge: both endpoints share a processor.
                routes.push(&[map[big.index(&z)]]);
            } else {
                // Crosses a block boundary: reuse the base route.
                let base_edge = idx.id(base_shape.index(&q), axis);
                routes.push(&base.route(base_edge));
            }
        }
    }
    Embedding::new(big.nodes(), edges, base.host(), map, routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_embedding::{gray_mesh_embedding, load_factor, verify_many_to_one};

    #[test]
    fn corollary4_gray_contraction() {
        // ℓᵢ2^{nᵢ} mesh into the Σnᵢ cube with dilation one: contract the
        // Gray embedding of the 2^{nᵢ} mesh. 3·4 x 2·8 = 12x16 onto Q7.
        let base_shape = Shape::new(&[4, 8]);
        let base = gray_mesh_embedding(&base_shape);
        let emb = contract(&base_shape, &base, &[3, 2]);
        verify_many_to_one(&emb).unwrap();
        assert_eq!(emb.guest_nodes(), 12 * 16);
        assert_eq!(load_factor(emb.map(), emb.host()), 6);
        assert_eq!(optimal_load_factor(12 * 16, 5), 6);
        let m = emb.metrics();
        assert_eq!(m.dilation, 1);
        // Congestion bound of Corollary 4: (Πℓᵢ)/min ℓᵢ = 6/2 = 3.
        assert!(m.congestion <= 3, "congestion {}", m.congestion);
    }

    #[test]
    fn lemma5_congestion_bound_per_axis() {
        // factors (f1, f2): axis-1 host edges carry ≤ c₁·f₂ and vice
        // versa; overall ≤ max(fᵢ co-products). Base is Gray: c = 1.
        for factors in [[2usize, 5], [4, 1], [3, 3]] {
            let base_shape = Shape::new(&[4, 4]);
            let base = gray_mesh_embedding(&base_shape);
            let emb = contract(&base_shape, &base, &factors);
            verify_many_to_one(&emb).unwrap();
            let m = emb.metrics();
            let bound = *factors.iter().max().unwrap() as u32;
            assert!(
                m.congestion <= bound,
                "factors {:?}: congestion {} > {}",
                factors,
                m.congestion,
                bound
            );
            assert_eq!(
                load_factor(emb.map(), emb.host()) as usize,
                factors.iter().product::<usize>()
            );
            assert_eq!(m.dilation, 1);
        }
    }

    #[test]
    fn contraction_of_dilation2_base_keeps_dilation() {
        // Base 3x5 direct embedding (d = 2): contraction preserves it.
        let base_shape = Shape::new(&[3, 5]);
        let base = cubemesh_search::catalog_embedding(&base_shape).unwrap();
        let emb = contract(&base_shape, &base, &[2, 2]);
        verify_many_to_one(&emb).unwrap();
        let m = emb.metrics();
        assert!(m.dilation <= 2);
        assert_eq!(load_factor(emb.map(), emb.host()), 4);
    }

    #[test]
    fn unit_factors_are_identity() {
        let base_shape = Shape::new(&[3, 4]);
        let base = gray_mesh_embedding(&base_shape);
        let emb = contract(&base_shape, &base, &[1, 1]);
        verify_many_to_one(&emb).unwrap();
        assert_eq!(emb.map(), base.map());
        assert_eq!(load_factor(emb.map(), emb.host()), 1);
    }
}
