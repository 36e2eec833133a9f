//! Boustrophedon (snake) linearization into the minimal cube.
//!
//! Walk the mesh in row-major order, reversing direction on the last axis
//! (and recursively on higher axes) so consecutive positions are mesh
//! neighbors; then place position `p` at Gray code `G(p)` in the minimal
//! cube. Expansion is always minimal and edges *along* the walk keep
//! dilation one, but an edge crossing the walk spans up to `Θ(ℓ_k)`
//! positions, so its dilation is unbounded — the classic failure mode that
//! motivates the paper's techniques.

use cubemesh_embedding::builders::mesh_edge_list;
use cubemesh_embedding::{Embedding, PathRoutes};
use cubemesh_gray::gray;
use cubemesh_topology::{cube_dim, Hypercube, Mesh, Shape};

/// Position of `coords` along the boustrophedon walk of `shape`.
///
/// Axis 0 is walked forward; each deeper axis reverses whenever the prefix
/// sum of higher-axis coordinates is odd, so positions `p` and `p+1` are
/// always mesh neighbors.
pub fn snake_position(shape: &Shape, coords: &[usize]) -> usize {
    let mut idx = 0usize;
    let mut parity = 0usize;
    for (axis, &c) in coords.iter().enumerate() {
        let len = shape.len(axis);
        let eff = if parity.is_multiple_of(2) {
            c
        } else {
            len - 1 - c
        };
        idx = idx * len + eff;
        parity += eff;
    }
    idx
}

/// The snake-curve embedding: minimal expansion, dilation 1 along the
/// curve, unbounded dilation across it. Routes are canonical shortest
/// paths.
pub fn snake_embedding(shape: &Shape) -> Embedding {
    let mesh = Mesh::new(shape.clone());
    let host = Hypercube::new(cube_dim(mesh.nodes() as u64));
    let map: Vec<u64> = shape
        .iter_coords()
        .map(|c| gray(snake_position(shape, &c) as u64))
        .collect();
    let edges = mesh_edge_list(&mesh);
    let mut routes = PathRoutes::with_capacity(edges.len(), edges.len() * 3);
    for &(u, v) in &edges {
        routes.push(&cubemesh_embedding::router::canonical_path(
            map[u as usize],
            map[v as usize],
        ));
    }
    Embedding::new(mesh.nodes(), edges, host, map, routes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_positions_are_a_bijection() {
        for dims in [vec![3usize, 4], vec![2, 3, 4], vec![5, 5]] {
            let shape = Shape::new(&dims);
            let mut seen = vec![false; shape.nodes()];
            for c in shape.iter_coords() {
                let p = snake_position(&shape, &c);
                assert!(!seen[p]);
                seen[p] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn consecutive_snake_positions_are_mesh_neighbors() {
        for dims in [vec![3usize, 4], vec![2, 3, 4], vec![4, 5]] {
            let shape = Shape::new(&dims);
            let mut by_pos: Vec<Vec<usize>> = vec![Vec::new(); shape.nodes()];
            for c in shape.iter_coords() {
                let p = snake_position(&shape, &c);
                by_pos[p] = c;
            }
            for w in by_pos.windows(2) {
                let diff: usize = w[0].iter().zip(&w[1]).map(|(a, b)| a.abs_diff(*b)).sum();
                assert_eq!(diff, 1, "positions {:?} -> {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn snake_embedding_is_minimal_expansion_and_valid() {
        for dims in [vec![3usize, 5], vec![5, 6], vec![3, 3, 3]] {
            let shape = Shape::new(&dims);
            let e = snake_embedding(&shape);
            e.verify().unwrap();
            assert!(e.is_minimal_expansion());
        }
    }

    #[test]
    fn snake_on_even_power_of_two_strip_is_reflected_gray() {
        // 2 × 2^k strips are the one family where the snake is perfect:
        // the reflected Gray code. (Everything else degrades; see below.)
        for l in [4usize, 16, 64] {
            let e = snake_embedding(&Shape::new(&[2, l]));
            e.verify().unwrap();
            assert_eq!(e.metrics().dilation, 1, "2x{}", l);
        }
    }

    #[test]
    fn snake_dilation_degrades_off_powers_of_two() {
        // Crossing edges of an ℓ₁ × ℓ₂ mesh span ~2ℓ₂ snake positions whose
        // Gray codes differ in many bits once lengths stop being powers of
        // two.
        let small = snake_embedding(&Shape::new(&[2, 5])).metrics().dilation;
        let large = snake_embedding(&Shape::new(&[5, 37])).metrics().dilation;
        assert!(small >= 2, "2x5 snake dilation {}", small);
        assert!(large >= 4, "5x37 snake dilation {}", large);
    }

    #[test]
    fn path_mesh_snake_is_gray() {
        // For a 1-D mesh the snake is exactly the Gray-code embedding.
        let shape = Shape::new(&[13]);
        let e = snake_embedding(&shape);
        e.verify().unwrap();
        assert_eq!(e.metrics().dilation, 1);
    }
}
