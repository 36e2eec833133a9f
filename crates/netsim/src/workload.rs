//! Traffic generators over embedded meshes.

use crate::sim::Message;
use cubemesh_embedding::Embedding;
use std::fmt;

/// The splitmix64 generator the workloads (and the replay subsystem's
/// synthetic trace generators) share: dependency-free, deterministic per
/// seed, and good enough for traffic shuffling.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded generator; equal seeds yield equal sequences forever.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    /// Next uniform `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. Returns 0 when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A workload generator's typed failure (no panics in library code).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadError {
    /// The workload is defined for 2-D meshes only.
    NotTwoDimensional {
        /// The rank that was supplied.
        rank: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::NotTwoDimensional { rank } => {
                write!(f, "transpose is a 2-D workload (got rank {rank})")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One halo-exchange step: every guest edge carries a message in *both*
/// directions simultaneously, each following the embedding's route (the
/// reverse direction uses the reversed route). This is the communication
/// pattern of one Jacobi/stencil iteration on the mesh.
pub fn stencil_exchange(emb: &Embedding, flits: u32) -> Vec<Message> {
    let mut msgs = Vec::with_capacity(emb.edge_count() * 2);
    let mut routes = emb.route_paths();
    while let Some(route) = routes.next_path() {
        msgs.push(Message::new(route.to_vec(), flits));
        msgs.push(Message::new(route.iter().rev().copied().collect(), flits));
    }
    msgs
}

/// A circular-shift step along one mesh axis (the CSHIFT of data-parallel
/// linear algebra): every edge of `axis` carries one message in the
/// positive direction. Requires the canonical mesh edge order used by all
/// builders, plus the shape to identify axes.
pub fn axis_shift(
    emb: &Embedding,
    shape: &cubemesh_topology::Shape,
    axis: usize,
    flits: u32,
) -> Vec<Message> {
    let mesh = cubemesh_topology::Mesh::new(shape.clone());
    let mut msgs = Vec::new();
    let mut routes = emb.route_paths();
    for e in mesh.edges() {
        let Some(route) = routes.next_path() else {
            break;
        };
        if e.axis == axis {
            msgs.push(Message::new(route.to_vec(), flits));
        }
    }
    msgs
}

/// One shift along every axis in sequence-free superposition (the
/// communication of a SUMMA-like algorithm's skew step): all positive-
/// direction edges of every axis at once.
pub fn all_axis_shifts(
    emb: &Embedding,
    shape: &cubemesh_topology::Shape,
    flits: u32,
) -> Vec<Message> {
    (0..shape.rank())
        .flat_map(|axis| axis_shift(emb, shape, axis, flits))
        .collect()
}

/// Matrix-transpose traffic for a 2-D mesh, routed e-cube between the
/// mapped addresses. Exercises paths the embedding did not optimize for —
/// a stress counterpart to the nearest-neighbor workloads.
///
/// **Contract:** the transpose permutation `(i, j) → (j, i)` is only a
/// self-map of the node set over the largest *square core*
/// `s × s, s = min(ℓ₁, ℓ₂)`: for a non-square mesh the image of an
/// off-core node lies outside the mesh. Exactly the `s² − s` off-diagonal
/// core nodes send (one message each); off-core nodes are idle by
/// definition, not silently dropped.
///
/// Returns [`WorkloadError::NotTwoDimensional`] for meshes of rank ≠ 2.
pub fn transpose(
    emb: &Embedding,
    shape: &cubemesh_topology::Shape,
    flits: u32,
) -> Result<Vec<Message>, WorkloadError> {
    if shape.rank() != 2 {
        return Err(WorkloadError::NotTwoDimensional { rank: shape.rank() });
    }
    let core = shape.len(0).min(shape.len(1));
    let mut msgs = Vec::with_capacity(core * core - core);
    for i in 0..core {
        for j in 0..core {
            if i == j {
                continue;
            }
            let src = emb.image(shape.index(&[i, j]));
            let dst = emb.image(shape.index(&[j, i]));
            msgs.push(Message::new(crate::routing::ecube_path(src, dst), flits));
        }
    }
    Ok(msgs)
}

/// A random permutation workload over the guest nodes (e-cube routed) —
/// the classical average-case stress pattern.
pub fn random_permutation(emb: &Embedding, flits: u32, seed: u64) -> Vec<Message> {
    // Fisher–Yates with the shared splitmix generator to stay
    // dependency-free.
    let mut rng = SplitMix64::new(seed);
    let n = emb.guest_nodes();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    (0..n)
        .filter(|&v| perm[v] != v)
        .map(|v| {
            Message::new(
                crate::routing::ecube_path(emb.image(v), emb.image(perm[v])),
                flits,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, simulate_with, Switching};
    use cubemesh_embedding::gray_mesh_embedding;
    use cubemesh_topology::Shape;

    #[test]
    fn gray_stencil_finishes_in_one_message_time() {
        // Dilation 1, congestion 1, full duplex: makespan = flit count.
        let shape = Shape::new(&[4, 8]);
        let emb = gray_mesh_embedding(&shape);
        let msgs = stencil_exchange(&emb, 32);
        let r = simulate(emb.host(), &msgs);
        assert_eq!(r.makespan, 32);
        assert_eq!(r.delivered, msgs.len());
    }

    #[test]
    fn axis_shift_counts_edges() {
        let shape = Shape::new(&[3, 5]);
        let emb = gray_mesh_embedding(&shape);
        assert_eq!(axis_shift(&emb, &shape, 0, 8).len(), 2 * 5);
        assert_eq!(axis_shift(&emb, &shape, 1, 8).len(), 3 * 4);
    }

    #[test]
    fn cut_through_beats_store_and_forward_on_long_paths() {
        // A single 4-hop message: SF pays 4·size, CT pays ~4 + size.
        let shape = Shape::new(&[16]);
        let emb = gray_mesh_embedding(&shape);
        let host = emb.host();
        let path = crate::routing::ecube_path(0b0000, 0b1111);
        let msg = vec![Message::new(path, 32)];
        let sf = simulate_with(host, &msg, Switching::StoreAndForward);
        let ct = simulate_with(host, &msg, Switching::CutThrough);
        assert_eq!(sf.makespan, 4 * 32);
        assert!(ct.makespan <= 32 + 4, "cut-through {}", ct.makespan);
        assert!(ct.makespan >= 32);
    }

    #[test]
    fn transpose_and_permutation_workloads_complete() {
        let shape = Shape::new(&[8, 8]);
        let emb = gray_mesh_embedding(&shape);
        let t = transpose(&emb, &shape, 8).expect("2-D");
        assert_eq!(t.len(), 8 * 8 - 8); // diagonal stays put
        let r = simulate(emb.host(), &t);
        assert_eq!(r.delivered, t.len());

        let p = random_permutation(&emb, 8, 42);
        let r = simulate(emb.host(), &p);
        assert_eq!(r.delivered, p.len());
        assert!(r.makespan >= 8);
    }

    #[test]
    fn transpose_on_non_square_covers_exactly_the_square_core() {
        // 3×5: the core is 3×3, so 3·3 − 3 = 6 messages — every core
        // source sends and none is silently dropped (the old guard lost
        // the (i, j) with j ≥ 3 without saying so).
        let shape = Shape::new(&[3, 5]);
        let emb = gray_mesh_embedding(&shape);
        let t = transpose(&emb, &shape, 4).expect("2-D");
        assert_eq!(t.len(), 3 * 3 - 3);
        let r = simulate(emb.host(), &t);
        assert_eq!(r.delivered, t.len());

        // The transposed orientation covers the same core.
        let shape = Shape::new(&[5, 3]);
        let emb = gray_mesh_embedding(&shape);
        let t = transpose(&emb, &shape, 4).expect("2-D");
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn transpose_rejects_non_2d_meshes_with_typed_error() {
        let shape = Shape::new(&[3, 4, 5]);
        let emb = gray_mesh_embedding(&shape);
        let err = transpose(&emb, &shape, 4).expect_err("rank 3");
        assert_eq!(err, WorkloadError::NotTwoDimensional { rank: 3 });
    }

    #[test]
    fn all_axis_shifts_counts() {
        let shape = Shape::new(&[3, 4, 5]);
        let emb = gray_mesh_embedding(&shape);
        let msgs = all_axis_shifts(&emb, &shape, 4);
        assert_eq!(msgs.len(), shape.mesh_edges());
    }

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
        assert_eq!(c.below(0), 0);
        for _ in 0..64 {
            assert!(c.below(10) < 10);
        }
    }

    #[test]
    fn dilation_two_embedding_costs_about_double() {
        let shape = Shape::new(&[3, 5]);
        let emb = cubemesh_search::catalog_embedding(&shape).unwrap();
        let msgs = stencil_exchange(&emb, 32);
        let r = simulate(emb.host(), &msgs);
        assert!(r.makespan >= 33, "dilated edges must be slower than 32");
        assert!(
            r.makespan <= 4 * 32,
            "dilation/congestion 2 should stay near 2x: {}",
            r.makespan
        );
    }
}
