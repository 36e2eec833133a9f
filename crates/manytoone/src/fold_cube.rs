//! Cube folding and the Corollary 5 search.

use crate::contract::contract;
use cubemesh_core::restrict;
use cubemesh_embedding::{gray_mesh_embedding, Embedding, PathRoutes};
use cubemesh_topology::{ceil_pow2, cube_dim, Hypercube, Shape};

/// Fold an embedding into a smaller cube by dropping the high `n' − n`
/// address bits (identifying antipodal subcubes). Load multiplies by
/// `2^{n'−n}`; dilation never grows (steps over dropped dimensions
/// collapse); routes are de-looped to stay simple paths.
pub fn fold_to_dim(emb: &Embedding, n: u32) -> Embedding {
    let n_big = emb.host().dim();
    assert!(n <= n_big, "fold target larger than the host");
    if n == n_big {
        return emb.clone();
    }
    let mask = (1u64 << n) - 1;
    let map: Vec<u64> = emb.map().iter().map(|&a| a & mask).collect();
    let mut routes = PathRoutes::with_capacity(
        emb.edge_count(),
        emb.routes().total_length() as usize + emb.edge_count(),
    );
    let mut folded: Vec<u64> = Vec::new();
    let mut paths = emb.route_paths();
    while let Some(r) = paths.next_path() {
        folded.clear();
        for &a in r {
            let m = a & mask;
            // Drop consecutive duplicates; cut loops if the fold ever
            // revisits a node (possible only for non-shortest routes).
            if let Some(pos) = folded.iter().position(|&x| x == m) {
                folded.truncate(pos + 1);
            } else {
                folded.push(m);
            }
        }
        routes.push(&folded);
    }
    Embedding::from_guest(
        emb.guest_nodes(),
        emb.edges().clone(),
        Hypercube::new(n),
        map,
        routes,
    )
}

/// A chosen Corollary 5 cover: the static face of [`corollary5`],
/// enumerable and checkable without constructing anything.
///
/// Axis `i` of the guest is covered by `ℓ′ᵢ · 2^{nᵢ} ≥ ℓᵢ`; the
/// construction Gray-embeds the `2^{n₁} × ⋯ × 2^{n_k}` base mesh,
/// contracts each axis by `ℓ′ᵢ` (Lemma 5), restricts to the guest and
/// folds the `Σnᵢ`-cube down to `n` dimensions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoldPlan {
    /// Target host cube dimension `n`.
    pub host_dim: u32,
    /// Per-axis base cube bits `nᵢ`.
    pub ns: Vec<u32>,
    /// Per-axis contraction factors `ℓ′ᵢ = ⌈ℓᵢ/2^{nᵢ}⌉`.
    pub lprime: Vec<usize>,
}

impl FoldPlan {
    /// The load-factor this cover achieves: `Πℓ′ᵢ · 2^{Σnᵢ − n}`
    /// (Lemma 5 load times the fold doubling).
    pub fn load_factor(&self) -> u64 {
        let total_n: u32 = self.ns.iter().sum();
        self.lprime.iter().map(|&f| f as u64).product::<u64>() << (total_n - self.host_dim)
    }
}

/// Corollary 5 cover search: pick per-axis `(nᵢ, ℓ′ᵢ)` minimizing the
/// load-factor subject to `Σnᵢ ≥ n` and the expansion-preserving
/// condition `⌈Πℓ′ᵢ2^{nᵢ}⌉₂ = ⌈Πℓᵢ⌉₂`.
///
/// Returns `None` when no cover satisfies the corollary's conditions.
pub fn plan_corollary5(shape: &Shape, n: u32) -> Option<FoldPlan> {
    let k = shape.rank();
    let target = ceil_pow2(shape.nodes() as u64);

    // Enumerate per-axis (nᵢ, ℓ′ᵢ = ⌈ℓᵢ/2^{nᵢ}⌉) choices.
    let mut best: Option<(u64, Vec<u32>, Vec<usize>)> = None;
    let mut stack: Vec<(usize, Vec<u32>)> = vec![(0, Vec::new())];
    while let Some((axis, chosen)) = stack.pop() {
        if axis == k {
            let total_n: u32 = chosen.iter().sum();
            if total_n < n {
                continue;
            }
            let lprime: Vec<usize> = (0..k)
                .map(|i| shape.len(i).div_ceil(1usize << chosen[i]))
                .collect();
            let covered: u64 = (0..k).map(|i| (lprime[i] as u64) << chosen[i]).product();
            if ceil_pow2(covered) != target {
                continue;
            }
            let load: u64 = lprime.iter().map(|&f| f as u64).product::<u64>() << (total_n - n);
            if best.as_ref().map(|(b, ..)| load < *b).unwrap_or(true) {
                best = Some((load, chosen, lprime));
            }
            continue;
        }
        for ni in 0..=cube_dim(shape.len(axis) as u64) {
            let mut next = chosen.clone();
            next.push(ni);
            stack.push((axis + 1, next));
        }
    }

    let (_, ns, lprime) = best?;
    Some(FoldPlan {
        host_dim: n,
        ns,
        lprime,
    })
}

/// Build the embedding a [`FoldPlan`] describes: Gray + contract +
/// restrict + fold. The plan is assumed well-formed (as produced by
/// [`plan_corollary5`] or validated by the audit layer).
pub fn build_corollary5(shape: &Shape, plan: &FoldPlan) -> Embedding {
    let base_shape = Shape::new(&plan.ns.iter().map(|&ni| 1usize << ni).collect::<Vec<_>>());
    let base = gray_mesh_embedding(&base_shape);
    let contracted = contract(&base_shape, &base, &plan.lprime);
    let big_shape = base_shape.product(&Shape::new(&plan.lprime));
    let restricted = restrict(&contracted, &big_shape, shape);
    fold_to_dim(&restricted, plan.host_dim)
}

/// Corollary 5: embed `shape` into an `n`-cube with dilation one and
/// load-factor optimal within a factor of two — [`plan_corollary5`]
/// followed by [`build_corollary5`].
pub fn corollary5(shape: &Shape, n: u32) -> Option<Embedding> {
    let plan = plan_corollary5(shape, n)?;
    Some(build_corollary5(shape, &plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_embedding::{load_factor, verify_many_to_one};

    #[test]
    fn paper_19x19_example() {
        // §7: 19x19 into (up to) Q5 with dilation one; load 15 vs optimal
        // 12 — because 19x19 ⊆ 24x20 = (3·2³)x(5·2²).
        let shape = Shape::new(&[19, 19]);
        let emb = corollary5(&shape, 5).expect("19x19 cover");
        verify_many_to_one(&emb).unwrap();
        assert_eq!(emb.host().dim(), 5);
        let m = emb.metrics();
        assert_eq!(m.dilation, 1);
        let lf = load_factor(emb.map(), emb.host());
        assert_eq!(lf, 15, "paper's load-factor");
        let optimal = (19u64 * 19).div_ceil(32);
        assert_eq!(optimal, 12, "paper's optimal");
        assert!(lf as u64 <= 2 * optimal);
    }

    #[test]
    fn fold_halves_cube_and_doubles_load() {
        let shape = Shape::new(&[4, 8]);
        let emb = gray_mesh_embedding(&shape);
        let folded = fold_to_dim(&emb, 4);
        verify_many_to_one(&folded).unwrap();
        assert_eq!(folded.host().dim(), 4);
        assert_eq!(load_factor(folded.map(), folded.host()), 2);
        assert!(folded.metrics().dilation <= 1);
    }

    #[test]
    fn fold_to_same_dim_is_identity() {
        let shape = Shape::new(&[3, 5]);
        let emb = gray_mesh_embedding(&shape);
        let folded = fold_to_dim(&emb, emb.host().dim());
        assert_eq!(folded.map(), emb.map());
    }

    #[test]
    fn corollary5_load_within_twice_optimal() {
        for (dims, n) in [
            (vec![19usize, 19], 5u32),
            (vec![7, 7], 4),
            (vec![13, 9], 5),
            (vec![5, 5, 5], 5),
        ] {
            let shape = Shape::new(&dims);
            if let Some(emb) = corollary5(&shape, n) {
                verify_many_to_one(&emb).unwrap();
                let m = emb.metrics();
                assert_eq!(m.dilation, 1, "{:?}", dims);
                let lf = load_factor(emb.map(), emb.host()) as u64;
                let optimal = (shape.nodes() as u64).div_ceil(1u64 << n);
                assert!(
                    lf <= 2 * optimal,
                    "{:?}: load {} > 2x optimal {}",
                    dims,
                    lf,
                    optimal
                );
            }
        }
    }
}
