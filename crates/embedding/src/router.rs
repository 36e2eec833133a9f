//! Route generation for embeddings built as bare node maps.
//!
//! The constructions of the paper carry their own routes (that is how the
//! congestion bounds are proved), but maps coming out of the direct-
//! embedding *search* or out of baselines are just node assignments. This
//! module turns a map into routes:
//!
//! * [`RouteStrategy::Canonical`] — correct differing bits from least to
//!   most significant; deterministic, no congestion awareness.
//! * [`RouteStrategy::Balanced`] — greedy congestion-aware choice among all
//!   shortest paths (all bit orders for Hamming distance ≤ 3, a small
//!   sample beyond), followed by improvement passes that re-route the
//!   worst edges. This is what lets the search catalog certify
//!   congestion-2 routings for its dilation-2 embeddings.

use crate::route::PathRoutes;
use cubemesh_obs as obs;
use cubemesh_topology::{hamming, Hypercube};
use std::collections::HashMap;

/// How to assign shortest-path routes to guest edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteStrategy {
    /// Flip differing bits from LSB to MSB.
    Canonical,
    /// Congestion-aware greedy with the given number of improvement passes.
    Balanced { passes: usize },
}

impl Default for RouteStrategy {
    fn default() -> Self {
        RouteStrategy::Balanced { passes: 2 }
    }
}

/// The canonical shortest path from `a` to `b`: flip differing bits in
/// ascending position order. Length `hamming(a, b) + 1` nodes.
pub fn canonical_path(a: u64, b: u64) -> Vec<u64> {
    let mut path = Vec::with_capacity(hamming(a, b) as usize + 1);
    let mut cur = a;
    path.push(cur);
    for bit in cubemesh_topology::hamming::bit_positions(a ^ b) {
        cur ^= 1u64 << bit;
        path.push(cur);
    }
    path
}

/// The shortest path from `a` to `b` flipping bits in the order given by
/// `order` (which must be exactly the differing bit positions).
fn path_with_order(a: u64, order: &[u32]) -> Vec<u64> {
    let mut path = Vec::with_capacity(order.len() + 1);
    let mut cur = a;
    path.push(cur);
    for &bit in order {
        cur ^= 1u64 << bit;
        path.push(cur);
    }
    path
}

/// All permutations of a small slice (≤ 3 elements yields ≤ 6 orders; the
/// caller bounds the input size).
fn permutations(bits: &[u32]) -> Vec<Vec<u32>> {
    match bits.len() {
        0 => vec![vec![]],
        1 => vec![vec![bits[0]]],
        _ => {
            let mut out = Vec::new();
            for (i, &b) in bits.iter().enumerate() {
                let mut rest: Vec<u32> = bits.to_vec();
                rest.remove(i);
                for mut tail in permutations(&rest) {
                    let mut perm = vec![b];
                    perm.append(&mut tail);
                    out.push(perm);
                }
            }
            out
        }
    }
}

/// Candidate bit orders for routing an edge with differing bits `bits`:
/// all `d!` orders when `d ≤ 3`, otherwise ascending, descending, and the
/// `d` rotations of ascending order.
fn candidate_orders(bits: &[u32]) -> Vec<Vec<u32>> {
    if bits.len() <= 3 {
        permutations(bits)
    } else {
        let mut out = Vec::with_capacity(bits.len() + 1);
        for r in 0..bits.len() {
            let mut rot: Vec<u32> = bits[r..].to_vec();
            rot.extend_from_slice(&bits[..r]);
            out.push(rot);
        }
        let mut desc: Vec<u32> = bits.to_vec();
        desc.reverse();
        out.push(desc);
        out
    }
}

/// Generate routes for every `(u, v)` guest edge of a node map.
pub fn route_all(
    map: &[u64],
    edges: &[(u32, u32)],
    host: Hypercube,
    strategy: RouteStrategy,
) -> PathRoutes {
    match strategy {
        RouteStrategy::Canonical => {
            let mut rs = PathRoutes::with_capacity(edges.len(), edges.len() * 2);
            for &(u, v) in edges {
                rs.push(&canonical_path(map[u as usize], map[v as usize]));
            }
            rs
        }
        RouteStrategy::Balanced { passes } => balanced_routes(map, edges, host, passes),
    }
}

fn balanced_routes(
    map: &[u64],
    edges: &[(u32, u32)],
    host: Hypercube,
    passes: usize,
) -> PathRoutes {
    obs::span!("router.balanced");
    obs::counter!("router.balanced.calls").inc();
    // Congestion counters on host edges, sparse.
    let mut load: HashMap<usize, u32> = HashMap::new();
    let mut chosen: Vec<Vec<u64>> = Vec::with_capacity(edges.len());

    let add = |load: &mut HashMap<usize, u32>, host: &Hypercube, path: &[u64], delta: i64| {
        for w in path.windows(2) {
            let bit = (w[0] ^ w[1]).trailing_zeros();
            let idx = host.edge_index(w[0], bit);
            let entry = load.entry(idx).or_insert(0);
            *entry = (*entry as i64 + delta) as u32;
        }
    };

    // Initial greedy assignment.
    for &(u, v) in edges {
        let a = map[u as usize];
        let b = map[v as usize];
        let path = best_path(a, b, &load, host);
        add(&mut load, &host, &path, 1);
        chosen.push(path);
    }

    // Improvement passes: tear out and re-route each edge.
    for _ in 0..passes {
        obs::counter!("router.balanced.passes").inc();
        let mut improved = false;
        for i in 0..chosen.len() {
            let (u, v) = edges[i];
            let a = map[u as usize];
            let b = map[v as usize];
            add(&mut load, &host, &chosen[i], -1);
            let candidate = best_path(a, b, &load, host);
            let cand_cost = path_cost_after_insert(&candidate, &load, host);
            let old_cost = path_cost_after_insert(&chosen[i], &load, host);
            if cand_cost < old_cost {
                obs::counter!("router.balanced.improvements").inc();
                chosen[i] = candidate;
                improved = true;
            }
            add(&mut load, &host, &chosen[i].clone(), 1);
        }
        if !improved {
            break;
        }
    }

    // Greedy + local improvement is not guaranteed to dominate the
    // canonical routing; keep whichever is better so `Balanced` is
    // never worse by construction.
    let balanced_worst = load.values().copied().max().unwrap_or(0);
    let canonical = route_all(map, edges, host, RouteStrategy::Canonical);
    let canonical_worst = max_edge_congestion(&canonical, host);
    obs::histogram!("router.congestion").record(balanced_worst.min(canonical_worst) as u64);
    if canonical_worst < balanced_worst {
        return canonical;
    }

    let mut rs = PathRoutes::with_capacity(edges.len(), edges.len() * 2);
    for p in &chosen {
        rs.push(p);
    }
    rs
}

/// Max per-edge congestion of a route set (small helper used to pick the
/// better of two routings).
fn max_edge_congestion(routes: &PathRoutes, host: Hypercube) -> u32 {
    let mut load: HashMap<usize, u32> = HashMap::new();
    let mut worst = 0;
    for r in routes.paths() {
        for w in r.windows(2) {
            let bit = (w[0] ^ w[1]).trailing_zeros();
            let e = load.entry(host.edge_index(w[0], bit)).or_insert(0);
            *e += 1;
            worst = worst.max(*e);
        }
    }
    worst
}

/// Max congestion along `path` if it were added on top of current loads.
fn path_cost_after_insert(path: &[u64], load: &HashMap<usize, u32>, host: Hypercube) -> u32 {
    path.windows(2)
        .map(|w| {
            let bit = (w[0] ^ w[1]).trailing_zeros();
            *load.get(&host.edge_index(w[0], bit)).unwrap_or(&0) + 1
        })
        .max()
        .unwrap_or(0)
}

/// Pick the candidate shortest path minimizing (max-load-after, sum-load),
/// falling back to the canonical ascending-bit route if the candidate
/// enumeration somehow yields nothing.
fn best_path(a: u64, b: u64, load: &HashMap<usize, u32>, host: Hypercube) -> Vec<u64> {
    let bits: Vec<u32> = cubemesh_topology::hamming::bit_positions(a ^ b).collect();
    if bits.is_empty() {
        return vec![a];
    }
    let mut best: Option<(u32, u64, Vec<u64>)> = None;
    for order in candidate_orders(&bits) {
        let path = path_with_order(a, &order);
        let mut worst = 0u32;
        let mut total = 0u64;
        for w in path.windows(2) {
            let bit = (w[0] ^ w[1]).trailing_zeros();
            let l = *load.get(&host.edge_index(w[0], bit)).unwrap_or(&0) + 1;
            worst = worst.max(l);
            total += l as u64;
        }
        if best
            .as_ref()
            .map(|(bw, bt, _)| (worst, total) < (*bw, *bt))
            .unwrap_or(true)
        {
            best = Some((worst, total, path));
        }
    }
    match best {
        Some((_, _, path)) => path,
        None => canonical_path(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::Embedding;

    #[test]
    fn canonical_path_is_shortest() {
        for a in 0..16u64 {
            for b in 0..16u64 {
                let p = canonical_path(a, b);
                assert_eq!(p.len() as u32, hamming(a, b) + 1);
                assert_eq!(p[0], a);
                assert_eq!(*p.last().unwrap(), b);
                for w in p.windows(2) {
                    assert_eq!(hamming(w[0], w[1]), 1);
                }
            }
        }
    }

    #[test]
    fn permutations_count() {
        assert_eq!(permutations(&[]).len(), 1);
        assert_eq!(permutations(&[1]).len(), 1);
        assert_eq!(permutations(&[1, 2]).len(), 2);
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
    }

    #[test]
    fn balanced_beats_canonical_on_a_hotspot() {
        // Star guest: center node 0 at address 0, leaves at addresses of
        // Hamming weight 2 sharing bit 0. Canonical routing (LSB first)
        // sends every route through edge 0 -> 1 first; balanced should
        // spread them.
        let host = Hypercube::new(4);
        let map: Vec<u64> = vec![0b0000, 0b0011, 0b0101, 0b1001];
        let edges: Vec<(u32, u32)> = vec![(0, 1), (0, 2), (0, 3)];

        let canon = route_all(&map, &edges, host, RouteStrategy::Canonical);
        let canon_emb = Embedding::new(4, edges.clone(), host, map.clone(), canon);
        canon_emb.verify().unwrap();
        let c1 = canon_emb.metrics().congestion;
        assert_eq!(c1, 3, "canonical funnels all three through 0-1");

        let bal = route_all(&map, &edges, host, RouteStrategy::Balanced { passes: 2 });
        let bal_emb = Embedding::new(4, edges, host, map, bal);
        bal_emb.verify().unwrap();
        let c2 = bal_emb.metrics().congestion;
        assert!(c2 <= 2, "balanced congestion {} should be <= 2", c2);
    }

    #[test]
    fn routes_verify_for_random_maps() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let host = Hypercube::new(6);
        // Random injective map of a 3x4 mesh.
        let mesh = cubemesh_topology::Mesh::from_dims(&[3, 4]);
        let mut addrs: Vec<u64> = (0..host.nodes()).collect();
        addrs.shuffle(&mut rng);
        let map: Vec<u64> = addrs[..mesh.nodes()].to_vec();
        let edges: Vec<(u32, u32)> = mesh
            .edges()
            .map(|e| {
                let (a, b) = mesh.edge_endpoints(e);
                (a as u32, b as u32)
            })
            .collect();
        for strategy in [
            RouteStrategy::Canonical,
            RouteStrategy::Balanced { passes: 3 },
        ] {
            let rs = route_all(&map, &edges, host, strategy);
            let emb = Embedding::new(mesh.nodes(), edges.clone(), host, map.clone(), rs);
            emb.verify().unwrap();
            // Shortest-path routing: dilation equals max Hamming distance.
            let want: u32 = edges
                .iter()
                .map(|&(u, v)| hamming(map[u as usize], map[v as usize]))
                .max()
                .unwrap();
            assert_eq!(emb.metrics().dilation, want);
        }
    }
}
