//! Exact congestion-bounded route assignment.
//!
//! The paper's direct embeddings are *congestion-2* as well as dilation-2
//! (\[13] shows this for the `3×5`, `7×9`, `11×11` maps). A node map alone
//! does not determine congestion: each Hamming-2 edge can be routed through
//! either of two intermediate nodes. This module decides the route choices
//! *exactly*: backtracking over the two-choice edges with per-cube-edge
//! usage counters, so a returned route set provably meets the congestion
//! bound, and `None` proves the bound is infeasible **for this map** (other
//! maps of the same mesh may still make it — discovery retries with fresh
//! maps when certification fails).

use cubemesh_embedding::router::{route_all, RouteStrategy};
use cubemesh_embedding::PathRoutes;
use cubemesh_topology::{hamming, Hypercube};
use std::collections::HashMap;
use std::fmt;

/// Why the exact assigner produced no route set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssignError {
    /// No assignment meets the congestion bound, or the backtracking
    /// budget ran out before one was found. For this map the bound is
    /// (as far as the budget can tell) infeasible; other maps of the
    /// same mesh may still make it.
    Infeasible,
    /// Guest edge `edge` spans Hamming `distance` > 2 under the map, so
    /// two-choice shortest-path routing does not apply. The paper's
    /// constructions are all dilation-≤2; a caller hitting this handed
    /// the assigner a map it was never built for.
    DilationExceeded { edge: usize, distance: u32 },
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::Infeasible => {
                write!(f, "no route assignment meets the congestion bound")
            }
            AssignError::DilationExceeded { edge, distance } => write!(
                f,
                "guest edge {edge} spans Hamming distance {distance} > 2; \
                 the two-choice assigner requires a dilation-2 map"
            ),
        }
    }
}

impl std::error::Error for AssignError {}

/// Produce routes with congestion ≤ `limit`, trying the fast congestion-
/// balanced greedy router first and falling back to the exact backtracking
/// assigner. Returns `None` when neither certifies the bound.
pub fn certify_congestion(
    map: &[u64],
    edges: &[(u32, u32)],
    host: Hypercube,
    limit: u32,
) -> Option<PathRoutes> {
    let greedy = route_all(map, edges, host, RouteStrategy::Balanced { passes: 4 });
    if max_congestion(&greedy, host) <= limit {
        return Some(greedy);
    }
    // A dilation>2 map cannot certify either way; fold that error into
    // the `None` ("this map does not certify") outcome.
    assign_bounded_congestion(map, edges, host, limit).ok()
}

/// Max congestion of node-path routes — what the router and the
/// assigner here produce (helper shared with discovery). A built
/// embedding is measured by `Embedding::metrics`.
pub fn max_congestion(routes: &PathRoutes, host: Hypercube) -> u32 {
    let mut steps: Vec<u64> = Vec::with_capacity(routes.total_length() as usize);
    for r in routes.paths() {
        for w in r.windows(2) {
            let bit = (w[0] ^ w[1]).trailing_zeros();
            steps.push(host.edge_index(w[0], bit) as u64);
        }
    }
    steps.sort_unstable();
    let mut best = 0u32;
    let mut run = 0u32;
    let mut prev = None;
    for &x in &steps {
        if prev == Some(x) {
            run += 1;
        } else {
            run = 1;
            prev = Some(x);
        }
        best = best.max(run);
    }
    best
}

/// Find routes for all `edges` with per-host-edge congestion ≤ `limit`,
/// exactly, with [`DEFAULT_ASSIGN_BUDGET`] backtracking steps.
///
/// Returns [`AssignError::Infeasible`] if no assignment meets the bound
/// (or the budget ran out — use [`certify_congestion`] for the
/// greedy-first strategy that rarely needs the exact search at all), and
/// [`AssignError::DilationExceeded`] if the map is not dilation-≤2.
pub fn assign_bounded_congestion(
    map: &[u64],
    edges: &[(u32, u32)],
    host: Hypercube,
    limit: u32,
) -> Result<PathRoutes, AssignError> {
    assign_bounded_congestion_budgeted(map, edges, host, limit, DEFAULT_ASSIGN_BUDGET)
}

/// Default backtracking-step budget for the exact assigner.
pub const DEFAULT_ASSIGN_BUDGET: u64 = 20_000_000;

/// [`assign_bounded_congestion`] with an explicit step budget.
///
/// Every in-tree caller routes dilation-≤2 embeddings (the paper's
/// constructions never exceed 2); a longer edge is reported as
/// [`AssignError::DilationExceeded`] rather than a panic so callers can
/// attribute the failure precisely.
pub fn assign_bounded_congestion_budgeted(
    map: &[u64],
    edges: &[(u32, u32)],
    host: Hypercube,
    limit: u32,
    max_steps: u64,
) -> Result<PathRoutes, AssignError> {
    let mut load: HashMap<usize, u32> = HashMap::new();
    let bump = |load: &mut HashMap<usize, u32>, a: u64, b: u64| -> bool {
        let bit = (a ^ b).trailing_zeros();
        let e = load.entry(host.edge_index(a, bit)).or_insert(0);
        *e += 1;
        *e <= limit
    };

    // Forced dilation-0/1 edges first; collect the choice edges.
    #[derive(Clone, Copy)]
    struct Choice {
        edge_idx: usize,
        a: u64,
        b: u64,
        /// The two intermediates `a ^ bit_lo`, `a ^ bit_hi`.
        mids: [u64; 2],
    }
    let mut choices: Vec<Choice> = Vec::new();
    let mut fixed_over = false;
    for (i, &(u, v)) in edges.iter().enumerate() {
        let a = map[u as usize];
        let b = map[v as usize];
        match hamming(a, b) {
            0 => {}
            1 => {
                if !bump(&mut load, a, b) {
                    fixed_over = true;
                }
            }
            2 => {
                let x = a ^ b;
                let lo = x & x.wrapping_neg();
                let hi = x ^ lo;
                choices.push(Choice {
                    edge_idx: i,
                    a,
                    b,
                    mids: [a ^ lo, a ^ hi],
                });
            }
            d => {
                return Err(AssignError::DilationExceeded {
                    edge: i,
                    distance: d,
                })
            }
        }
    }
    if fixed_over {
        return Err(AssignError::Infeasible);
    }

    // Order choice edges so heavily shared neighborhoods are decided early:
    // sort by (a, b) so adjacent routes cluster.
    choices.sort_by_key(|c| (c.a, c.b));

    // Backtracking over the two choices per edge.
    let n = choices.len();
    let mut pick = vec![usize::MAX; n];
    let mut depth = 0usize;
    let mut next_try = vec![0usize; n];

    let try_apply = |load: &mut HashMap<usize, u32>,
                     c: &Choice,
                     mid: u64,
                     limit: u32,
                     host: &Hypercube|
     -> bool {
        let e1 = host.edge_index(c.a, (c.a ^ mid).trailing_zeros());
        let e2 = host.edge_index(mid, (mid ^ c.b).trailing_zeros());
        let l1 = load.get(&e1).copied().unwrap_or(0);
        let l2 = load.get(&e2).copied().unwrap_or(0);
        if l1 + 1 > limit || l2 + 1 > limit || (e1 == e2 && l1 + 2 > limit) {
            return false;
        }
        *load.entry(e1).or_insert(0) += 1;
        *load.entry(e2).or_insert(0) += 1;
        true
    };
    let unapply = |load: &mut HashMap<usize, u32>, c: &Choice, mid: u64, host: &Hypercube| {
        let e1 = host.edge_index(c.a, (c.a ^ mid).trailing_zeros());
        let e2 = host.edge_index(mid, (mid ^ c.b).trailing_zeros());
        // try_apply recorded both loads, so the entries are present; a
        // missing entry would be a bug, but skipping it is strictly
        // safer than panicking mid-search.
        for e in [e1, e2] {
            if let Some(l) = load.get_mut(&e) {
                *l -= 1;
            }
        }
    };

    let mut steps = 0u64;
    loop {
        if depth == n {
            break; // all assigned
        }
        steps += 1;
        if steps > max_steps {
            return Err(AssignError::Infeasible);
        }
        let c = choices[depth];
        let mut advanced = false;
        while next_try[depth] < 2 {
            let m = next_try[depth];
            next_try[depth] += 1;
            if try_apply(&mut load, &c, c.mids[m], limit, &host) {
                pick[depth] = m;
                depth += 1;
                if depth < n {
                    next_try[depth] = 0;
                }
                advanced = true;
                break;
            }
        }
        if !advanced {
            // Backtrack.
            if depth == 0 {
                return Err(AssignError::Infeasible);
            }
            next_try[depth] = 0;
            depth -= 1;
            let c = choices[depth];
            unapply(&mut load, &c, c.mids[pick[depth]], &host);
            pick[depth] = usize::MAX;
        }
    }

    // Emit routes in original edge order.
    let mut chosen_mid: HashMap<usize, u64> = HashMap::new();
    for (d, c) in choices.iter().enumerate() {
        chosen_mid.insert(c.edge_idx, c.mids[pick[d]]);
    }
    let mut rs = PathRoutes::with_capacity(edges.len(), edges.len() * 3);
    for (i, &(u, v)) in edges.iter().enumerate() {
        let a = map[u as usize];
        let b = map[v as usize];
        match hamming(a, b) {
            0 => {
                rs.push(&[a]);
            }
            1 => {
                rs.push(&[a, b]);
            }
            _ => {
                rs.push(&[a, chosen_mid[&i], b]);
            }
        }
    }
    Ok(rs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_embedding::Embedding;

    #[test]
    fn crossing_diagonals_need_congestion_two() {
        // Both diagonals of Q2 as guest edges: every pairing of shortest
        // paths shares a cube edge, so limit 1 is infeasible and limit 2 is
        // tight — the assigner must prove both directions.
        let host = Hypercube::new(2);
        let map = vec![0b00, 0b11, 0b01, 0b10];
        let edges = vec![(0u32, 1u32), (2, 3)];
        assert!(assign_bounded_congestion(&map, &edges, host, 1).is_err());
        let rs = assign_bounded_congestion(&map, &edges, host, 2).expect("feasible");
        let emb = Embedding::new(4, edges, host, map, rs);
        emb.verify().unwrap();
        assert_eq!(emb.metrics().congestion, 2);
    }

    #[test]
    fn parallel_diagonals_route_disjointly_at_limit_one() {
        // Two guest edges whose shortest-path pairs can be made disjoint:
        // 000->011 (via 001 or 010) and 100->111 (via 101 or 110). Any
        // choice is disjoint across the two, so limit 1 is feasible.
        let host = Hypercube::new(3);
        let map = vec![0b000, 0b011, 0b100, 0b111];
        let edges = vec![(0u32, 1u32), (2, 3)];
        let rs = assign_bounded_congestion(&map, &edges, host, 1).expect("feasible");
        let emb = Embedding::new(4, edges, host, map, rs);
        emb.verify().unwrap();
        assert_eq!(emb.metrics().congestion, 1);
    }

    #[test]
    fn infeasible_bound_detected() {
        // Three guest edges all between 00 and 11-distance pairs crossing a
        // 2-edge cut: Q1 has one edge; two dilation-1 edges over it exceed
        // limit 1.
        let host = Hypercube::new(1);
        let map = vec![0, 1];
        let edges = vec![(0u32, 1u32), (1, 0)];
        // duplicate edge not allowed upstream, but the assigner only counts:
        match assign_bounded_congestion(&map, &edges, host, 1) {
            Err(e) => assert_eq!(e, AssignError::Infeasible),
            Ok(_) => panic!("limit 1 should be infeasible"),
        }
        assert!(assign_bounded_congestion(&map, &edges, host, 2).is_ok());
    }

    #[test]
    fn hamming_three_edge_is_a_typed_error() {
        // A map that is not dilation-≤2 is a caller bug, reported as a
        // structured error naming the offending edge, not a panic.
        let host = Hypercube::new(3);
        let map = vec![0b000, 0b111];
        let edges = vec![(0u32, 1u32)];
        match assign_bounded_congestion(&map, &edges, host, 2) {
            Err(e) => assert_eq!(
                e,
                AssignError::DilationExceeded {
                    edge: 0,
                    distance: 3
                }
            ),
            Ok(_) => panic!("expected a dilation error"),
        }
        // certify_congestion folds it into "does not certify".
        assert!(certify_congestion(&map, &edges, host, 0).is_none());
    }

    #[test]
    fn dilation_zero_edges_allowed() {
        // Many-to-one scenarios produce guest edges whose endpoints share an
        // address; they consume no congestion.
        let host = Hypercube::new(1);
        let map = vec![0, 0];
        let edges = vec![(0u32, 1u32)];
        let rs = assign_bounded_congestion(&map, &edges, host, 1).unwrap();
        assert_eq!(rs.path(0), Some(&[0][..]));
    }
}
