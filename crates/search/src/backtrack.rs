//! Exact backtracking search for bounded-dilation embeddings.
//!
//! Given a guest graph, a host cube `Q_n`, and a dilation bound `D`, find an
//! injective node map under which every guest edge spans Hamming distance
//! `≤ D` — or prove none exists within the node budget.
//!
//! Pruning:
//!
//! * **Translation symmetry** — the first placed node is pinned to address 0.
//! * **Bit-permutation symmetry** — bit positions must *first appear* in
//!   ascending order: when a candidate address uses bits never used before,
//!   those fresh bits must be the lowest unused positions. Any embedding can
//!   be rewritten into this canonical form by permuting cube dimensions, so
//!   the rule is complete.
//! * **Frontier feasibility** — after each placement, every unplaced node
//!   that already has placed guest neighbors must retain at least one free
//!   address within distance `D` of all of them.
//!
//! Placement order is the caller's (row-major works well for meshes: each
//! node arrives with up to `k` placed neighbors); candidate order is
//! deterministic or shuffled per seed for randomized restarts.

use cubemesh_obs as obs;
use cubemesh_topology::{hamming, Graph, Hypercube};
use std::cell::Cell;

/// Configuration for the exact search.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Host cube dimension.
    pub host_dim: u32,
    /// Dilation bound `D ≥ 1`.
    pub max_dilation: u32,
    /// Abort after this many backtracking steps (placements + retractions).
    pub node_budget: u64,
    /// Shuffle candidate order with this seed; `None` keeps ascending order.
    pub shuffle_seed: Option<u64>,
}

impl SearchConfig {
    /// Dilation-2 search in the minimal cube for `nodes` guest nodes.
    pub fn dilation2_minimal(nodes: usize) -> Self {
        SearchConfig {
            host_dim: cubemesh_topology::cube_dim(nodes as u64),
            max_dilation: 2,
            node_budget: 50_000_000,
            shuffle_seed: None,
        }
    }
}

/// Result of a search run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A map was found (guest node → address).
    Found(Vec<u64>),
    /// The search space was exhausted: no embedding exists with these
    /// parameters (given the completeness of the pruning rules).
    Exhausted,
    /// The node budget ran out first.
    BudgetExceeded,
}

/// Run the exact search. `order` is the placement order over guest nodes
/// (a permutation of `0..guest.nodes()`).
pub fn find_embedding(guest: &Graph, order: &[u32], cfg: &SearchConfig) -> SearchOutcome {
    assert_eq!(order.len(), guest.nodes());
    assert!(cfg.max_dilation >= 1);
    assert!(cfg.host_dim <= 30, "search host too large");
    let n = guest.nodes();
    let host = Hypercube::new(cfg.host_dim);
    let host_nodes = host.nodes() as usize;
    if n > host_nodes {
        return SearchOutcome::Exhausted;
    }
    if n == 0 {
        return SearchOutcome::Found(vec![]);
    }

    obs::span!("search.backtrack");
    let started = std::time::Instant::now();
    let mut st = State {
        guest,
        host,
        d: cfg.max_dilation,
        order,
        map: vec![u64::MAX; n],
        used: vec![false; host_nodes],
        bit_use_count: vec![0u32; cfg.host_dim as usize],
        used_bit_prefix: 0,
        budget: cfg.node_budget,
        rng: cfg.shuffle_seed.map(SplitMix::new),
        sym_prunes: Cell::new(0),
        frontier_prunes: Cell::new(0),
    };

    let result = st.place(0);
    // Counters are batched per run (plain u64 cells inside the search, one
    // atomic flush here) so the hot loop never touches shared state.
    obs::counter!("search.backtrack.steps").add(cfg.node_budget - st.budget);
    obs::counter!("search.backtrack.prune.symmetry").add(st.sym_prunes.get());
    obs::counter!("search.backtrack.prune.frontier").add(st.frontier_prunes.get());
    match result {
        PlaceResult::Found => {
            obs::counter!("search.backtrack.found").inc();
            obs::histogram!("search.backtrack.ttfs_ns").record(started.elapsed().as_nanos() as u64);
            SearchOutcome::Found(st.map)
        }
        PlaceResult::Exhausted => {
            obs::counter!("search.backtrack.exhausted").inc();
            SearchOutcome::Exhausted
        }
        PlaceResult::Budget => {
            obs::counter!("search.backtrack.budget_exceeded").inc();
            SearchOutcome::BudgetExceeded
        }
    }
}

enum PlaceResult {
    Found,
    Exhausted,
    Budget,
}

/// Minimal xorshift-style generator for candidate shuffling (keeps the
/// crate's hot path free of the full `rand` machinery; `rand` is used by the
/// annealer where distribution quality matters more).
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

struct State<'a> {
    guest: &'a Graph,
    host: Hypercube,
    d: u32,
    order: &'a [u32],
    map: Vec<u64>,
    used: Vec<bool>,
    /// How many placed addresses have each bit set (for first-use symmetry).
    bit_use_count: Vec<u32>,
    /// Number of bit positions ever used; used positions are `0..prefix`.
    used_bit_prefix: u32,
    budget: u64,
    rng: Option<SplitMix>,
    /// Candidates rejected by the first-use-canonical bit rule.
    sym_prunes: Cell<u64>,
    /// Subtrees cut by the frontier-feasibility check.
    frontier_prunes: Cell<u64>,
}

impl State<'_> {
    fn place(&mut self, depth: usize) -> PlaceResult {
        if depth == self.order.len() {
            return PlaceResult::Found;
        }
        if self.budget == 0 {
            return PlaceResult::Budget;
        }
        self.budget -= 1;

        let node = self.order[depth] as usize;
        let mut candidates = self.candidates_for(node);
        if let Some(rng) = &mut self.rng {
            // Fisher–Yates with the cheap generator.
            for i in (1..candidates.len()).rev() {
                let j = (rng.next() % (i as u64 + 1)) as usize;
                candidates.swap(i, j);
            }
        }

        let mut budget_hit = false;
        for cand in candidates {
            self.assign(node, cand);
            if self.frontier_feasible(depth + 1) {
                match self.place(depth + 1) {
                    PlaceResult::Found => return PlaceResult::Found,
                    PlaceResult::Budget => {
                        budget_hit = true;
                        self.unassign(node, cand);
                        break;
                    }
                    PlaceResult::Exhausted => {}
                }
            } else {
                self.frontier_prunes.set(self.frontier_prunes.get() + 1);
            }
            if !budget_hit {
                self.unassign(node, cand);
            }
        }
        if budget_hit {
            PlaceResult::Budget
        } else {
            PlaceResult::Exhausted
        }
    }

    fn assign(&mut self, node: usize, addr: u64) {
        self.map[node] = addr;
        self.used[addr as usize] = true;
        let mut fresh = addr;
        while fresh != 0 {
            let b = fresh.trailing_zeros();
            fresh &= fresh - 1;
            self.bit_use_count[b as usize] += 1;
        }
        while (self.used_bit_prefix as usize) < self.bit_use_count.len()
            && self.bit_use_count[self.used_bit_prefix as usize] > 0
        {
            self.used_bit_prefix += 1;
        }
    }

    fn unassign(&mut self, node: usize, addr: u64) {
        self.map[node] = u64::MAX;
        self.used[addr as usize] = false;
        let mut bits = addr;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            self.bit_use_count[b as usize] -= 1;
        }
        while self.used_bit_prefix > 0 && self.bit_use_count[self.used_bit_prefix as usize - 1] == 0
        {
            self.used_bit_prefix -= 1;
        }
    }

    /// Addresses within Hamming ≤ d of `center`, in ascending distance.
    fn ball(&self, center: u64, out: &mut Vec<u64>) {
        let n = self.host.dim();
        out.clear();
        match self.d {
            1 => {
                for i in 0..n {
                    out.push(center ^ (1u64 << i));
                }
            }
            2 => {
                for i in 0..n {
                    out.push(center ^ (1u64 << i));
                }
                for i in 0..n {
                    for j in (i + 1)..n {
                        out.push(center ^ (1u64 << i) ^ (1u64 << j));
                    }
                }
            }
            _ => {
                // Generic (small d): BFS over flips, d ≤ 3 in practice.
                let mut frontier = vec![center];
                let mut seen = std::collections::HashSet::new();
                seen.insert(center);
                for _ in 0..self.d {
                    let mut next = Vec::new();
                    for &a in &frontier {
                        for i in 0..n {
                            let b = a ^ (1u64 << i);
                            if seen.insert(b) {
                                next.push(b);
                                out.push(b);
                            }
                        }
                    }
                    frontier = next;
                }
            }
        }
    }

    /// Candidate addresses for `node` honoring all placed guest neighbors,
    /// the injectivity constraint, and the bit first-use canonical rule.
    fn candidates_for(&self, node: usize) -> Vec<u64> {
        let placed: Vec<u64> = self
            .guest
            .neighbors(node)
            .iter()
            .filter_map(|&nb| {
                let a = self.map[nb as usize];
                (a != u64::MAX).then_some(a)
            })
            .collect();

        if placed.is_empty() {
            // Only reachable for the first node of a component; pin to the
            // canonical address (translation symmetry for the first, plus
            // cheap anchoring for later components).
            return if self.used[0] {
                (1..self.host.nodes())
                    .filter(|&a| !self.used[a as usize])
                    .collect()
            } else {
                vec![0]
            };
        }

        let mut ball = Vec::new();
        self.ball(placed[0], &mut ball);
        ball.retain(|&c| {
            if self.used[c as usize] || !placed[1..].iter().all(|&p| hamming(c, p) <= self.d) {
                return false;
            }
            if !self.first_use_canonical(c) {
                self.sym_prunes.set(self.sym_prunes.get() + 1);
                return false;
            }
            true
        });
        ball
    }

    /// Enforce the ascending first-use order of bit positions: fresh bits
    /// in `c` must be exactly the lowest unused positions.
    fn first_use_canonical(&self, c: u64) -> bool {
        let prefix_mask = if self.used_bit_prefix >= 64 {
            u64::MAX
        } else {
            (1u64 << self.used_bit_prefix) - 1
        };
        let fresh = c & !prefix_mask;
        if fresh == 0 {
            return true;
        }
        // Fresh bits must be contiguous starting at `used_bit_prefix`.
        let t = fresh.count_ones();
        let expect = ((1u64 << t) - 1) << self.used_bit_prefix;
        fresh == expect
    }

    /// Every unplaced node with placed neighbors still has a live candidate.
    fn frontier_feasible(&self, from_depth: usize) -> bool {
        let mut ball = Vec::new();
        for &node_u32 in &self.order[from_depth..] {
            let node = node_u32 as usize;
            let placed: Vec<u64> = self
                .guest
                .neighbors(node)
                .iter()
                .filter_map(|&nb| {
                    let a = self.map[nb as usize];
                    (a != u64::MAX).then_some(a)
                })
                .collect();
            if placed.len() < 2 {
                // Zero or one placed neighbor: a free address within one
                // ball almost always exists; skip the expensive check.
                continue;
            }
            self.ball(placed[0], &mut ball);
            let ok = ball.iter().any(|&c| {
                !self.used[c as usize] && placed[1..].iter().all(|&p| hamming(c, p) <= self.d)
            });
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_topology::{Mesh, Torus};

    fn row_major_order(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    fn check_map(guest: &Graph, map: &[u64], d: u32) {
        let mut seen = std::collections::HashSet::new();
        for &a in map {
            assert!(seen.insert(a), "map not injective");
        }
        for &(u, v) in guest.edges() {
            assert!(
                hamming(map[u as usize], map[v as usize]) <= d,
                "edge {}-{} dilated beyond {}",
                u,
                v,
                d
            );
        }
    }

    #[test]
    fn finds_gray_like_embedding_for_power_of_two_path() {
        let g = Mesh::from_dims(&[8]).to_graph();
        let cfg = SearchConfig {
            host_dim: 3,
            max_dilation: 1,
            node_budget: 1_000_000,
            shuffle_seed: None,
        };
        match find_embedding(&g, &row_major_order(8), &cfg) {
            SearchOutcome::Found(map) => check_map(&g, &map, 1),
            other => panic!("expected Found, got {:?}", other),
        }
    }

    #[test]
    fn finds_3x5_dilation2_in_q4() {
        // One of the paper's three direct 2-D embeddings [14].
        let g = Mesh::from_dims(&[3, 5]).to_graph();
        let cfg = SearchConfig::dilation2_minimal(15);
        match find_embedding(&g, &row_major_order(15), &cfg) {
            SearchOutcome::Found(map) => check_map(&g, &map, 2),
            other => panic!("expected Found, got {:?}", other),
        }
    }

    #[test]
    fn finds_3x3x3_and_11x11_dilation2_minimal() {
        // The paper's direct 3-D embedding and its largest 2-D one, in
        // their minimal cubes Q5 and Q7.
        for dims in [&[3usize, 3, 3][..], &[11, 11]] {
            let g = Mesh::from_dims(dims).to_graph();
            let cfg = SearchConfig::dilation2_minimal(g.nodes());
            match find_embedding(&g, &row_major_order(g.nodes()), &cfg) {
                SearchOutcome::Found(map) => check_map(&g, &map, 2),
                other => panic!("{dims:?}: expected Found, got {other:?}"),
            }
        }
    }

    #[test]
    fn proves_3x5_has_no_dilation1_embedding_in_q4() {
        // Theorem 1: dilation-1 needs Σ⌈log₂ℓᵢ⌉ = 2 + 3 = 5 > 4 dims.
        let g = Mesh::from_dims(&[3, 5]).to_graph();
        let cfg = SearchConfig {
            host_dim: 4,
            max_dilation: 1,
            node_budget: 100_000_000,
            shuffle_seed: None,
        };
        assert_eq!(
            find_embedding(&g, &row_major_order(15), &cfg),
            SearchOutcome::Exhausted
        );
    }

    #[test]
    fn odd_ring_needs_dilation_two() {
        // Odd cycles don't embed with dilation 1 (bipartiteness).
        let g = Torus::from_dims(&[5]).to_graph();
        let cfg1 = SearchConfig {
            host_dim: 3,
            max_dilation: 1,
            node_budget: 10_000_000,
            shuffle_seed: None,
        };
        assert_eq!(
            find_embedding(&g, &row_major_order(5), &cfg1),
            SearchOutcome::Exhausted
        );
        let cfg2 = SearchConfig {
            host_dim: 3,
            max_dilation: 2,
            node_budget: 10_000_000,
            shuffle_seed: None,
        };
        assert!(matches!(
            find_embedding(&g, &row_major_order(5), &cfg2),
            SearchOutcome::Found(_)
        ));
    }

    #[test]
    fn budget_is_respected() {
        let g = Mesh::from_dims(&[7, 9]).to_graph();
        let cfg = SearchConfig {
            host_dim: 6,
            max_dilation: 2,
            node_budget: 10,
            shuffle_seed: None,
        };
        // With a 10-step budget the search cannot finish 63 nodes.
        assert_eq!(
            find_embedding(&g, &row_major_order(63), &cfg),
            SearchOutcome::BudgetExceeded
        );
    }

    #[test]
    fn shuffled_candidates_still_valid() {
        let g = Mesh::from_dims(&[3, 3]).to_graph();
        for seed in 0..5u64 {
            let cfg = SearchConfig {
                host_dim: 4,
                max_dilation: 1,
                node_budget: 1_000_000,
                shuffle_seed: Some(seed),
            };
            match find_embedding(&g, &row_major_order(9), &cfg) {
                SearchOutcome::Found(map) => check_map(&g, &map, 1),
                other => panic!("expected Found, got {:?}", other),
            }
        }
    }
}
