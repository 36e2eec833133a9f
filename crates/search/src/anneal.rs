//! Simulated annealing over injective maps.
//!
//! For guests too large for exact search (`11×11 → Q₇` has 121 nodes), and
//! for *negative* probes such as the paper's open `5×5×5` question, we
//! minimize the total dilation excess
//!
//! ```text
//! E(φ) = Σ_{(u,v) ∈ E(G)} max(0, Hamming(φ(u), φ(v)) − D)
//! ```
//!
//! over injective maps `φ : V(G) → V(Q_n)` with moves that either relocate
//! a node to a free address or swap two nodes, biased toward endpoints of
//! violated edges. `E(φ) = 0` is exactly a dilation-`D` embedding.

use cubemesh_obs as obs;
use cubemesh_topology::{hamming, Graph, Hypercube};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Annealer configuration.
#[derive(Clone, Debug)]
pub struct AnnealConfig {
    /// Host cube dimension.
    pub host_dim: u32,
    /// Dilation bound `D`.
    pub max_dilation: u32,
    /// Number of proposed moves.
    pub steps: u64,
    /// Initial temperature.
    pub t_start: f64,
    /// Final temperature (geometric schedule).
    pub t_end: f64,
    /// RNG seed.
    pub seed: u64,
}

impl AnnealConfig {
    /// A reasonable default schedule for a dilation-2 search in the minimal
    /// cube of a `nodes`-node guest.
    pub fn dilation2_minimal(nodes: usize, seed: u64) -> Self {
        AnnealConfig {
            host_dim: cubemesh_topology::cube_dim(nodes as u64),
            max_dilation: 2,
            steps: 2_000_000,
            t_start: 2.5,
            t_end: 0.01,
            seed,
        }
    }
}

/// Outcome of an annealing run.
#[derive(Clone, Debug)]
pub enum AnnealOutcome {
    /// Zero-energy map found: a valid dilation-`D` embedding.
    Found(Vec<u64>),
    /// Best map reached, with its residual energy (`> 0`).
    Best { map: Vec<u64>, energy: u64 },
}

/// Run simulated annealing. Deterministic for a fixed config.
pub fn anneal(guest: &Graph, cfg: &AnnealConfig) -> AnnealOutcome {
    obs::span!("search.anneal");
    let outcome = anneal_inner(guest, cfg);
    match &outcome {
        AnnealOutcome::Found(_) => {
            obs::counter!("search.anneal.found").inc();
            obs::histogram!("search.anneal.energy").record(0);
        }
        AnnealOutcome::Best { energy, .. } => {
            obs::histogram!("search.anneal.energy").record(*energy);
        }
    }
    outcome
}

fn anneal_inner(guest: &Graph, cfg: &AnnealConfig) -> AnnealOutcome {
    let n = guest.nodes();
    let host = Hypercube::new(cfg.host_dim);
    let host_nodes = host.nodes() as usize;
    assert!(n <= host_nodes, "guest larger than host");
    assert!(cfg.host_dim <= 26, "annealer host too large");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Initial state: random injective assignment.
    let mut addresses: Vec<u64> = (0..host_nodes as u64).collect();
    addresses.shuffle(&mut rng);
    let mut map: Vec<u64> = addresses[..n].to_vec();
    // occupant[addr] = node + 1, or 0 if free.
    let mut occupant = vec![0u32; host_nodes];
    for (v, &a) in map.iter().enumerate() {
        occupant[a as usize] = v as u32 + 1;
    }

    let edge_excess =
        |a: u64, b: u64| -> u64 { (hamming(a, b) as u64).saturating_sub(cfg.max_dilation as u64) };
    let node_energy = |map: &[u64], v: usize| -> u64 {
        guest
            .neighbors(v)
            .iter()
            .map(|&w| edge_excess(map[v], map[w as usize]))
            .sum()
    };
    let mut energy: u64 = guest
        .edges()
        .iter()
        .map(|&(u, v)| edge_excess(map[u as usize], map[v as usize]))
        .sum();

    if energy == 0 {
        return AnnealOutcome::Found(map);
    }

    let mut best_map = map.clone();
    let mut best_energy = energy;
    let cool = (cfg.t_end / cfg.t_start).powf(1.0 / cfg.steps.max(1) as f64);
    let mut temp = cfg.t_start;
    // Batched locally; flushed to the global counters on every exit path so
    // the proposal loop stays free of atomics (see `flush` below).
    let mut proposals = 0u64;
    let mut accepts = 0u64;
    let flush = |proposals: u64, accepts: u64| {
        obs::counter!("search.anneal.proposals").add(proposals);
        obs::counter!("search.anneal.accepts").add(accepts);
    };

    for _ in 0..cfg.steps {
        proposals += 1;
        temp *= cool;
        // Pick a node, biased toward violated ones: sample a few and take
        // the one with the highest local energy.
        let mut v = rng.random_range(0..n);
        for _ in 0..2 {
            let w = rng.random_range(0..n);
            if node_energy(&map, w) > node_energy(&map, v) {
                v = w;
            }
        }

        // Propose: relocate to a random address (swap if occupied).
        let target = rng.random_range(0..host_nodes as u64);
        let old_addr = map[v];
        if target == old_addr {
            continue;
        }
        let other = occupant[target as usize];

        let delta: i64 = if other == 0 {
            let before = node_energy(&map, v) as i64;
            map[v] = target;
            let after = node_energy(&map, v) as i64;
            map[v] = old_addr;
            after - before
        } else {
            let w = (other - 1) as usize;
            let before = (node_energy(&map, v) + node_energy(&map, w)) as i64
                - edge_excess(map[v], map[w]) as i64; // avoid double count if adjacent
            map[v] = target;
            map[w] = old_addr;
            let after = (node_energy(&map, v) + node_energy(&map, w)) as i64
                - edge_excess(map[v], map[w]) as i64;
            map[v] = old_addr;
            map[w] = target;
            after - before
        };

        let accept = delta <= 0 || rng.random::<f64>() < (-(delta as f64) / temp.max(1e-9)).exp();
        if accept {
            accepts += 1;
            if other == 0 {
                occupant[old_addr as usize] = 0;
                occupant[target as usize] = v as u32 + 1;
                map[v] = target;
            } else {
                let w = (other - 1) as usize;
                occupant[old_addr as usize] = w as u32 + 1;
                occupant[target as usize] = v as u32 + 1;
                map[v] = target;
                map[w] = old_addr;
            }
            energy = (energy as i64 + delta) as u64;
            if energy < best_energy {
                best_energy = energy;
                best_map = map.clone();
                if energy == 0 {
                    flush(proposals, accepts);
                    return AnnealOutcome::Found(map);
                }
            }
        }
    }

    flush(proposals, accepts);
    if best_energy == 0 {
        AnnealOutcome::Found(best_map)
    } else {
        AnnealOutcome::Best {
            map: best_map,
            energy: best_energy,
        }
    }
}

/// Run annealing with multiple seeds, returning the first success or the
/// best failure. `restarts == 0` is treated as 1: there is always at
/// least one outcome to return.
pub fn anneal_restarts(guest: &Graph, base: &AnnealConfig, restarts: u64) -> AnnealOutcome {
    let mut best_energy = u64::MAX;
    let mut best_map: Vec<u64> = Vec::new();
    for r in 0..restarts.max(1) {
        if r > 0 {
            obs::counter!("search.anneal.restarts").inc();
        }
        let cfg = AnnealConfig {
            seed: base.seed.wrapping_add(r * 0x9E37),
            ..base.clone()
        };
        match anneal(guest, &cfg) {
            AnnealOutcome::Found(map) => return AnnealOutcome::Found(map),
            AnnealOutcome::Best { map, energy } => {
                if energy < best_energy {
                    best_energy = energy;
                    best_map = map;
                }
            }
        }
    }
    AnnealOutcome::Best {
        map: best_map,
        energy: best_energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_topology::Mesh;

    fn check_found(guest: &Graph, map: &[u64], d: u32) {
        let mut seen = std::collections::HashSet::new();
        for &a in map {
            assert!(seen.insert(a));
        }
        for &(u, v) in guest.edges() {
            assert!(hamming(map[u as usize], map[v as usize]) <= d);
        }
    }

    #[test]
    fn anneal_finds_small_embedding() {
        let g = Mesh::from_dims(&[3, 5]).to_graph();
        let cfg = AnnealConfig {
            steps: 300_000,
            ..AnnealConfig::dilation2_minimal(15, 42)
        };
        match anneal_restarts(&g, &cfg, 5) {
            AnnealOutcome::Found(map) => check_found(&g, &map, 2),
            AnnealOutcome::Best { energy, .. } => {
                panic!("3x5 should anneal to zero energy, stuck at {}", energy)
            }
        }
    }

    #[test]
    fn anneal_energy_never_negative_and_monotone_best() {
        let g = Mesh::from_dims(&[4, 4]).to_graph();
        let cfg = AnnealConfig {
            host_dim: 4,
            max_dilation: 1,
            steps: 200_000,
            t_start: 2.0,
            t_end: 0.01,
            seed: 1,
        };
        // 4x4 in Q4 with dilation 1 exists (Gray); annealing should find
        // one (it may take a few restarts — the space is tiny).
        match anneal_restarts(&g, &cfg, 20) {
            AnnealOutcome::Found(map) => check_found(&g, &map, 1),
            AnnealOutcome::Best { energy, .. } => {
                panic!("4x4/Q4 dilation-1 exists; stuck at energy {}", energy)
            }
        }
    }
}
