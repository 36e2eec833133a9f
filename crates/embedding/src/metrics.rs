//! Expansion, dilation, congestion, and their averages (Definitions 1–3),
//! plus the load-factor of §7 for many-to-one maps.
//!
//! Congestion is exact and never materializes a per-host-edge array the
//! size of the cube. Every reader walks the routes in place, hop by hop:
//! a path-form route straight from its stored nodes, a hop-form route by
//! recomputing each step from the map and the stored dimension (see
//! [`crate::route`]), so no route is decoded into a buffer.
//!
//! When the host's edge-index space fits in `u32` (any cube up to
//! `Q_27`), steps take the *bucketed counting* path. Each route shard
//! walks its routes twice: once counting how many steps fall in each
//! contiguous bucket of `2^15` edge indices (a 128 KiB count window —
//! L2-resident), once scattering each step's in-bucket offset, a `u16`,
//! into its bucket's segment. Then each bucket is counted through the
//! reused window with an on-the-fly max. A shard so keeps 2 bytes per
//! hop, and both phases are embarrassingly parallel (shards, then
//! buckets); every value is an exact integer, so the sharded result is
//! bitwise identical to the sequential one.
//!
//! Larger cubes (`space > u32::MAX`) fall back to the sort-and-merge
//! path: per-shard sorted `u64` step lists, k-way merged while counting
//! runs. [`metrics_par`] and [`metrics_seq`] are property-tested for
//! exact agreement on both paths.

use crate::builders::PAR_MIN_NODES;
use crate::map::{Embedding, GuestEdgeIter};
use crate::route::{flip, RouteSet};
use cubemesh_obs as obs;
use cubemesh_pool::{effective_threads, run_tasks};
use cubemesh_topology::Hypercube;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// All figures of merit of an embedding.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metrics {
    /// Host cube dimension `n`.
    pub host_dim: u32,
    /// `|V(G)|`.
    pub guest_nodes: usize,
    /// `|E(G)|`.
    pub guest_edge_count: usize,
    /// `|V(H)| / |V(G)|`.
    pub expansion: f64,
    /// `max_e |φ(e)|`.
    pub dilation: u32,
    /// `Σ_e |φ(e)| / |E(G)|`.
    pub avg_dilation: f64,
    /// `max_{e'∈E(H)} cong(e')`.
    pub congestion: u32,
    /// `Σ_{e'∈E(H)} cong(e') / |E(H)| = Σ_e |φ(e)| / |E(H)|`.
    pub avg_congestion: f64,
}

impl Metrics {
    /// `true` if the embedding is into the minimal cube.
    pub fn is_minimal_expansion(&self) -> bool {
        let minimal = cubemesh_topology::cube_dim(self.guest_nodes as u64);
        self.host_dim == minimal
    }
}

/// Compute all metrics of an embedding. Dispatches to the sharded path when
/// more than one pool thread is available and the routes are long enough
/// to amortize the worker hand-off; both paths return identical values.
pub fn metrics(e: &Embedding) -> Metrics {
    if effective_threads() > 1 && has_hops(e, PAR_MIN_NODES as u64) {
        metrics_par(e)
    } else {
        metrics_seq(e)
    }
}

/// Single-threaded metrics: one pass gathering steps, one sort, one run
/// count.
pub fn metrics_seq(e: &Embedding) -> Metrics {
    obs::span!("metrics.seq");
    dil_cong_dispatch(e, 1)
}

/// Sharded metrics: contiguous route chunks per worker, per-worker sorts,
/// k-way run-counting merge. Always uses at least two shards so the merge
/// path is exercised (and testable) even on a single-core host; agrees
/// exactly with [`metrics_seq`].
pub fn metrics_par(e: &Embedding) -> Metrics {
    obs::span!("metrics.par");
    let parts = effective_threads().max(2);
    obs::trace::gauge("metrics.shards", parts as u64);
    dil_cong_dispatch(e, parts)
}

/// Do the routes take at least `min` hops in total? Every route takes one
/// or more, so only a set of fewer than `min` routes needs the scan.
fn has_hops(e: &Embedding, min: u64) -> bool {
    let routes = e.routes();
    routes.len() as u64 >= min || routes.total_length() >= min
}

fn dil_cong_dispatch(e: &Embedding, parts: usize) -> Metrics {
    let host = e.host();
    let space = host.edge_index_space();
    // Any cube with edge_index_space() <= u32::MAX (dim <= 27) takes the
    // bucketed counting path — 2 bytes per hop and no sort; giant cubes
    // fall back to sort-and-merge over u64 steps, and so do tiny route
    // sets, where the count window's zero-fill would dominate the
    // handful of steps being counted.
    let bucketed = space <= u32::MAX as usize && has_hops(e, SMALL_SORT_MAX);
    let counted = if bucketed {
        dil_cong_bucketed(e, parts)
    } else {
        dil_cong(e, parts, |i| i as u64)
    };
    finish_metrics(e, counted)
}

/// Visit every hop of the routes from edge id `first_edge` on, one route
/// per edge of `edges`, in order: `hop(from, bit)` is the step from node
/// `from` across cube dimension `bit`. Returns the longest route's hop
/// count. A path-form route is read from its stored nodes; a hop-form
/// route is recomputed from its edge's images and stored dimensions.
fn walk_hops(
    e: &Embedding,
    first_edge: usize,
    edges: GuestEdgeIter<'_>,
    mut hop: impl FnMut(u64, u32),
) -> u32 {
    let mut dil = 0u32;
    match e.routes() {
        RouteSet::Paths(paths) => {
            for (_, path) in edges.zip(paths.paths_from(first_edge)) {
                dil = dil.max(path.len().saturating_sub(1) as u32);
                for w in path.windows(2) {
                    hop(w[0], (w[0] ^ w[1]).trailing_zeros());
                }
            }
        }
        RouteSet::Hops(hops) => {
            let map = e.map();
            for ((u, v), interior) in edges.zip(hops.interiors(first_edge)) {
                let mut cur = map[u as usize];
                for &d in interior {
                    hop(cur, u32::from(d));
                    cur = flip(cur, d);
                }
                hop(cur, (cur ^ map[v as usize]).trailing_zeros());
                dil = dil.max(interior.len() as u32 + 1);
            }
        }
    }
    dil
}

/// Bucket granularity for the counting path: `2^15` u32 slots = 128 KiB
/// per count window, sized to stay L2-resident while counting.
const BUCKET_BITS: u32 = 15;
const BUCKET_WIDTH: usize = 1 << BUCKET_BITS;

/// Route sets with fewer hops than this sort faster than they bucket (the
/// count window's zero-fill alone outweighs sorting a few thousand
/// steps), so they keep the u64 sort-and-merge path.
const SMALL_SORT_MAX: u64 = 1 << 16;

/// Longest route, worst congestion and total hops of a route set.
struct Counted {
    dilation: u32,
    congestion: u32,
    hops: u64,
}

/// One route shard's gathered steps: dilation max plus step indices
/// partitioned into bucket-contiguous segments (`offs` holds the prefix
/// sums; bucket `b` is `steps[offs[b]..offs[b + 1]]`). Steps are stored
/// as *in-bucket* offsets — the low `BUCKET_BITS` of the edge index,
/// which is all the count phase needs once the bucket is fixed.
struct ShardSteps {
    dil: u32,
    offs: Vec<u32>,
    steps: Vec<u16>,
}

/// Gather one contiguous route range in two walks: the first finds the
/// dilation max and each bucket's step count, the second scatters every
/// step's in-bucket offset into its bucket's segment. Recomputing a step
/// is cheaper than keeping a 4-byte index per hop between the walks.
fn gather_shard(
    e: &Embedding,
    first_edge: usize,
    edges: GuestEdgeIter<'_>,
    nbuckets: usize,
) -> ShardSteps {
    let host = e.host();
    // Four interleaved sub-histograms, rotated per step: consecutive
    // steps usually land in the same bucket, and a single counter array
    // would serialize every increment on store-to-load forwarding.
    let mut hist = vec![0u32; 4 * nbuckets];
    let mut lane = 0usize;
    let dil = walk_hops(e, first_edge, edges.clone(), |from, bit| {
        let b = host.edge_index(from, bit) >> BUCKET_BITS;
        hist[4 * b + lane] += 1;
        lane = (lane + 1) & 3;
    });
    let mut offs = vec![0u32; nbuckets + 1];
    for (b, counts) in hist.chunks_exact(4).enumerate() {
        offs[b + 1] = offs[b] + counts.iter().sum::<u32>();
    }
    drop(hist);
    const LOW_MASK: usize = BUCKET_WIDTH - 1;
    let mut cursor = offs.clone();
    let mut steps = vec![0u16; offs[nbuckets] as usize];
    walk_hops(e, first_edge, edges, |from, bit| {
        let idx = host.edge_index(from, bit);
        let at = &mut cursor[idx >> BUCKET_BITS];
        steps[*at as usize] = (idx & LOW_MASK) as u16;
        *at += 1;
    });
    ShardSteps { dil, offs, steps }
}

/// Count a run of buckets across all shards through one reused
/// L2-resident window, tracking the max on the fly. Each slot carries the
/// bucket index that last wrote it in its high half; a slot whose tag is
/// stale reads as zero, so no reset pass between buckets is needed and
/// every step is touched exactly once. (A fresh window starts all-zero,
/// which is exactly "tag 0, count 0" — correct for the first bucket too.)
fn bucket_group_max(shards: &[ShardSteps], blo: usize, bhi: usize, space: usize) -> u32 {
    let mut window = vec![0u64; BUCKET_WIDTH.min(space.max(1))];
    let mut best = 0u32;
    for b in blo..bhi {
        let tag = (b as u64) << 32;
        for sh in shards {
            let seg = &sh.steps[sh.offs[b] as usize..sh.offs[b + 1] as usize];
            for &s in seg {
                let k = s as usize;
                let v = window[k];
                let c = (if v >> 32 == b as u64 { v } else { tag }) + 1;
                window[k] = c;
                best = best.max(c as u32);
            }
        }
    }
    best
}

/// Dilation + congestion via bucketed counting (see module docs): route
/// shards gather and partition in parallel, buckets count in parallel,
/// and every merge is an integer max — the sharded result is bitwise
/// identical to `parts == 1` by construction.
fn dil_cong_bucketed(e: &Embedding, parts: usize) -> Counted {
    let space = e.host().edge_index_space();
    let nbuckets = space.max(1).div_ceil(BUCKET_WIDTH);
    let shards: Vec<ShardSteps> = if parts <= 1 || e.edge_count() < 2 {
        vec![gather_shard(e, 0, e.edges_iter(), nbuckets)]
    } else {
        let chunks = e.edges().chunks(parts);
        run_tasks(chunks.len(), |i| {
            let (first_edge, edges) = chunks[i].clone();
            gather_shard(e, first_edge, edges, nbuckets)
        })
    };
    let dilation = shards.iter().map(|s| s.dil).max().unwrap_or(0);
    let hops = shards.iter().map(|s| s.steps.len() as u64).sum();
    let shards = &shards;
    let congestion = if parts <= 1 || nbuckets < 2 {
        bucket_group_max(shards, 0, nbuckets, space)
    } else {
        // One reused window per bucket group; groups oversplit so the
        // pool can rebalance unevenly-loaded bucket ranges.
        let group = nbuckets.div_ceil(parts * 4).max(1);
        let groups: Vec<(usize, usize)> = (0..nbuckets)
            .step_by(group)
            .map(|blo| (blo, (blo + group).min(nbuckets)))
            .collect();
        run_tasks(groups.len(), |g| {
            let (blo, bhi) = groups[g];
            bucket_group_max(shards, blo, bhi, space)
        })
        .into_iter()
        .fold(0, u32::max)
    };
    Counted {
        dilation,
        congestion,
        hops,
    }
}

fn finish_metrics(e: &Embedding, counted: Counted) -> Metrics {
    let host = e.host();
    let guest_edge_count = e.edge_count();
    let total_len = counted.hops;
    let host_edges = host.edge_count();
    Metrics {
        host_dim: host.dim(),
        guest_nodes: e.guest_nodes(),
        guest_edge_count,
        expansion: e.expansion(),
        dilation: counted.dilation,
        avg_dilation: if guest_edge_count == 0 {
            0.0
        } else {
            total_len as f64 / guest_edge_count as f64
        },
        congestion: counted.congestion,
        avg_congestion: if host_edges == 0 {
            0.0
        } else {
            total_len as f64 / host_edges as f64
        },
    }
}

/// Maximum dilation and congestion over the routes, sharded `parts` ways.
/// `conv` narrows the dense host-edge index to the counting type.
fn dil_cong<T>(e: &Embedding, parts: usize, conv: impl Fn(usize) -> T + Send + Sync) -> Counted
where
    T: Ord + Copy + Send,
{
    let host = e.host();
    let gather = |first_edge: usize, edges: GuestEdgeIter<'_>| -> (u32, Vec<T>) {
        let mut steps: Vec<T> = Vec::new();
        let dil = walk_hops(e, first_edge, edges, |from, bit| {
            steps.push(conv(host.edge_index(from, bit)));
        });
        steps.sort_unstable();
        (dil, steps)
    };

    if parts <= 1 || e.edge_count() < 2 {
        let (dilation, steps) = gather(0, e.edges_iter());
        return Counted {
            dilation,
            congestion: max_run_sorted(&steps),
            hops: steps.len() as u64,
        };
    }

    let chunks = e.edges().chunks(parts);
    let shards: Vec<(u32, Vec<T>)> = run_tasks(chunks.len(), |i| {
        let (first_edge, edges) = chunks[i].clone();
        gather(first_edge, edges)
    });
    let dilation = shards.iter().map(|s| s.0).max().unwrap_or(0);
    let lists: Vec<Vec<T>> = shards.into_iter().map(|s| s.1).collect();
    Counted {
        dilation,
        congestion: max_run_merged(&lists),
        hops: lists.iter().map(|l| l.len() as u64).sum(),
    }
}

/// Longest run in an already-sorted slice.
fn max_run_sorted<T: Ord + Copy>(items: &[T]) -> u32 {
    let mut best = 0u32;
    let mut run = 0u32;
    let mut prev = None;
    for &x in items {
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

/// Longest run across sorted lists, k-way merged with a min-heap. The merge
/// visits elements in exactly the order a global sort would, so the result
/// equals `max_run_sorted` of the concatenated-and-sorted lists.
fn max_run_merged<T: Ord + Copy>(lists: &[Vec<T>]) -> u32 {
    let mut heap: BinaryHeap<Reverse<(T, usize)>> = lists
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_empty())
        .map(|(i, l)| Reverse((l[0], i)))
        .collect();
    let mut pos = vec![1usize; lists.len()];
    let mut best = 0u32;
    let mut run = 0u32;
    let mut prev = None;
    while let Some(Reverse((x, i))) = heap.pop() {
        if prev == Some(x) {
            run += 1;
        } else {
            run = 1;
            prev = Some(x);
        }
        best = best.max(run);
        let p = pos[i];
        if p < lists[i].len() {
            heap.push(Reverse((lists[i][p], i)));
            pos[i] = p + 1;
        }
    }
    best
}

/// Load-factor (Definition 5): the maximum number of guest nodes mapped to
/// one host node. For one-to-one maps this is 1 (or 0 for an empty map).
pub fn load_factor(map: &[u64], host: Hypercube) -> u32 {
    debug_assert!(map.iter().all(|&a| host.contains(a)));
    let _ = host;
    let mut sorted: Vec<u64> = map.to_vec();
    sorted.sort_unstable();
    max_run_sorted(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::PathRoutes;

    fn ring4_in_q2() -> Embedding {
        // 4-ring onto all of Q2 via the cyclic Gray code.
        let map = vec![0b00, 0b01, 0b11, 0b10];
        let edges = vec![(0u32, 1u32), (1, 2), (2, 3), (0, 3)];
        let mut rs = PathRoutes::new();
        rs.push(&[0b00, 0b01]);
        rs.push(&[0b01, 0b11]);
        rs.push(&[0b11, 0b10]);
        rs.push(&[0b00, 0b10]);
        Embedding::new(4, edges, Hypercube::new(2), map, rs)
    }

    #[test]
    fn perfect_embedding_metrics() {
        let e = ring4_in_q2();
        e.verify().unwrap();
        let m = e.metrics();
        assert_eq!(m.dilation, 1);
        assert_eq!(m.congestion, 1);
        assert_eq!(m.expansion, 1.0);
        assert_eq!(m.avg_dilation, 1.0);
        assert_eq!(m.avg_congestion, 1.0);
        assert!(m.is_minimal_expansion());
    }

    #[test]
    fn dilated_route_counts() {
        // Path 0-1 mapped to opposite corners of Q2 with a length-2 route.
        let mut rs = PathRoutes::new();
        rs.push(&[0b00, 0b01, 0b11]);
        let e = Embedding::new(2, vec![(0, 1)], Hypercube::new(2), vec![0b00, 0b11], rs);
        e.verify().unwrap();
        let m = e.metrics();
        assert_eq!(m.dilation, 2);
        assert_eq!(m.avg_dilation, 2.0);
        assert_eq!(m.congestion, 1);
        assert_eq!(m.expansion, 2.0);
        assert!(!m.is_minimal_expansion());
    }

    #[test]
    fn congestion_counts_overlaps() {
        // Two guest edges routed across the same cube edge 00-01.
        let mut rs = PathRoutes::new();
        rs.push(&[0b00, 0b01]);
        rs.push(&[0b10, 0b00, 0b01, 0b11]);
        let e = Embedding::new(
            4,
            vec![(0, 1), (2, 3)],
            Hypercube::new(2),
            vec![0b00, 0b01, 0b10, 0b11],
            rs,
        );
        e.verify().unwrap();
        let m = e.metrics();
        assert_eq!(m.congestion, 2);
        assert_eq!(m.dilation, 3);
    }

    #[test]
    fn zero_edge_guest() {
        let e = Embedding::new(1, vec![], Hypercube::new(0), vec![0], PathRoutes::new());
        for m in [metrics_seq(&e), metrics_par(&e)] {
            assert_eq!(m.dilation, 0);
            assert_eq!(m.congestion, 0);
            assert_eq!(m.avg_dilation, 0.0);
            assert_eq!(m.avg_congestion, 0.0);
        }
    }

    #[test]
    fn par_agrees_with_seq_on_small_fixture() {
        let e = ring4_in_q2();
        assert_eq!(metrics_seq(&e), metrics_par(&e));
    }

    #[test]
    fn merged_run_equals_global_sort() {
        let lists = vec![vec![1u32, 3, 3, 9], vec![], vec![2, 3, 3, 3], vec![3]];
        let mut flat: Vec<u32> = lists.iter().flatten().copied().collect();
        flat.sort_unstable();
        assert_eq!(max_run_merged(&lists), max_run_sorted(&flat));
        assert_eq!(max_run_merged(&lists), 6); // six 3s across the lists
        assert_eq!(max_run_merged::<u32>(&[]), 0);
    }

    #[test]
    fn load_factor_counts_max_multiplicity() {
        let host = Hypercube::new(2);
        assert_eq!(load_factor(&[0, 1, 2, 3], host), 1);
        assert_eq!(load_factor(&[0, 1, 1, 3], host), 2);
        assert_eq!(load_factor(&[2, 2, 2, 2], host), 4);
        assert_eq!(load_factor(&[], host), 0);
    }
}
