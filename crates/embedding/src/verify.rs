//! Semantic validation of embeddings.
//!
//! Every construction in the workspace — Gray codes, product embeddings,
//! search results, torus constructions — is checked through this module in
//! tests, so a bug in any builder surfaces as a precise [`VerifyError`].
//!
//! Route checks shard over contiguous edge-id chunks when more than one
//! pool thread is available. Chunks are scanned in order within a worker
//! and the error from the earliest failing chunk is reported, so the
//! parallel path returns *exactly* the error the sequential scan would —
//! [`verify_many_to_one_par`] and [`verify_many_to_one_seq`] are
//! property-tested for agreement on both passing and failing embeddings.
//!
//! Injectivity is one pass over a host-address bitmap whenever the bitmap
//! is no bigger than the map; a failing pass, or a host too sparse for a
//! bitmap, falls back to sorting `(address, node)` pairs, which builds the
//! error. Either way the reported error is the sort's.

use crate::builders::PAR_MIN_NODES;
use crate::map::{Embedding, GuestEdgeIter};
use crate::route::{flip, HopRoutes, PathRoutes, RouteSet};
use cubemesh_obs as obs;
use cubemesh_pool::{effective_threads, run_each};
use cubemesh_topology::{hamming, Hypercube};
use std::fmt;

/// Why an embedding failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A mapped address does not fit in the host cube.
    AddressOutOfRange { node: usize, address: u64 },
    /// Two guest nodes share a host address (the map is not one-to-one).
    NotInjective {
        node_a: usize,
        node_b: usize,
        address: u64,
    },
    /// A guest edge index is out of range.
    EdgeOutOfRange { edge: usize },
    /// A route does not start at the image of its edge's first endpoint.
    RouteStartMismatch {
        edge: usize,
        expected: u64,
        found: u64,
    },
    /// A route does not end at the image of its edge's second endpoint.
    RouteEndMismatch {
        edge: usize,
        expected: u64,
        found: u64,
    },
    /// Two consecutive route nodes are not cube neighbors.
    RouteStepNotAdjacent {
        edge: usize,
        step: usize,
        from: u64,
        to: u64,
    },
    /// A route visits the same cube node twice (routes must be simple
    /// paths; Definition 2 measures dilation as the path length, which is
    /// only meaningful for simple paths).
    RouteNotSimple { edge: usize, address: u64 },
    /// A route leaves the host cube.
    RouteOutOfRange { edge: usize, address: u64 },
    /// A route has no nodes at all (even a self-mapped edge must carry
    /// the single-node path). [`PathRoutes::push`](crate::PathRoutes::push)
    /// already rejects empty routes, so this is defense-in-depth: the
    /// verifier does not assume the container upheld its invariant.
    RouteEmpty { edge: usize },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::AddressOutOfRange { node, address } => {
                write!(f, "node {node} maps to {address:#x}, outside the host cube")
            }
            VerifyError::NotInjective {
                node_a,
                node_b,
                address,
            } => write!(f, "nodes {node_a} and {node_b} both map to {address:#x}"),
            VerifyError::EdgeOutOfRange { edge } => {
                write!(f, "edge {edge} references a node out of range")
            }
            VerifyError::RouteStartMismatch {
                edge,
                expected,
                found,
            } => write!(
                f,
                "route {edge} starts at {found:#x}, expected {expected:#x}"
            ),
            VerifyError::RouteEndMismatch {
                edge,
                expected,
                found,
            } => write!(f, "route {edge} ends at {found:#x}, expected {expected:#x}"),
            VerifyError::RouteStepNotAdjacent {
                edge,
                step,
                from,
                to,
            } => write!(
                f,
                "route {edge} step {step}: {from:#x} -> {to:#x} is not a cube edge"
            ),
            VerifyError::RouteNotSimple { edge, address } => {
                write!(f, "route {edge} revisits {address:#x}")
            }
            VerifyError::RouteOutOfRange { edge, address } => {
                write!(f, "route {edge} leaves the cube at {address:#x}")
            }
            VerifyError::RouteEmpty { edge } => {
                write!(f, "route {edge} is empty")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Validate an embedding end to end. See [`VerifyError`] for the checks.
/// Route checks shard across pool threads for large edge sets; the result
/// (including which error is reported) is identical to a sequential scan.
pub fn verify_embedding(e: &Embedding) -> Result<(), VerifyError> {
    let addresses_checked = check_injective(e)?;
    if shard_routes(e) {
        check_routes_par(e, addresses_checked)
    } else {
        check_routes_seq(e, addresses_checked)
    }
}

/// Single-threaded [`verify_embedding`].
pub fn verify_embedding_seq(e: &Embedding) -> Result<(), VerifyError> {
    let addresses_checked = check_injective(e)?;
    check_routes_seq(e, addresses_checked)
}

/// Force-sharded [`verify_embedding`]; agrees exactly with
/// [`verify_embedding_seq`].
pub fn verify_embedding_par(e: &Embedding) -> Result<(), VerifyError> {
    let addresses_checked = check_injective(e)?;
    check_routes_par(e, addresses_checked)
}

/// Injectivity. Returns `true` when the check also proved every address
/// in range, so [`check_addresses`] can be skipped.
///
/// When a bitmap over the host is no bigger than the map itself (host
/// ≤ 64 × guest nodes) one pass marks each address. Any duplicate or
/// out-of-range address, and any sparser host, goes through the sort,
/// which reports the same `NotInjective` as always; an out-of-range
/// address on an injective map is then reported by [`check_addresses`],
/// so `NotInjective` still wins over `AddressOutOfRange`.
fn check_injective(e: &Embedding) -> Result<bool, VerifyError> {
    if bitmap_fits(e) && bitmap_is_clean(e) {
        return Ok(true);
    }
    check_injective_sorted(e)?;
    Ok(false)
}

/// Is a host-address bitmap (`host / 8` bytes) no bigger than the map
/// (8 bytes per guest node)?
fn bitmap_fits(e: &Embedding) -> bool {
    e.host().nodes() / 64 <= e.guest_nodes() as u64
}

/// One pass over a host-address bitmap: `true` iff every address is in
/// range and none repeats.
fn bitmap_is_clean(e: &Embedding) -> bool {
    let host = e.host().nodes();
    let mut seen = vec![0u64; host.div_ceil(64) as usize];
    for &addr in e.map() {
        if addr >= host {
            return false;
        }
        let word = &mut seen[(addr >> 6) as usize];
        // audit:allow(CM-A009): the shift is addr & 63, below 64
        let bit = 1u64 << (addr & 63);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
    }
    true
}

/// Injectivity by sorting (address, node) pairs: the first repeated
/// address in sorted order, with its two lowest nodes.
fn check_injective_sorted(e: &Embedding) -> Result<(), VerifyError> {
    let mut pairs: Vec<(u64, usize)> = e.map().iter().enumerate().map(|(v, &a)| (a, v)).collect();
    pairs.sort_unstable();
    for w in pairs.windows(2) {
        if w[0].0 == w[1].0 {
            return Err(VerifyError::NotInjective {
                node_a: w[0].1,
                node_b: w[1].1,
                address: w[0].0,
            });
        }
    }
    Ok(())
}

/// The non-injective validation used for §7's many-to-one embeddings:
/// address ranges and route well-formedness only. A route for an edge
/// whose endpoints share an address is the single-node path.
pub fn verify_many_to_one(e: &Embedding) -> Result<(), VerifyError> {
    if shard_routes(e) {
        verify_many_to_one_par(e)
    } else {
        verify_many_to_one_seq(e)
    }
}

/// Single-threaded [`verify_many_to_one`].
pub fn verify_many_to_one_seq(e: &Embedding) -> Result<(), VerifyError> {
    check_routes_seq(e, false)
}

/// Force-sharded [`verify_many_to_one`] (at least two chunks, so the merge
/// logic runs even on one core); agrees exactly with
/// [`verify_many_to_one_seq`], including which error is reported.
pub fn verify_many_to_one_par(e: &Embedding) -> Result<(), VerifyError> {
    check_routes_par(e, false)
}

/// Whether the route checks are worth sharding over the pool.
fn shard_routes(e: &Embedding) -> bool {
    effective_threads() > 1 && e.edge_count() >= PAR_MIN_NODES
}

/// Address ranges (unless already proven) and every route, in one scan.
fn check_routes_seq(e: &Embedding, addresses_checked: bool) -> Result<(), VerifyError> {
    obs::span!("verify.seq");
    if !addresses_checked {
        check_addresses(e)?;
    }
    check_route_range(e, 0, e.edges_iter())
}

/// [`check_routes_seq`] over contiguous edge-id shards.
fn check_routes_par(e: &Embedding, addresses_checked: bool) -> Result<(), VerifyError> {
    obs::span!("verify.par");
    if !addresses_checked {
        check_addresses(e)?;
    }
    let parts = effective_threads().max(2);
    obs::trace::gauge("verify.shards", parts as u64);
    let results = run_each(e.edges().chunks(parts), |(first_edge, edges)| {
        check_route_range(e, first_edge, edges)
    });
    // Chunks cover ascending edge-id ranges, and within a chunk the scan is
    // sequential — so the first Err in chunk order is the globally first.
    for r in results {
        r?;
    }
    Ok(())
}

fn check_addresses(e: &Embedding) -> Result<(), VerifyError> {
    let host = e.host();
    for (node, &addr) in e.map().iter().enumerate() {
        if !host.contains(addr) {
            return Err(VerifyError::AddressOutOfRange {
                node,
                address: addr,
            });
        }
    }
    Ok(())
}

/// Check the routes for a contiguous run of edges starting at id
/// `first_edge`, in order, returning the first failure.
fn check_route_range(
    e: &Embedding,
    first_edge: usize,
    edges: GuestEdgeIter<'_>,
) -> Result<(), VerifyError> {
    match e.routes() {
        RouteSet::Paths(paths) => check_paths(e, first_edge, edges, paths),
        RouteSet::Hops(hops) => check_hops(e, first_edge, edges, hops),
    }
}

/// [`check_route_range`] over stored node paths: edge bounds, empty
/// route, start, end, adjacency in step order, then range and simplicity
/// in node order.
fn check_paths(
    e: &Embedding,
    first_edge: usize,
    edges: GuestEdgeIter<'_>,
    paths: &PathRoutes,
) -> Result<(), VerifyError> {
    let host = e.host();
    let mut seen: Vec<u64> = Vec::new();
    for (i, ((u, v), route)) in (first_edge..).zip(edges.zip(paths.paths_from(first_edge))) {
        if u as usize >= e.guest_nodes() || v as usize >= e.guest_nodes() {
            return Err(VerifyError::EdgeOutOfRange { edge: i });
        }
        let (Some(&first), Some(&last)) = (route.first(), route.last()) else {
            return Err(VerifyError::RouteEmpty { edge: i });
        };
        let start = e.image(u as usize);
        let end = e.image(v as usize);
        if first != start {
            return Err(VerifyError::RouteStartMismatch {
                edge: i,
                expected: start,
                found: first,
            });
        }
        if last != end {
            return Err(VerifyError::RouteEndMismatch {
                edge: i,
                expected: end,
                found: last,
            });
        }
        for (step, w) in route.windows(2).enumerate() {
            if hamming(w[0], w[1]) != 1 {
                return Err(VerifyError::RouteStepNotAdjacent {
                    edge: i,
                    step,
                    from: w[0],
                    to: w[1],
                });
            }
        }
        seen.clear();
        for &addr in route {
            check_node(host, &mut seen, i, addr)?;
        }
    }
    Ok(())
}

/// Range, then simplicity, of node `addr` of route `edge`, given the
/// route's earlier nodes in `seen`.
#[inline]
fn check_node(
    host: Hypercube,
    seen: &mut Vec<u64>,
    edge: usize,
    addr: u64,
) -> Result<(), VerifyError> {
    if !host.contains(addr) {
        return Err(VerifyError::RouteOutOfRange {
            edge,
            address: addr,
        });
    }
    if seen.contains(&addr) {
        return Err(VerifyError::RouteNotSimple {
            edge,
            address: addr,
        });
    }
    seen.push(addr);
    Ok(())
}

/// [`check_route_range`] over hop-form routes, read in place: exactly the
/// errors [`check_paths`] reports on the decoded paths. A decoded route
/// starts and ends at its edge's images and every stored dimension flips
/// one bit, so the only step that can fail adjacency is the last, onto
/// `φ(v)`. The endpoints are mapped addresses, already proven in range
/// (by the bitmap pass or [`check_addresses`]), so a one-hop route that
/// passes adjacency also passes range and simplicity; a longer one walks
/// its nodes in order.
fn check_hops(
    e: &Embedding,
    first_edge: usize,
    edges: GuestEdgeIter<'_>,
    hops: &HopRoutes,
) -> Result<(), VerifyError> {
    let (host, map, n) = (e.host(), e.map(), e.guest_nodes());
    let mut seen: Vec<u64> = Vec::new();
    for (i, (edge, interior)) in (first_edge..).zip(edges.zip(hops.interiors(first_edge))) {
        check_hop_route(host, map, n, &mut seen, i, edge, interior)?;
    }
    Ok(())
}

/// Check hop-form route `i` of guest edge `(u, v)` flipping `interior`.
fn check_hop_route(
    host: Hypercube,
    map: &[u64],
    n: usize,
    seen: &mut Vec<u64>,
    i: usize,
    (u, v): (u32, u32),
    interior: &[u8],
) -> Result<(), VerifyError> {
    if u as usize >= n || v as usize >= n {
        return Err(VerifyError::EdgeOutOfRange { edge: i });
    }
    let (start, end) = (map[u as usize], map[v as usize]);
    let last = interior.iter().fold(start, |cur, &d| flip(cur, d));
    if !(last ^ end).is_power_of_two() {
        return Err(VerifyError::RouteStepNotAdjacent {
            edge: i,
            step: interior.len(),
            from: last,
            to: end,
        });
    }
    if interior.is_empty() {
        return Ok(());
    }
    seen.clear();
    let mut cur = start;
    check_node(host, seen, i, cur)?;
    for &d in interior {
        cur = flip(cur, d);
        check_node(host, seen, i, cur)?;
    }
    check_node(host, seen, i, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_topology::Hypercube;

    fn build(map: Vec<u64>, edges: Vec<(u32, u32)>, routes: Vec<Vec<u64>>) -> Embedding {
        let mut rs = PathRoutes::new();
        for r in &routes {
            rs.push(r);
        }
        Embedding::new(map.len(), edges, Hypercube::new(3), map, rs)
    }

    fn both(e: &Embedding) -> (Result<(), VerifyError>, Result<(), VerifyError>) {
        let seq = verify_embedding_seq(e);
        let par = verify_embedding_par(e);
        assert_eq!(seq, par, "parallel verify must agree with sequential");
        (seq, par)
    }

    #[test]
    fn good_embedding_passes() {
        let e = build(
            vec![0b000, 0b001, 0b011],
            vec![(0, 1), (0, 2)],
            vec![vec![0b000, 0b001], vec![0b000, 0b010, 0b011]],
        );
        assert!(both(&e).0.is_ok());
    }

    #[test]
    fn detects_non_injective() {
        let e = build(vec![1, 1], vec![], vec![]);
        assert!(matches!(both(&e).0, Err(VerifyError::NotInjective { .. })));
    }

    #[test]
    fn detects_out_of_range_address() {
        let e = build(vec![0, 9], vec![], vec![]);
        assert!(matches!(
            both(&e).0,
            Err(VerifyError::AddressOutOfRange { node: 1, .. })
        ));
    }

    #[test]
    fn detects_route_endpoint_mismatch() {
        let e = build(vec![0, 1], vec![(0, 1)], vec![vec![0, 2]]);
        assert!(matches!(
            both(&e).0,
            Err(VerifyError::RouteEndMismatch { .. })
        ));
        let e = build(vec![0, 1], vec![(0, 1)], vec![vec![2, 1]]);
        assert!(matches!(
            both(&e).0,
            Err(VerifyError::RouteStartMismatch { .. })
        ));
    }

    #[test]
    fn detects_non_adjacent_step() {
        let e = build(vec![0, 3], vec![(0, 1)], vec![vec![0, 3]]);
        assert!(matches!(
            both(&e).0,
            Err(VerifyError::RouteStepNotAdjacent { step: 0, .. })
        ));
    }

    #[test]
    fn detects_non_simple_route() {
        let e = build(vec![0, 1], vec![(0, 1)], vec![vec![0, 2, 0, 1]]);
        assert!(matches!(
            both(&e).0,
            Err(VerifyError::RouteNotSimple { .. })
        ));
    }

    /// The path form of `e`'s routes, decoded through the accessor.
    fn decoded(e: &Embedding, shape: &cubemesh_topology::Shape) -> Embedding {
        let mut rs = PathRoutes::new();
        let mut paths = e.route_paths();
        while let Some(p) = paths.next_path() {
            rs.push(p);
        }
        Embedding::new_mesh(shape, e.host(), e.map().to_vec(), rs)
    }

    /// `edges` hop-form routes at `width`, route `i` flipping
    /// `interior(i)`.
    fn hops_of(edges: usize, width: usize, interior: impl Fn(usize) -> Vec<u8>) -> HopRoutes {
        let mut hops = HopRoutes::blank(edges, width);
        if let Some(mut writer) = hops.writers([edges]).pop() {
            for i in 0..edges {
                writer.push(interior(i));
            }
        }
        hops
    }

    #[test]
    fn hop_form_reports_what_its_decoded_paths_report() {
        // A 2x3 mesh Gray-coded into Q3, stored at width 1 and width 2,
        // with each route in turn given every interior of dimensions up
        // to host_dim + 2, then with every map entry moved.
        let shape = cubemesh_topology::Shape::new(&[2, 3]);
        let gray = crate::builders::gray_mesh_embedding(&shape);
        let edges = gray.edge_count();
        let mut interiors: Vec<Vec<u8>> = vec![vec![]];
        interiors.extend((0..=5u8).map(|a| vec![a]));
        interiors.extend((0..=5u8).flat_map(|a| (0..=5u8).map(move |b| vec![a, b])));
        for width in [1usize, 2] {
            for victim in 0..edges {
                for bad in interiors.iter().filter(|i| i.len() <= width) {
                    let hops = hops_of(edges, width, |i| {
                        if i == victim {
                            bad.clone()
                        } else {
                            Vec::new()
                        }
                    });
                    let e = Embedding::new_mesh(&shape, gray.host(), gray.map().to_vec(), hops);
                    let d = decoded(&e, &shape);
                    assert_eq!(
                        both(&e),
                        both(&d),
                        "width {width}: route {victim} flips {bad:?}"
                    );
                    assert_eq!(sorted_reference(&e), sorted_reference(&d));
                }
            }
        }
        for node in 0..shape.nodes() {
            for address in 0..9u64 {
                for width in [0, 1] {
                    let mut map = gray.map().to_vec();
                    map[node] = address;
                    let hops = hops_of(edges, width, |_| vec![1; width]);
                    let e = Embedding::new_mesh(&shape, gray.host(), map, hops);
                    let d = decoded(&e, &shape);
                    assert_eq!(
                        both(&e),
                        both(&d),
                        "width {width}: node {node} -> {address}"
                    );
                }
            }
        }
    }

    /// The pre-bitmap check order: sort for injectivity, then ranges,
    /// then routes.
    fn sorted_reference(e: &Embedding) -> Result<(), VerifyError> {
        check_injective_sorted(e)?;
        check_addresses(e)?;
        check_route_range(e, 0, e.edges_iter())
    }

    /// Nodes only, in a host of dimension `dim`.
    fn map_only(map: Vec<u64>, dim: u32) -> Embedding {
        Embedding::new(
            map.len(),
            vec![],
            Hypercube::new(dim),
            map,
            PathRoutes::new(),
        )
    }

    fn matches_reference(e: &Embedding) -> Result<(), VerifyError> {
        let (seq, _) = both(e);
        assert_eq!(seq, sorted_reference(e));
        seq
    }

    #[test]
    fn duplicate_at_address_zero() {
        let e = map_only(vec![5, 0, 3, 0, 1], 3);
        assert!(bitmap_fits(&e));
        assert_eq!(
            matches_reference(&e),
            Err(VerifyError::NotInjective {
                node_a: 1,
                node_b: 3,
                address: 0
            })
        );
    }

    #[test]
    fn duplicate_at_the_last_host_address() {
        let e = map_only(vec![7, 2, 6, 4, 7], 3);
        assert!(bitmap_fits(&e));
        assert_eq!(
            matches_reference(&e),
            Err(VerifyError::NotInjective {
                node_a: 0,
                node_b: 4,
                address: 7
            })
        );
    }

    #[test]
    fn address_past_the_host_is_out_of_range() {
        let e = map_only(vec![1, 0, 8, 3], 3);
        assert!(bitmap_fits(&e));
        assert_eq!(
            matches_reference(&e),
            Err(VerifyError::AddressOutOfRange {
                node: 2,
                address: 8
            })
        );
        // A duplicate anywhere still wins over an earlier range error.
        let e = map_only(vec![9, 4, 2, 4], 3);
        assert_eq!(
            matches_reference(&e),
            Err(VerifyError::NotInjective {
                node_a: 1,
                node_b: 3,
                address: 4
            })
        );
    }

    #[test]
    fn sparse_host_takes_the_sort() {
        // Q_9 has 512 nodes, more than 64 × 4: no bitmap.
        let e = map_only(vec![0, 511, 17, 300], 9);
        assert!(!bitmap_fits(&e));
        assert_eq!(check_injective(&e), Ok(false));
        assert_eq!(matches_reference(&e), Ok(()));
        let e = map_only(vec![0, 511, 17, 511], 9);
        assert_eq!(
            matches_reference(&e),
            Err(VerifyError::NotInjective {
                node_a: 1,
                node_b: 3,
                address: 511
            })
        );
        let e = map_only(vec![0, 512, 17, 300], 9);
        assert_eq!(
            matches_reference(&e),
            Err(VerifyError::AddressOutOfRange {
                node: 1,
                address: 512
            })
        );
        // At exactly 64 × guest the bitmap is used, and a clean pass
        // proves the ranges.
        let e = map_only((0..8).map(|v| v * 64).collect(), 9);
        assert!(bitmap_fits(&e));
        assert_eq!(check_injective(&e), Ok(true));
    }

    #[test]
    fn parallel_reports_the_first_error() {
        // Two bad routes; both paths must report edge 1, not edge 2.
        let e = build(
            vec![0, 1, 3, 7],
            vec![(0, 1), (1, 2), (2, 3)],
            vec![vec![0, 1], vec![1, 0], vec![3, 1]],
        );
        let (seq, par) = both(&e);
        assert!(matches!(
            seq,
            Err(VerifyError::RouteEndMismatch { edge: 1, .. })
        ));
        assert!(matches!(
            par,
            Err(VerifyError::RouteEndMismatch { edge: 1, .. })
        ));
    }
}
