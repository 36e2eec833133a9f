//! The verified catalog of direct embeddings.
//!
//! Each entry is a dilation-2, minimal-expansion node map for one small
//! mesh, discovered offline by the `discover` binary (exact backtracking
//! where feasible, annealing beyond) and baked into the source — the same
//! role the hand-built tables of \[13] and \[14] play in the paper. Tests
//! re-verify every entry end to end: shape, injectivity, dilation ≤ 2,
//! congestion ≤ 2 under balanced routing, and minimal host cube.
//!
//! The catalog is looked up *up to axis permutation*; length-1 axes must be
//! dropped by the caller (the planner does).

use crate::routes::certify_congestion;
use cubemesh_embedding::builders::mesh_edge_list;
use cubemesh_embedding::{mesh_embedding_with_router, Embedding, RouteStrategy};
use cubemesh_topology::{Hypercube, Mesh, Shape};

/// One baked direct embedding: a row-major node map for `dims` into the
/// minimal cube `Q_{host_dim}`.
#[derive(Clone, Copy, Debug)]
pub struct CatalogEntry {
    /// Mesh axis lengths, ascending.
    pub dims: &'static [usize],
    /// Host cube dimension (always `⌈log₂ Π dims⌉` — minimal).
    pub host_dim: u32,
    /// Row-major node map.
    pub map: &'static [u64],
    /// Where the map came from (for provenance in reports).
    pub provenance: &'static str,
}

include!("catalog_data.rs");

/// A found map as a `CatalogEntry` item, ready to paste into
/// `catalog_data.rs`: what the `discover` and `sweep2d` searches print.
pub fn entry_source(dims: &[usize], host_dim: u32, map: &[u64], provenance: &str) -> String {
    let dims: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
    let mut out = format!(
        "    CatalogEntry {{\n        dims: &[{}],\n        host_dim: {host_dim},\n        map: &[",
        dims.join(", ")
    );
    for (i, a) in map.iter().enumerate() {
        if i % 12 == 0 {
            out.push_str("\n            ");
        }
        out.push_str(&format!("{a}, "));
    }
    out + &format!("\n        ],\n        provenance: \"{provenance}\",\n    }},\n")
}

/// All catalog entries.
pub fn catalog_entries() -> &'static [CatalogEntry] {
    CATALOG
}

/// The settled open case: the paper's `5×5×5` mesh, which it lists as the
/// only ≤128-node mesh without a known minimal-expansion dilation-2
/// embedding. Our exact search found one (see
/// [`FIVE_CUBE_OPEN_CASE`]); it is kept out of the planner catalog
/// because no congestion-2 route assignment has been certified for it.
pub fn open_case_5x5x5() -> &'static CatalogEntry {
    &FIVE_CUBE_OPEN_CASE
}

/// Find a catalog entry matching `shape` up to axis permutation. Returns
/// the entry and the permutation `perm` such that
/// `entry.dims[i] == shape.dims()[perm[i]]`.
pub fn catalog_lookup(shape: &Shape) -> Option<(&'static CatalogEntry, Vec<usize>)> {
    let dims = shape.dims();
    for entry in CATALOG {
        if entry.dims.len() != dims.len() {
            continue;
        }
        if let Some(perm) = match_permutation(entry.dims, dims) {
            return Some((entry, perm));
        }
    }
    None
}

/// A permutation `perm` with `pattern[i] == target[perm[i]]`, if any.
/// Allocates only on a match: nearly every probe fails.
fn match_permutation(pattern: &[usize], target: &[usize]) -> Option<Vec<usize>> {
    if !greedy_match(pattern, target, |_| {}) {
        return None;
    }
    let mut perm = Vec::with_capacity(pattern.len());
    greedy_match(pattern, target, |j| perm.push(j));
    Some(perm)
}

/// Match each `pattern` axis to the first unused equal `target` axis,
/// passing each chosen index to `pick`; `false` when some axis finds
/// none. A bitmask tracks the used axes, so a probe allocates nothing.
fn greedy_match(pattern: &[usize], target: &[usize], mut pick: impl FnMut(usize)) -> bool {
    let mut used = 0u64;
    pattern.len() == target.len()
        && target.len() <= u64::BITS as usize
        && pattern.iter().all(|&p| {
            let free = |j: &usize| used & (1u64 << j) == 0 && target[*j] == p;
            match (0..target.len()).find(free) {
                Some(j) => {
                    used |= 1u64 << j;
                    pick(j);
                    true
                }
                None => false,
            }
        })
}

/// The raw node map for `shape` (row-major in `shape`'s own axis order),
/// if the catalog covers it up to permutation.
pub fn catalog_map(shape: &Shape) -> Option<Vec<u64>> {
    let (entry, perm) = catalog_lookup(shape)?;
    let entry_shape = Shape::new(entry.dims);
    let mut map = vec![0u64; shape.nodes()];
    let mut ecoords = vec![0usize; entry.dims.len()];
    for c in shape.iter_coords() {
        // entry axis i corresponds to shape axis perm[i].
        for (i, e) in ecoords.iter_mut().enumerate() {
            *e = c[perm[i]];
        }
        map[shape.index(&c)] = entry.map[entry_shape.index(&ecoords)];
    }
    Some(map)
}

/// Build the full embedding for `shape` from the catalog, if present.
///
/// Routes are assigned by the *exact* congestion-2 assigner
/// ([`assign_bounded_congestion`](crate::routes::assign_bounded_congestion)); entries are only admitted to the
/// catalog if that certification succeeds, so the fallback to balanced
/// greedy routing below is defensive.
pub fn catalog_embedding(shape: &Shape) -> Option<Embedding> {
    let (entry, _) = catalog_lookup(shape)?;
    let map = catalog_map(shape)?;
    let host = Hypercube::new(entry.host_dim);
    let mesh = Mesh::new(shape.clone());
    let edges = mesh_edge_list(&mesh);
    if let Some(routes) = certify_congestion(&map, &edges, host, 2) {
        return Some(Embedding::new(mesh.nodes(), edges, host, map, routes));
    }
    Some(mesh_embedding_with_router(
        shape,
        host,
        map,
        RouteStrategy::Balanced { passes: 8 },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_topology::cube_dim;

    /// The printed item, twelve addresses a line, pastes back as it was.
    #[test]
    fn entry_source_prints_a_catalog_item() {
        let map: Vec<u64> = (0..14).collect();
        assert_eq!(
            entry_source(&[2, 7], 4, &map, "test"),
            "    CatalogEntry {\n        dims: &[2, 7],\n        host_dim: 4,\n        map: &[\n\
             \x20           0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, \n\
             \x20           12, 13, \n        ],\n        provenance: \"test\",\n    },\n"
        );
    }

    #[test]
    fn every_entry_is_well_formed() {
        for entry in catalog_entries() {
            let shape = Shape::new(entry.dims);
            assert_eq!(entry.map.len(), shape.nodes(), "{:?}", entry.dims);
            assert_eq!(
                entry.host_dim,
                cube_dim(shape.nodes() as u64),
                "{:?} not minimal",
                entry.dims
            );
            let mut sorted = entry.dims.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, entry.dims, "{:?} not ascending", entry.dims);
        }
    }

    #[test]
    fn every_entry_verifies_with_dilation_two_congestion_two() {
        for entry in catalog_entries() {
            let shape = Shape::new(entry.dims);
            let emb = catalog_embedding(&shape).expect("lookup must succeed");
            emb.verify()
                .unwrap_or_else(|e| panic!("{:?}: {}", entry.dims, e));
            let m = emb.metrics();
            assert!(m.is_minimal_expansion(), "{:?}", entry.dims);
            assert!(m.dilation <= 2, "{:?} dilation {}", entry.dims, m.dilation);
            assert!(
                m.congestion <= 2,
                "{:?} congestion {}",
                entry.dims,
                m.congestion
            );
        }
    }

    #[test]
    fn lookup_is_permutation_invariant() {
        if catalog_lookup(&Shape::new(&[3, 5])).is_some() {
            let e1 = catalog_embedding(&Shape::new(&[3, 5])).unwrap();
            let e2 = catalog_embedding(&Shape::new(&[5, 3])).unwrap();
            e1.verify().unwrap();
            e2.verify().unwrap();
            assert_eq!(e1.host().dim(), e2.host().dim());
            // Same multiset of addresses.
            let mut a: Vec<u64> = e1.map().to_vec();
            let mut b: Vec<u64> = e2.map().to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn match_permutation_works() {
        assert_eq!(match_permutation(&[3, 5], &[5, 3]), Some(vec![1, 0]));
        assert_eq!(match_permutation(&[3, 5], &[3, 5]), Some(vec![0, 1]));
        assert_eq!(
            match_permutation(&[3, 3, 7], &[3, 7, 3]),
            Some(vec![0, 2, 1])
        );
        assert_eq!(match_permutation(&[3, 5], &[3, 7]), None);
    }

    #[test]
    fn open_case_5x5x5_is_dilation2_minimal() {
        // The paper's §5 open question, answered: 5x5x5 -> Q7 with
        // dilation 2 exists. Congestion of the best known routing is 3.
        let entry = open_case_5x5x5();
        assert_eq!(entry.dims, &[5, 5, 5]);
        assert_eq!(entry.host_dim, 7);
        let shape = Shape::new(&[5, 5, 5]);
        let mesh = Mesh::new(shape.clone());
        let edges = mesh_edge_list(&mesh);
        let host = Hypercube::new(7);
        // Dilation 2 and injectivity, via the verifier.
        let routes = crate::routes::certify_congestion(entry.map, &edges, host, 3)
            .expect("congestion-3 routing exists");
        let emb = Embedding::new(mesh.nodes(), edges, host, entry.map.to_vec(), routes);
        emb.verify().unwrap();
        let m = emb.metrics();
        assert!(m.is_minimal_expansion());
        assert_eq!(m.dilation, 2);
        assert!(m.congestion <= 3);
    }

    #[test]
    fn paper_core_entries_present() {
        // The two direct 3-D embeddings that method 3 of §5 requires.
        assert!(
            catalog_lookup(&Shape::new(&[3, 3, 3])).is_some(),
            "3x3x3 missing"
        );
        assert!(
            catalog_lookup(&Shape::new(&[3, 3, 7])).is_some(),
            "3x3x7 missing"
        );
        // The 2-D direct embeddings of §3.3.
        assert!(
            catalog_lookup(&Shape::new(&[3, 5])).is_some(),
            "3x5 missing"
        );
        assert!(
            catalog_lookup(&Shape::new(&[7, 9])).is_some(),
            "7x9 missing"
        );
        assert!(
            catalog_lookup(&Shape::new(&[11, 11])).is_some(),
            "11x11 missing"
        );
    }
}
