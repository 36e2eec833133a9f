//! The sharded metrics/verify engines must agree *exactly* with their
//! sequential counterparts — same numbers, same first error — and the
//! implicit mesh edge enumeration must match the materialized list. These
//! are the correctness contracts behind the parallel construction
//! pipeline; `cubemesh-bench` re-asserts the metrics contract on
//! paper-scale shapes.

use cubemesh::core::{construct, Planner};
use cubemesh::embedding::builders::mesh_edge_list;
use cubemesh::embedding::metrics::{metrics_par, metrics_seq};
use cubemesh::embedding::verify::{
    verify_embedding_par, verify_embedding_seq, verify_many_to_one_par, verify_many_to_one_seq,
};
use cubemesh::embedding::{
    gray_mesh_embedding, mesh_embedding_with_router, Embedding, MeshEdgeView, RouteSet,
    RouteStrategy, VerifyError,
};
use cubemesh::manytoone::fold_to_dim;
use cubemesh::topology::{Hypercube, Mesh, Shape};
use proptest::prelude::*;

fn random_embedding(dims: &[usize], seed: u64, balanced: bool) -> Embedding {
    let shape = Shape::new(dims);
    let host = Hypercube::new(shape.minimal_cube_dim() + 1);
    let strategy = if balanced {
        RouteStrategy::Balanced { passes: 2 }
    } else {
        RouteStrategy::Canonical
    };
    embedding_in(&shape, host, seed, strategy)
}

/// A random injective map of `shape` into `host`, routed by `strategy`.
fn embedding_in(shape: &Shape, host: Hypercube, seed: u64, strategy: RouteStrategy) -> Embedding {
    use rand::prelude::*;
    use rand::rngs::StdRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut addrs: Vec<u64> = (0..host.nodes()).collect();
    addrs.shuffle(&mut rng);
    let map = addrs[..shape.nodes()].to_vec();
    mesh_embedding_with_router(shape, host, map, strategy)
}

/// The map checks by sorting `(address, node)` pairs: the lowest repeated
/// address with its two lowest nodes, else the first node outside the
/// host, else `Ok`.
fn sorted_map_check(e: &Embedding) -> Result<(), VerifyError> {
    let mut pairs: Vec<(u64, usize)> = e.map().iter().enumerate().map(|(v, &a)| (a, v)).collect();
    pairs.sort();
    if let Some(w) = pairs.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(VerifyError::NotInjective {
            node_a: w[0].1,
            node_b: w[1].1,
            address: w[0].0,
        });
    }
    match e.map().iter().position(|&a| !e.host().contains(a)) {
        Some(node) => Err(VerifyError::AddressOutOfRange {
            node,
            address: e.map()[node],
        }),
        None => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn metrics_par_equals_seq_on_random_embeddings(
        l1 in 2usize..6,
        l2 in 2usize..7,
        seed in any::<u64>(),
        balanced in any::<bool>(),
    ) {
        let emb = random_embedding(&[l1, l2], seed, balanced);
        prop_assert_eq!(metrics_seq(&emb), metrics_par(&emb));
    }

    #[test]
    fn verify_par_equals_seq_on_random_embeddings(
        l1 in 2usize..6,
        l2 in 2usize..7,
        seed in any::<u64>(),
    ) {
        let emb = random_embedding(&[l1, l2], seed, false);
        prop_assert_eq!(verify_embedding_seq(&emb), verify_embedding_par(&emb));
    }

    /// Corrupt one route of a valid embedding; both engines must report
    /// the *same* first error.
    #[test]
    fn verify_par_reports_same_error_as_seq(
        l1 in 2usize..5,
        l2 in 2usize..6,
        seed in any::<u64>(),
        victim in any::<u64>(),
    ) {
        let emb = random_embedding(&[l1, l2], seed, false);
        let (nodes, edges, host, map, routes) = emb.into_parts();
        let bad = (victim % routes.len() as u64) as usize;
        let mut corrupted = RouteSet::with_capacity(routes.len(), 0);
        for i in 0..routes.len() {
            if i == bad {
                // Jump outside the cube: triggers adjacency/range errors.
                let r = routes.route(i);
                let mut path = r.to_vec();
                path[0] = host.nodes() + 7;
                corrupted.push(&path);
            } else {
                corrupted.push(routes.route(i));
            }
        }
        let emb = Embedding::from_guest(nodes, edges, host, map, corrupted);
        let seq = verify_embedding_seq(&emb);
        prop_assert!(seq.is_err());
        prop_assert_eq!(seq, verify_embedding_par(&emb));
    }

    /// Inject one map fault into a valid embedding — a duplicate, an
    /// out-of-range address, or both — on a minimal host (the bitmap
    /// path) and on a host over 64 times the guest (the sort path). Both
    /// engines must report exactly the sort-based reference's error.
    #[test]
    fn verify_map_errors_match_sorted_reference(
        l1 in 2usize..6,
        l2 in 2usize..7,
        sparse in any::<bool>(),
        seed in any::<u64>(),
        fault in 0u8..3,
        victim in any::<u64>(),
        other in any::<u64>(),
    ) {
        let shape = Shape::new(&[l1, l2]);
        let extra = if sparse { 7 } else { 0 };
        let host = Hypercube::new(shape.minimal_cube_dim() + extra);
        let emb = embedding_in(&shape, host, seed, RouteStrategy::Canonical);
        let (nodes, edges, host, mut map, routes) = emb.into_parts();
        let v = (victim % nodes as u64) as usize;
        let w = (v + 1 + (other % (nodes as u64 - 1)) as usize) % nodes;
        match fault {
            0 => map[v] = map[w],
            1 => map[v] = host.nodes() + (other % 5),
            _ => {
                map[v] = host.nodes() - 1 + (other % 3);
                map[w] = map[(w + 1) % nodes];
            }
        }
        let emb = Embedding::from_guest(nodes, edges, host, map, routes);
        let expected = sorted_map_check(&emb);
        prop_assert!(expected.is_err());
        prop_assert_eq!(verify_embedding_seq(&emb), expected.clone());
        prop_assert_eq!(verify_embedding_par(&emb), expected);
    }

    /// Folding collapses some routes to single-node (dilation-0) paths and
    /// makes the map many-to-one; the parallel engines must still agree.
    #[test]
    fn many_to_one_folds_agree(
        l1 in 2usize..6,
        l2 in 2usize..6,
        drop in 1u32..3,
    ) {
        let shape = Shape::new(&[l1, l2]);
        let emb = gray_mesh_embedding(&shape);
        let n = emb.host().dim();
        let folded = fold_to_dim(&emb, n.saturating_sub(drop));
        prop_assert_eq!(
            verify_many_to_one_seq(&folded),
            verify_many_to_one_par(&folded)
        );
        prop_assert_eq!(metrics_seq(&folded), metrics_par(&folded));
    }

    #[test]
    fn implicit_edges_match_materialized_list(
        dims in prop::collection::vec(1usize..7, 1..5),
    ) {
        let shape = Shape::new(&dims);
        let view = MeshEdgeView::new(&shape);
        let listed = mesh_edge_list(&Mesh::new(shape.clone()));
        let implicit: Vec<(u32, u32)> = view.iter().collect();
        prop_assert_eq!(&implicit, &listed);
        prop_assert_eq!(view.edge_count(), listed.len());
        // Chunked enumeration covers the same edges in the same order.
        let emb = gray_mesh_embedding(&shape);
        prop_assert_eq!(emb.edges_vec(), listed);
    }
}

#[test]
fn planner_constructions_agree_across_engines() {
    // Shapes whose plans exercise Gray, Product, and restriction paths.
    for dims in [
        vec![12usize, 20],
        vec![3, 3, 23],
        vec![6, 6, 6],
        vec![4, 8, 16],
        vec![5, 6, 7],
    ] {
        let shape = Shape::new(&dims);
        let plan = Planner::new()
            .plan(&shape)
            .unwrap_or_else(|| panic!("no plan for {:?}", dims));
        let emb = construct(&shape, &plan).expect("plan lowers");
        assert_eq!(
            verify_embedding_seq(&emb),
            verify_embedding_par(&emb),
            "{:?}",
            dims
        );
        assert!(verify_embedding_seq(&emb).is_ok(), "{:?}", dims);
        assert_eq!(metrics_seq(&emb), metrics_par(&emb), "{:?}", dims);
    }
}

/// Pool thread-count invariance: the *same* public entry points (no
/// `_seq`/`_par` selection) must produce byte-identical artifacts whether
/// the pool runs one worker, two, or eight — chunk merges are
/// order-preserving and every reduction is exact-integer, so stealing
/// order must never show through.
#[test]
fn artifacts_identical_across_thread_counts() {
    use cubemesh::pool::with_threads;
    let shape = Shape::new(&[6, 6, 6]);
    let build = |threads: usize| {
        with_threads(threads, || {
            let emb = gray_mesh_embedding(&shape);
            let map = emb.map().to_vec();
            let routes: Vec<Vec<u64>> = emb.routes().iter().map(|r| r.to_vec()).collect();
            let metrics = emb.metrics();
            let verify = emb.verify();
            (map, routes, metrics, verify)
        })
    };
    let base = build(1);
    for threads in [2usize, 8] {
        let got = build(threads);
        assert_eq!(got.0, base.0, "node map diverged at {threads} threads");
        assert_eq!(got.1, base.1, "routes diverged at {threads} threads");
        assert_eq!(got.2, base.2, "metrics diverged at {threads} threads");
        assert_eq!(got.3, base.3, "verify diverged at {threads} threads");
    }
}

/// Replay reports (windowed queueing series and sweep points) serialize
/// to the same JSON under any pool width: the simulation itself is
/// sequential per rate, and the sweep's parallel collect preserves rate
/// order.
#[test]
fn replay_reports_identical_across_thread_counts() {
    use cubemesh::netsim::Switching;
    use cubemesh::pool::with_threads;
    use cubemesh::replay::{rate_sweep, replay, ReplayConfig};
    let shape = Shape::new(&[4, 4, 4]);
    let run = |threads: usize| {
        with_threads(threads, || {
            let emb = gray_mesh_embedding(&shape);
            let trace = cubemesh::replay::rate_trace(emb.guest_nodes(), 4, 1, 8, 64, 11);
            let cfg = ReplayConfig {
                switching: Switching::StoreAndForward,
                window: 8,
            };
            let report = replay(&emb, &trace, &cfg).expect("replay");
            let rates = [(1u64, 16u64), (1, 4), (1, 1)];
            let points =
                rate_sweep(&emb, &rates, 4, 64, 7, Switching::StoreAndForward).expect("sweep");
            let sweep_json: Vec<String> = points.iter().map(|p| p.to_json()).collect();
            (report.to_json(), sweep_json)
        })
    };
    let base = run(1);
    for threads in [2usize, 8] {
        let got = run(threads);
        assert_eq!(got.0, base.0, "replay report diverged at {threads} threads");
        assert_eq!(got.1, base.1, "sweep points diverged at {threads} threads");
    }
}

#[test]
fn zero_and_single_edge_guests_agree() {
    // Single node, no edges.
    let e = Embedding::new(1, vec![], Hypercube::new(0), vec![0], RouteSet::new());
    assert_eq!(metrics_seq(&e), metrics_par(&e));
    assert_eq!(verify_embedding_seq(&e), verify_embedding_par(&e));
    // One edge, dilated route.
    let mut rs = RouteSet::new();
    rs.push(&[0b00, 0b01, 0b11]);
    let e = Embedding::new(2, vec![(0, 1)], Hypercube::new(2), vec![0b00, 0b11], rs);
    assert_eq!(metrics_seq(&e), metrics_par(&e));
    assert_eq!(verify_embedding_seq(&e), verify_embedding_par(&e));
}
