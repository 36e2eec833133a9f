//! Cross-check the sort-based metrics engine against a naive
//! recomputation, on randomized embeddings.

use cubemesh::embedding::{mesh_embedding_with_router, RouteStrategy};
use cubemesh::topology::{Hypercube, Shape};
use proptest::prelude::*;
use std::collections::HashMap;

fn naive_metrics(emb: &cubemesh::embedding::Embedding) -> (u32, f64, u32, f64) {
    let mut dilation = 0u32;
    let mut total = 0u64;
    let mut cong: HashMap<(u64, u64), u32> = HashMap::new();
    for i in 0..emb.edge_count() {
        let r = emb.route(i);
        dilation = dilation.max(r.len() as u32 - 1);
        total += r.len() as u64 - 1;
        for w in r.windows(2) {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            *cong.entry(key).or_insert(0) += 1;
        }
    }
    let host_edges = emb.host().edge_count();
    (
        dilation,
        if emb.edge_count() == 0 {
            0.0
        } else {
            total as f64 / emb.edge_count() as f64
        },
        cong.values().copied().max().unwrap_or(0),
        if host_edges == 0 {
            0.0
        } else {
            total as f64 / host_edges as f64
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metrics_match_naive_on_random_maps(
        l1 in 2usize..6,
        l2 in 2usize..7,
        seed in any::<u64>(),
        balanced in any::<bool>(),
    ) {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let shape = Shape::new(&[l1, l2]);
        let host = Hypercube::new(shape.minimal_cube_dim() + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut addrs: Vec<u64> = (0..host.nodes()).collect();
        addrs.shuffle(&mut rng);
        let map = addrs[..shape.nodes()].to_vec();
        let strategy = if balanced {
            RouteStrategy::Balanced { passes: 2 }
        } else {
            RouteStrategy::Canonical
        };
        let emb = mesh_embedding_with_router(&shape, host, map, strategy);
        emb.verify().unwrap();
        let m = emb.metrics();
        let (d, ad, c, ac) = naive_metrics(&emb);
        prop_assert_eq!(m.dilation, d);
        prop_assert_eq!(m.congestion, c);
        prop_assert!((m.avg_dilation - ad).abs() < 1e-12);
        prop_assert!((m.avg_congestion - ac).abs() < 1e-12);
    }

    /// Balanced routing never yields worse congestion than canonical.
    #[test]
    fn balanced_not_worse_than_canonical(
        l1 in 2usize..6,
        l2 in 2usize..6,
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let shape = Shape::new(&[l1, l2]);
        let host = Hypercube::new(shape.minimal_cube_dim());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut addrs: Vec<u64> = (0..host.nodes()).collect();
        addrs.shuffle(&mut rng);
        let map = addrs[..shape.nodes()].to_vec();
        let canon = mesh_embedding_with_router(
            &shape, host, map.clone(), RouteStrategy::Canonical,
        );
        let bal = mesh_embedding_with_router(
            &shape, host, map, RouteStrategy::Balanced { passes: 3 },
        );
        prop_assert!(bal.metrics().congestion <= canon.metrics().congestion);
        // Both are shortest-path routings, so dilation is identical.
        prop_assert_eq!(bal.metrics().dilation, canon.metrics().dilation);
    }
}
