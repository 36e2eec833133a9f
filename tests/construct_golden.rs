//! Pins the bytes of the embeddings `cubemesh embed` builds.
//!
//! Every shape below goes through `embed_mesh` (plan, construct, or the
//! Gray fallback) and `write_embedding`; the FNV-1a hashes of the
//! serialized files are chained into one value. Any change to a map
//! value, a route, the edge order or the route order changes it. The
//! list covers every sorted triple up to 8 (Gray, direct and product
//! plans, and the two Gray fallbacks 5×5×5 and 5×7×7), the paper's worked
//! examples, two rank-4 shapes, and two shapes above `PAR_MIN_NODES` so
//! the chunked construction paths run. Both pool widths must give the
//! same value.

use cubemesh::audit::fnv1a;
use cubemesh::core::embed_mesh;
use cubemesh::embedding::builders::PAR_MIN_NODES;
use cubemesh::embedding::portable::write_embedding;
use cubemesh::embedding::RouteSet;
use cubemesh::pool::with_threads;
use cubemesh::topology::Shape;

const GOLDEN: u64 = 0x1c8f_0f6a_4b46_90ec;
const GOLDEN_BYTES: usize = 8_462_053;

fn shapes() -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for a in 1..=8 {
        for b in a..=8 {
            for c in b..=8 {
                out.push(vec![a, b, c]);
            }
        }
    }
    out.extend([
        vec![12, 20],
        vec![3, 25, 3],
        vec![21, 9, 5],
        vec![3, 3, 23],
        vec![7, 6, 5],
        vec![3, 5, 2, 4],
        vec![3, 3, 3, 3],
        vec![32, 32, 40],
        vec![33, 35, 37],
    ]);
    out
}

/// The chained hash, the serialized byte count, and the shapes that fell
/// back to Gray.
fn run() -> (u64, usize, Vec<Vec<usize>>) {
    let mut chain = Vec::new();
    let mut bytes = 0;
    let mut fallbacks = Vec::new();
    for dims in shapes() {
        let (emb, minimal) = embed_mesh(&Shape::new(&dims));
        if let RouteSet::Hops(hops) = emb.routes() {
            let longest = (0..emb.edge_count())
                .map(|i| emb.route(i).len() - 1)
                .max()
                .unwrap_or(1);
            assert_eq!(
                hops.width(),
                longest - 1,
                "{dims:?}: hop width is not the longest route's hops minus 1"
            );
        }
        let mut file = Vec::new();
        write_embedding(&emb, &mut file).expect("writing to a Vec cannot fail");
        bytes += file.len();
        chain.extend_from_slice(&fnv1a(&file).to_le_bytes());
        if !minimal {
            fallbacks.push(dims);
        }
    }
    (fnv1a(&chain), bytes, fallbacks)
}

#[test]
fn embed_bytes_are_pinned_at_every_pool_width() {
    let big = Shape::new(&[32, 32, 40]).nodes();
    assert!(big >= PAR_MIN_NODES, "the chunked paths must run");
    assert_eq!(shapes().len(), 129);
    for threads in [1, 8] {
        let (hash, bytes, fallbacks) = with_threads(threads, run);
        assert_eq!(
            fallbacks,
            vec![vec![5, 5, 5], vec![5, 7, 7]],
            "threads={threads}"
        );
        assert_eq!(bytes, GOLDEN_BYTES, "threads={threads}");
        assert_eq!(hash, GOLDEN, "threads={threads}: got {hash:#018x}");
    }
}
