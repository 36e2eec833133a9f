//! Routes stored as cube dimensions (hop form) read exactly like the node
//! paths they decode to: the same metrics, the same verify verdict and
//! the same file bytes, and — once one stored dimension or one map entry
//! is corrupted — the same `VerifyError`. Every check runs at pool widths
//! 1 and 8.

use cubemesh::core::{embed_mesh, mesh_product_embedding};
use cubemesh::embedding::metrics::{metrics_par, metrics_seq};
use cubemesh::embedding::portable::write_embedding;
use cubemesh::embedding::verify::{verify_embedding_par, verify_embedding_seq};
use cubemesh::embedding::{gray_mesh_embedding, Embedding, HopRoutes, PathRoutes, RouteSet};
use cubemesh::pool::with_threads;
use cubemesh::search::{catalog_embedding, catalog_entries};
use cubemesh::topology::Shape;
use proptest::prelude::*;

/// Largest random guest, so the debug build stays quick.
const MAX_NODES: usize = 3000;

/// `dims` with its longest axes shortened until the mesh has at most
/// [`MAX_NODES`] nodes.
fn capped(mut dims: Vec<usize>) -> Shape {
    while dims.iter().product::<usize>() > MAX_NODES {
        let longest = (0..dims.len()).max_by_key(|&i| dims[i]).unwrap_or(0);
        dims[longest] = (dims[longest] / 2).max(1);
    }
    Shape::new(&dims)
}

fn shape_of(e: &Embedding) -> Shape {
    e.guest_shape().expect("a mesh guest").clone()
}

/// The same embedding with every route decoded to its node path.
fn path_form(e: &Embedding) -> Embedding {
    let mut routes = PathRoutes::with_capacity(e.edge_count(), 0);
    let mut paths = e.route_paths();
    while let Some(p) = paths.next_path() {
        routes.push(p);
    }
    Embedding::new_mesh(&shape_of(e), e.host(), e.map().to_vec(), routes)
}

/// A hop-form embedding's width and route interiors.
fn interiors(e: &Embedding) -> (usize, Vec<Vec<u8>>) {
    let RouteSet::Hops(hops) = e.routes() else {
        panic!("routes not in hop form");
    };
    (
        hops.width(),
        hops.interiors(0).map(<[u8]>::to_vec).collect(),
    )
}

/// `interiors` stored at `width`.
fn hop_routes(width: usize, interiors: &[Vec<u8>]) -> HopRoutes {
    let mut hops = HopRoutes::blank(interiors.len(), width);
    if let Some(mut writer) = hops.writers([interiors.len()]).pop() {
        for interior in interiors {
            writer.push(interior.iter().copied());
        }
    }
    hops
}

fn file(e: &Embedding) -> Vec<u8> {
    let mut out = Vec::new();
    write_embedding(e, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Both forms give the same metrics, verdict and bytes, at both widths.
fn assert_forms_agree(hop: &Embedding, what: &str) {
    let path = path_form(hop);
    for threads in [1, 8] {
        with_threads(threads, || {
            let m = metrics_seq(hop);
            assert_eq!(m, metrics_par(hop), "{what} t={threads}");
            assert_eq!(m, metrics_seq(&path), "{what} t={threads}");
            assert_eq!(m, metrics_par(&path), "{what} t={threads}");
            assert_same_verdict(hop, &path, what);
        });
    }
    assert_eq!(file(hop), file(&path), "{what}: file bytes differ");
}

fn assert_same_verdict(hop: &Embedding, path: &Embedding, what: &str) {
    let v = verify_embedding_seq(hop);
    assert_eq!(v, verify_embedding_par(hop), "{what}");
    assert_eq!(v, verify_embedding_seq(path), "{what}");
    assert_eq!(v, verify_embedding_par(path), "{what}");
}

/// Corrupt one stored dimension (to a value in `0..=host_dim + 2`) or,
/// for `map_fault` or a width-0 set, one map entry; both forms must
/// report the same first error at both widths. A slot past a route's
/// interior extends it by one dimension.
fn assert_corruptions_agree(hop: &Embedding, map_fault: bool, victim: u64, value: u64) {
    let (width, mut routes) = interiors(hop);
    let mut map = hop.map().to_vec();
    if map_fault || width == 0 {
        let v = (victim % map.len() as u64) as usize;
        map[v] = value % (2 * hop.host().nodes());
    } else {
        let slots = routes.len() * width;
        let at = (victim % slots as u64) as usize;
        let (route, slot) = (&mut routes[at / width], at % width);
        let d = (value % (u64::from(hop.host().dim()) + 3)) as u8;
        if slot < route.len() {
            route[slot] = d;
        } else {
            route.push(d);
        }
    }
    let bad = Embedding::new_mesh(&shape_of(hop), hop.host(), map, hop_routes(width, &routes));
    let path = path_form(&bad);
    for threads in [1, 8] {
        with_threads(threads, || assert_same_verdict(&bad, &path, "corrupted"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Whatever `cubemesh embed` builds: Gray, direct, product and nested
    /// product plans of rank 1 to 4.
    #[test]
    fn embed_mesh_hop_form_reads_as_its_paths(
        dims in prop::collection::vec(1usize..14, 1..5),
        map_fault in any::<bool>(),
        victim in any::<u64>(),
        value in any::<u64>(),
    ) {
        let shape = capped(dims);
        let (emb, _) = embed_mesh(&shape);
        if matches!(emb.routes(), RouteSet::Hops(_)) {
            assert_forms_agree(&emb, &shape.to_string());
            assert_corruptions_agree(&emb, map_fault, victim, value);
        }
    }

    /// Products of a catalog piece (stored as node paths) and a Gray
    /// factor, either way round, cut back along each axis.
    #[test]
    fn catalog_times_gray_hop_form_reads_as_its_paths(
        entry in any::<usize>(),
        gray in prop::collection::vec(1usize..4, 3..4),
        trim in prop::collection::vec(0usize..3, 3..4),
        catalog_inside in any::<bool>(),
        map_fault in any::<bool>(),
        victim in any::<u64>(),
        value in any::<u64>(),
    ) {
        let entries = catalog_entries();
        let piece = Shape::new(entries[entry % entries.len()].dims);
        let k = piece.rank();
        let gray = Shape::new(&gray[..k]);
        let (s1, s2) = if catalog_inside { (piece, gray) } else { (gray, piece) };
        let full: Vec<usize> = (0..k).map(|i| s1.len(i) * s2.len(i)).collect();
        let target: Vec<usize> = (0..k).map(|i| (full[i] - trim[i]).max(1)).collect();
        let shape = Shape::new(&target);
        let factor = |s: &Shape| catalog_embedding(s).unwrap_or_else(|| gray_mesh_embedding(s));
        let (e1, e2) = (factor(&s1), factor(&s2));
        let emb = mesh_product_embedding(&shape, &s1, &e1, &s2, &e2);
        prop_assert!(matches!(emb.routes(), RouteSet::Hops(_)));
        assert_forms_agree(&emb, &format!("{shape} in {s1} x {s2}"));
        prop_assert!(emb.verify().is_ok());
        assert_corruptions_agree(&emb, map_fault, victim, value);
    }
}
