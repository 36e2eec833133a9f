//! A plain-text interchange format for embeddings.
//!
//! Planning a large embedding can be expensive; downstream tools (or a
//! machine's loader) only need the result. The format is line-oriented,
//! versioned, and dependency-free:
//!
//! ```text
//! cubemesh-embedding v1
//! guest_nodes 15
//! host_dim 4
//! map 0 1 3 2 …
//! edges 0 1 0 5 1 2 …
//! route 0 1
//! route 0 4 5
//! …
//! end
//! ```
//!
//! Addresses and node ids are decimal; routes appear in guest-edge order.
//! The writer formats into a reusable in-memory buffer and hands the sink
//! large blocks, so serializing a million-route embedding does not make a
//! million tiny `write` calls; the emitted bytes are identical to the
//! one-`write!`-per-number formulation (asserted by test).

use crate::map::Embedding;
use crate::route::PathRoutes;
use cubemesh_topology::Hypercube;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

const MAGIC: &str = "cubemesh-embedding v1";

/// Flush the format buffer to the sink once it grows past this many bytes.
const FLUSH_AT: usize = 256 * 1024;

/// Serialize an embedding.
pub fn write_embedding(emb: &Embedding, w: &mut impl Write) -> io::Result<()> {
    // Formatting into a String is infallible; `buf` is drained to the sink
    // in ~256 KiB blocks instead of one syscall-sized write per number.
    let mut buf = String::with_capacity(FLUSH_AT + 4096);
    let flush = |buf: &mut String, w: &mut dyn Write, force: bool| -> io::Result<()> {
        if force || buf.len() >= FLUSH_AT {
            w.write_all(buf.as_bytes())?;
            buf.clear();
        }
        Ok(())
    };

    let _ = writeln!(buf, "{}", MAGIC);
    let _ = writeln!(buf, "guest_nodes {}", emb.guest_nodes());
    let _ = writeln!(buf, "host_dim {}", emb.host().dim());
    buf.push_str("map");
    for &a in emb.map() {
        let _ = write!(buf, " {}", a);
        flush(&mut buf, w, false)?;
    }
    buf.push('\n');
    buf.push_str("edges");
    for (u, v) in emb.edges_iter() {
        let _ = write!(buf, " {} {}", u, v);
        flush(&mut buf, w, false)?;
    }
    buf.push('\n');
    let mut routes = emb.route_paths();
    while let Some(r) = routes.next_path() {
        buf.push_str("route");
        for &a in r {
            let _ = write!(buf, " {}", a);
        }
        buf.push('\n');
        flush(&mut buf, w, false)?;
    }
    buf.push_str("end\n");
    flush(&mut buf, w, true)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Deserialize an embedding written by [`write_embedding`].
///
/// Structural parsing only; call [`Embedding::verify`] afterwards if the
/// source is untrusted. The guest always comes back with an explicit edge
/// list (the format does not record mesh shapes).
pub fn read_embedding(r: &mut impl BufRead) -> io::Result<Embedding> {
    let mut lines = r.lines();
    let mut next_line =
        || -> io::Result<String> { lines.next().ok_or_else(|| bad("unexpected end of file"))? };

    if next_line()?.trim() != MAGIC {
        return Err(bad("not a cubemesh-embedding v1 file"));
    }
    let nodes_line = next_line()?;
    let guest_nodes: usize = nodes_line
        .strip_prefix("guest_nodes ")
        .ok_or_else(|| bad("missing guest_nodes"))?
        .trim()
        .parse()
        .map_err(|_| bad("bad guest_nodes"))?;
    let dim_line = next_line()?;
    let host_dim: u32 = dim_line
        .strip_prefix("host_dim ")
        .ok_or_else(|| bad("missing host_dim"))?
        .trim()
        .parse()
        .map_err(|_| bad("bad host_dim"))?;

    let map_line = next_line()?;
    let map: Vec<u64> = map_line
        .strip_prefix("map")
        .ok_or_else(|| bad("missing map"))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| bad("bad map entry")))
        .collect::<io::Result<_>>()?;
    if map.len() != guest_nodes {
        return Err(bad("map length mismatch"));
    }

    let edges_line = next_line()?;
    let flat: Vec<u32> = edges_line
        .strip_prefix("edges")
        .ok_or_else(|| bad("missing edges"))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| bad("bad edge entry")))
        .collect::<io::Result<_>>()?;
    if !flat.len().is_multiple_of(2) {
        return Err(bad("odd edge list"));
    }
    let edges: Vec<(u32, u32)> = flat.chunks(2).map(|c| (c[0], c[1])).collect();

    let mut routes = PathRoutes::with_capacity(edges.len(), edges.len() * 2);
    loop {
        let line = next_line()?;
        let line = line.trim();
        if line == "end" {
            break;
        }
        let body = line
            .strip_prefix("route")
            .ok_or_else(|| bad("expected route"))?;
        let path: Vec<u64> = body
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| bad("bad route entry")))
            .collect::<io::Result<_>>()?;
        if path.is_empty() {
            return Err(bad("empty route"));
        }
        routes.push(&path);
    }
    if routes.len() != edges.len() {
        return Err(bad("route count mismatch"));
    }
    Ok(Embedding::new(
        guest_nodes,
        edges,
        Hypercube::new(host_dim),
        map,
        routes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::gray_mesh_embedding;
    use cubemesh_topology::Shape;

    /// The pre-buffering formulation: one `write!` per number. The format
    /// contract is that [`write_embedding`] emits these exact bytes.
    fn reference_write(emb: &Embedding, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "{}", MAGIC)?;
        writeln!(w, "guest_nodes {}", emb.guest_nodes())?;
        writeln!(w, "host_dim {}", emb.host().dim())?;
        write!(w, "map")?;
        for &a in emb.map() {
            write!(w, " {}", a)?;
        }
        writeln!(w)?;
        write!(w, "edges")?;
        for (u, v) in emb.edges_iter() {
            write!(w, " {} {}", u, v)?;
        }
        writeln!(w)?;
        for i in 0..emb.edge_count() {
            write!(w, "route")?;
            for a in emb.route(i) {
                write!(w, " {}", a)?;
            }
            writeln!(w)?;
        }
        writeln!(w, "end")
    }

    #[test]
    fn roundtrip() {
        let emb = gray_mesh_embedding(&Shape::new(&[3, 5]));
        let mut buf = Vec::new();
        write_embedding(&emb, &mut buf).unwrap();
        let back = read_embedding(&mut buf.as_slice()).unwrap();
        back.verify().unwrap();
        assert_eq!(back.map(), emb.map());
        assert_eq!(back.edges_vec(), emb.edges_vec());
        assert_eq!(back.host().dim(), emb.host().dim());
        assert_eq!(back.metrics(), emb.metrics());
    }

    #[test]
    fn buffered_writer_is_byte_identical() {
        // Large enough that the buffer flushes mid-stream several times
        // (map + edges + routes of a 64x32x4 mesh is well past 256 KiB).
        let emb = gray_mesh_embedding(&Shape::new(&[64, 32, 4]));
        let mut fast = Vec::new();
        write_embedding(&emb, &mut fast).unwrap();
        let mut slow = Vec::new();
        reference_write(&emb, &mut slow).unwrap();
        assert!(
            fast.len() > FLUSH_AT,
            "fixture too small to exercise flushing"
        );
        assert_eq!(fast, slow);
    }

    #[test]
    fn large_mesh_roundtrip_preserves_everything() {
        let emb = gray_mesh_embedding(&Shape::new(&[64, 32, 4]));
        let mut buf = Vec::new();
        write_embedding(&emb, &mut buf).unwrap();
        let back = read_embedding(&mut buf.as_slice()).unwrap();
        back.verify().unwrap();
        assert_eq!(back.map(), emb.map());
        assert_eq!(back.edges_vec(), emb.edges_vec());
        assert_eq!(back.metrics(), emb.metrics());
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_embedding(&mut "nope".as_bytes()).is_err());
        let mut buf = Vec::new();
        write_embedding(&gray_mesh_embedding(&Shape::new(&[2, 2])), &mut buf).unwrap();
        // Truncate: drop the trailing "end".
        let txt = String::from_utf8(buf).unwrap();
        let cut = txt.rsplit_once("end").unwrap().0;
        assert!(read_embedding(&mut cut.as_bytes()).is_err());
    }

    #[test]
    fn rejects_length_mismatches() {
        let bad_input = "cubemesh-embedding v1\nguest_nodes 3\nhost_dim 2\nmap 0 1\nedges\nend\n";
        assert!(read_embedding(&mut bad_input.as_bytes()).is_err());
    }
}
