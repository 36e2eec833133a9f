//! Embed wraparound meshes (§6): rings and tori into minimal cubes.
//!
//! ```text
//! cargo run --example torus_ring -- 6 10
//! ```

use cubemesh::obs::cli::{Args, Cli, Report};
use cubemesh::topology::Shape;
use cubemesh::torus::{corollary3_dilation2, corollary3_dilation3, embed_torus};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli {
        bin: "torus_ring",
        usage: "usage: torus_ring [l1 l2 ...]",
        report: Report::Off,
    };
    cli.run(|words| {
        let dims: Vec<usize> = Args::parse(words, &[], &[])?.numbers()?;
        let dims = if dims.is_empty() { vec![6, 10] } else { dims };
        Shape::check(&dims).map_err(|e| e.to_string())?;
        torus_ring(Shape::new(&dims));
        Ok(ExitCode::SUCCESS)
    })
}

fn torus_ring(shape: Shape) {
    println!(
        "wraparound mesh {} — {} nodes, minimal cube Q{}",
        shape,
        shape.nodes(),
        shape.minimal_cube_dim()
    );
    if shape.rank() == 2 {
        println!(
            "Corollary 3 predicts: dilation ≤ 2: {}, dilation ≤ 3: {}",
            corollary3_dilation2(shape.len(0), shape.len(1)),
            corollary3_dilation3(shape.len(0), shape.len(1)),
        );
    }

    match embed_torus(&shape) {
        Some(out) => {
            out.embedding.verify().expect("torus embeddings verify");
            let m = out.embedding.metrics();
            println!(
                "embedded via {} submesh bits/axis {:?}, inner mesh {:?}",
                out.rule.iter().sum::<u8>(),
                out.rule,
                out.inner_dims
            );
            println!(
                "Q{} — expansion {:.3}, dilation {} (bound {}), congestion {}",
                m.host_dim, m.expansion, m.dilation, out.dilation_bound, m.congestion
            );
        }
        None => println!("no §6 construction lands in the minimal cube for this torus"),
    }
}
