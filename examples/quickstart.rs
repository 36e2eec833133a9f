//! Quickstart: embed a mesh into its minimal Boolean cube.
//!
//! ```text
//! cargo run --example quickstart -- 5 6 7
//! ```

use cubemesh::core::{construct, plan_shape, Planner};
use cubemesh::embedding::gray_mesh_embedding;
use cubemesh::obs::cli::{Args, Cli, Report};
use cubemesh::topology::Shape;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli {
        bin: "quickstart",
        usage: "usage: quickstart [l1 l2 ...]",
        report: Report::Off,
    };
    cli.run(|words| {
        let dims: Vec<usize> = Args::parse(words, &[], &[])?.numbers()?;
        let dims = if dims.is_empty() { vec![5, 6, 7] } else { dims };
        Shape::check(&dims).map_err(|e| e.to_string())?;
        quickstart(Shape::new(&dims));
        Ok(ExitCode::SUCCESS)
    })
}

fn quickstart(shape: Shape) {
    println!(
        "mesh {} — {} nodes, minimal cube Q{}",
        shape,
        shape.nodes(),
        shape.minimal_cube_dim()
    );

    // Plan a minimal-expansion dilation-≤2 embedding by graph
    // decomposition (Ho & Johnsson 1990, §4.2): the strategy ladder's
    // first answer, the same plan the plan database serves.
    match plan_shape(&mut Planner::new(), &shape) {
        Some(hit) => {
            println!(
                "plan: {} (strategy {}, confidence {})",
                hit.plan, hit.strategy, hit.confidence
            );
            let emb = construct(&shape, &hit.plan).expect("plan lowers");
            emb.verify().expect("constructed embeddings always verify");
            let m = emb.metrics();
            println!(
                "embedded into Q{} — expansion {:.3}, dilation {}, congestion {}, avg dilation {:.3}",
                m.host_dim, m.expansion, m.dilation, m.congestion, m.avg_dilation
            );
        }
        None => {
            // The strategy has no minimal-expansion answer (e.g. 5x5x5);
            // fall back to the Gray code at higher expansion.
            let emb = gray_mesh_embedding(&shape);
            let m = emb.metrics();
            println!(
                "no minimal-expansion plan known (the paper leaves such meshes open);\n\
                 Gray-code fallback: Q{} — expansion {:.3}, dilation {}",
                m.host_dim, m.expansion, m.dilation
            );
        }
    }
}
