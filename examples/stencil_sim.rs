//! Simulate one stencil halo-exchange on a hypercube multiprocessor under
//! three embeddings of the same mesh — the paper's motivation, measured.
//!
//! ```text
//! cargo run --release --example stencil_sim -- 9 9 9 [flits]
//! ```

use cubemesh::core::embed_mesh;
use cubemesh::embedding::gray_mesh_embedding;
use cubemesh::netsim::{simulate, stencil_exchange};
use cubemesh::obs::cli::{Args, Cli, Report};
use cubemesh::reshape::snake_embedding;
use cubemesh::topology::Shape;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli {
        bin: "stencil_sim",
        usage: "usage: stencil_sim [l1 l2 l3 [flits]]",
        report: Report::Off,
    };
    cli.run(|words| {
        let args: Vec<usize> = Args::parse(words, &[], &[])?.numbers()?;
        let (dims, flits) = match args.len() {
            0 => (vec![9, 9, 9], 32),
            // Four numbers are three extents and the flit count.
            4 => (
                args[..3].to_vec(),
                u32::try_from(args[3]).map_err(|e| e.to_string())?,
            ),
            _ => (args, 32),
        };
        Shape::check(&dims).map_err(|e| e.to_string())?;
        stencil_sim(Shape::new(&dims), flits);
        Ok(ExitCode::SUCCESS)
    })
}

fn stencil_sim(shape: Shape, flits: u32) {
    println!(
        "mesh {} — one halo exchange, {}-flit messages, store-and-forward\n",
        shape, flits
    );
    println!(
        "{:<18} {:>5} {:>9} {:>11} {:>10} {:>10}",
        "embedding", "cube", "dilation", "congestion", "makespan", "slowdown"
    );

    let (decomp, minimal) = embed_mesh(&shape);
    let rows = [
        (
            if minimal {
                "decomposition"
            } else {
                "gray (no plan)"
            },
            decomp,
        ),
        ("gray (expanded)", gray_mesh_embedding(&shape)),
        ("snake (minimal)", snake_embedding(&shape)),
    ];
    for (name, emb) in rows {
        let m = emb.metrics();
        let msgs = stencil_exchange(&emb, flits);
        let r = simulate(emb.host(), &msgs);
        println!(
            "{:<18} {:>5} {:>9} {:>11} {:>10} {:>9.2}x",
            name,
            format!("Q{}", m.host_dim),
            m.dilation,
            m.congestion,
            r.makespan,
            r.makespan as f64 / flits as f64
        );
    }
    println!(
        "\nA dilation-1 congestion-1 embedding finishes in exactly {} cycles;\n\
         the decomposition embedding pays ≤ 2x for minimal expansion, while\n\
         the snake curve degrades with mesh size — the trade-off the paper\n\
         resolves.",
        flits
    );
}
