//! Sweep all 2-D meshes up to a node bound that the current constructive
//! coverage misses, run the exact dilation-2 search on each, and print
//! ready-to-paste `CatalogEntry` items for the ones that also certify
//! congestion 2.
//!
//! Usage: `sweep2d [max_nodes] [budget]` — `max_nodes` in
//! `1..=`[`MAX_SWEEP_NODES`] (default 256), `budget` search steps per
//! shape (default 2·10⁹, about an hour each). `--help` prints the usage;
//! a flag, a third word, or a value that is not a number or is out of
//! range prints it and exits 2 before any search starts.

use cubemesh_census::cover::{workspace_catalog, Cover2};
use cubemesh_embedding::builders::mesh_edge_list;
use cubemesh_obs::cli::{self, Args};
use cubemesh_search::backtrack::{find_embedding, SearchConfig, SearchOutcome};
use cubemesh_search::catalog::entry_source;
use cubemesh_search::routes::certify_congestion;
use cubemesh_topology::{cube_dim, Hypercube, Mesh, Shape};
use std::process::ExitCode;

const USAGE: &str = "usage: sweep2d [max_nodes] [budget]";

/// The largest node bound swept, `2¹²` (`Q12` hosts): the coverage
/// table is `max_nodes²` bytes (16 MiB here), and the exact search is
/// hopeless long before.
const MAX_SWEEP_NODES: usize = 1 << 12;

fn main() -> ExitCode {
    cli::Cli {
        bin: "sweep2d",
        usage: USAGE,
        report: cli::Report::Off,
    }
    .run(|words| {
        let args = Args::parse(words, &[], &[])?;
        let (max_nodes, budget) = match args.positional() {
            [] => (256, 2_000_000_000),
            [n] => (cli::number("max_nodes", n)?, 2_000_000_000),
            [n, b] => (cli::number("max_nodes", n)?, cli::number("budget", b)?),
            [_, _, extra, ..] => return Err(format!("unexpected argument '{extra}'")),
        };
        sweep(
            cli::within("max_nodes", max_nodes, 1..=MAX_SWEEP_NODES)?,
            budget,
        );
        Ok(ExitCode::SUCCESS)
    })
}

/// Search every 2-D shape of at most `max_nodes` nodes that the
/// constructive coverage misses, `budget` steps each.
fn sweep(max_nodes: usize, budget: u64) {
    let (two, _) = workspace_catalog();
    let c2 = Cover2::build(max_nodes, two);

    let mut missing: Vec<(usize, usize)> = Vec::new();
    for a in 2..=max_nodes {
        for b in a..=max_nodes {
            if a * b > max_nodes {
                break;
            }
            if !c2.covered(a, b) {
                missing.push((a, b));
            }
        }
    }
    missing.sort_by_key(|&(a, b)| a * b);
    eprintln!(
        "{} uncovered 2-D shapes <= {} nodes",
        missing.len(),
        max_nodes
    );

    for (a, b) in missing {
        let shape = Shape::new(&[a, b]);
        let guest = Mesh::new(shape.clone()).to_graph();
        let order: Vec<u32> = (0..guest.nodes() as u32).collect();
        let host_dim = cube_dim((a * b) as u64);
        let host = Hypercube::new(host_dim);
        let mut found = false;
        for seed in [None, Some(1u64), Some(2), Some(3), Some(4), Some(5)] {
            let cfg = SearchConfig {
                host_dim,
                max_dilation: 2,
                node_budget: budget / 6,
                shuffle_seed: seed,
            };
            let t = std::time::Instant::now();
            match find_embedding(&guest, &order, &cfg) {
                SearchOutcome::Found(map) => {
                    let edges = mesh_edge_list(&Mesh::new(shape.clone()));
                    if certify_congestion(&map, &edges, host, 2).is_some() {
                        eprintln!(
                            "{}x{}: found + certified (seed {:?}, {:?})",
                            a,
                            b,
                            seed,
                            t.elapsed()
                        );
                        let provenance = "exact backtracking, congestion-2 certified (sweep)";
                        print!("{}", entry_source(&[a, b], host_dim, &map, provenance));
                        found = true;
                        break;
                    } else {
                        eprintln!(
                            "{}x{}: found but congestion-2 failed (seed {:?})",
                            a, b, seed
                        );
                    }
                }
                SearchOutcome::Exhausted => {
                    eprintln!("{}x{}: EXHAUSTED — no dilation-2 embedding!", a, b);
                    break;
                }
                SearchOutcome::BudgetExceeded => {
                    eprintln!(
                        "{}x{}: budget exceeded (seed {:?}, {:?})",
                        a,
                        b,
                        seed,
                        t.elapsed()
                    );
                    break; // bigger shapes won't get cheaper; move on
                }
            }
        }
        if !found {
            eprintln!("{}x{}: NOT added", a, b);
        }
    }
}
