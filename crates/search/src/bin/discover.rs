//! Offline discovery of direct embeddings.
//!
//! Usage: `discover <l1> <l2> [l3 ...] [--dilation D] [--dim N]
//!         [--budget STEPS] [--restarts R] [--anneal-steps S]`
//!
//! Runs exact backtracking (several restart seeds), then annealing, and on
//! success prints a `CatalogEntry` ready to paste into `catalog_data.rs`.
//!
//! Progress goes through the instrumentation layer: a live restart
//! reporter on stderr while searching, and a full stats snapshot (search
//! counters, span timings) when the run ends. `CUBEMESH_STATS=json`
//! switches the snapshot to JSON; `CUBEMESH_STATS=off` suppresses it.
//!
//! Exit codes: 0 with a `CatalogEntry` on stdout; 1 when neither phase
//! found a map; 3 when the exact search proved no map exists
//! (`EXHAUSTED`); 2 for a refused line — an unknown flag, a missing or
//! non-numeric value, extents that fail `Shape::check`, a host cube
//! (`--dim`, else the minimal one) above [`MAX_HOST_DIM`], or a
//! `--dilation` outside `1..=MAX_HOST_DIM`. `--help` prints the usage.

use cubemesh_embedding::builders::mesh_edge_list;
use cubemesh_obs::cli::{self, Args};
use cubemesh_obs::Progress;
use cubemesh_search::anneal::{anneal_restarts, AnnealConfig, AnnealOutcome};
use cubemesh_search::backtrack::{find_embedding, SearchConfig, SearchOutcome};
use cubemesh_search::catalog::entry_source;
use cubemesh_search::routes::certify_congestion;
use cubemesh_topology::{cube_dim, Hypercube, Mesh, Shape};
use std::process::ExitCode;

const USAGE: &str = "usage: discover <l1> <l2> [l3 ...] [--dilation D] [--dim N] [--budget STEPS] \
                     [--restarts R] [--anneal-steps S]";

/// The largest host cube searched, `Q24`. The annealing phase stops at
/// `Q26` and the exact search at `Q30`, but memory binds first: a
/// 2²⁴-node guest in `Q24` peaks at 1.2 GiB, a 2²⁶-node one in `Q26`
/// needs more than 5 GB (x86-64 release build). A shape whose minimal
/// cube is larger is refused, as is a larger `--dim` or `--dilation`
/// (no two addresses of the host lie further apart).
const MAX_HOST_DIM: u32 = 24;

/// Exit code of a search that proved no embedding exists.
const EXHAUSTED: u8 = 3;

fn main() -> ExitCode {
    // Discovery is an offline tool: the search counters and span timings
    // ARE its diagnostics, so stats default to on (env can still override).
    cli::Cli {
        bin: "discover",
        usage: USAGE,
        report: cli::Report::Always,
    }
    .run(|words| {
        let args = Args::parse(
            words,
            &[],
            &[
                "--dilation",
                "--dim",
                "--budget",
                "--restarts",
                "--anneal-steps",
            ],
        )?;
        let mut dims: Vec<usize> = args.numbers()?;
        dims.sort_unstable();
        Shape::check(&dims).map_err(|e| e.to_string())?;
        let shape = Shape::new(&dims);
        let host_dim = args.number("--dim")?;
        let host_dim = host_dim.unwrap_or_else(|| cube_dim(shape.nodes() as u64));
        if host_dim > MAX_HOST_DIM {
            return Err(format!(
                "{shape} in Q{host_dim}: the search stops at Q{MAX_HOST_DIM}"
            ));
        }
        Ok(search(
            &shape,
            host_dim,
            cli::within(
                "--dilation",
                args.number_or("--dilation", 2)?,
                1..=MAX_HOST_DIM,
            )?,
            args.number_or("--budget", 200_000_000)?,
            args.number_or("--restarts", 8)?,
            args.number_or("--anneal-steps", 5_000_000)?,
        ))
    })
}

/// Exact backtracking over `restarts + 1` seeds, then annealing; prints
/// the `CatalogEntry` of the first map found.
fn search(
    shape: &Shape,
    host_dim: u32,
    dilation: u32,
    budget: u64,
    restarts: u64,
    anneal_steps: u64,
) -> ExitCode {
    eprintln!(
        "searching {} -> Q_{} with dilation <= {} ({} nodes / {} addresses)",
        shape,
        host_dim,
        dilation,
        shape.nodes(),
        1u64 << host_dim
    );

    let guest = Mesh::new(shape.clone()).to_graph();
    let order: Vec<u32> = (0..guest.nodes() as u32).collect();

    // Phase 1: exact backtracking, deterministic then shuffled. The
    // reporter shows restart progress; per-restart step counts, prunes,
    // and time-to-first-solution land in the final snapshot.
    let seeds = std::iter::once(None).chain((0..restarts).map(Some));
    let progress = Progress::always("exact restarts", restarts.saturating_add(1));
    for seed in seeds {
        let cfg = SearchConfig {
            host_dim,
            max_dilation: dilation,
            node_budget: budget / restarts.saturating_add(1),
            shuffle_seed: seed,
        };
        let outcome = find_embedding(&guest, &order, &cfg);
        progress.tick(1);
        match outcome {
            SearchOutcome::Found(map) => {
                progress.finish();
                eprintln!("exact search found a map (seed {seed:?})");
                if dilation <= 2 && !certifies_congestion2(shape, host_dim, &map) {
                    eprintln!("…but congestion-2 routing is infeasible; retrying");
                    continue;
                }
                let provenance = "exact backtracking, congestion-2 certified";
                print!("{}", entry_source(shape.dims(), host_dim, &map, provenance));
                return ExitCode::SUCCESS;
            }
            SearchOutcome::Exhausted => {
                progress.finish();
                eprintln!("EXHAUSTED: no embedding exists with these parameters");
                return ExitCode::from(EXHAUSTED);
            }
            SearchOutcome::BudgetExceeded => {}
        }
    }
    progress.finish();

    // Phase 2: annealing.
    let cfg = AnnealConfig {
        host_dim,
        max_dilation: dilation,
        steps: anneal_steps,
        t_start: 2.5,
        t_end: 0.005,
        seed: 0xC0FFEE,
    };
    match anneal_restarts(&guest, &cfg, restarts.max(1)) {
        AnnealOutcome::Found(map) => {
            eprintln!("annealing found a map");
            let provenance = if dilation <= 2 && certifies_congestion2(shape, host_dim, &map) {
                "simulated annealing, congestion-2 certified"
            } else {
                "simulated annealing (congestion-2 routing NOT certified)"
            };
            print!("{}", entry_source(shape.dims(), host_dim, &map, provenance));
            ExitCode::SUCCESS
        }
        AnnealOutcome::Best { energy, .. } => {
            eprintln!("no embedding found; best residual energy {energy}");
            ExitCode::FAILURE
        }
    }
}

fn certifies_congestion2(shape: &Shape, host_dim: u32, map: &[u64]) -> bool {
    let mesh = Mesh::new(shape.clone());
    let edges = mesh_edge_list(&mesh);
    certify_congestion(map, &edges, Hypercube::new(host_dim), 2).is_some()
}
