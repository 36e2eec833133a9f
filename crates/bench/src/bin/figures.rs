//! Regenerate every table and figure of the paper (and the repo's own
//! ablations). Each subcommand prints the series the paper reports;
//! EXPERIMENTS.md records paper-vs-measured.
//!
//! Usage: `figures [fig1] [fig2 [max_n]] [exceptions] [twod] [examples]
//!         [catalog] [torus] [manytoone] [netsim] [ablation] [opencase]
//!         [all] [--stats]`
//!
//! `--stats` (or `CUBEMESH_STATS=text|json`) prints an instrumentation
//! snapshot after the selected figures run. `fig2`'s `max_n` is in
//! `1..=9` (default 9). The whole line is checked before any figure
//! runs: an unknown figure or flag, or a `max_n` outside its range,
//! prints the usage and exits 2; `--help` prints it and exits 0.

use cubemesh_census::two_d::census_2d_full;
use cubemesh_census::{
    census_2d, census_3d, constructive_exceptions_up_to, exceptions_up_to,
    gray_fraction_closed_form, gray_fraction_exact, gray_fraction_monte_carlo,
};
use cubemesh_core::{classify3, construct, embed_mesh, plan_shape, Planner};
use cubemesh_embedding::{gray_mesh_embedding, load_factor, verify_many_to_one};
use cubemesh_manytoone::{contract, corollary5, optimal_load_factor};
use cubemesh_netsim::{simulate, stencil_exchange};
use cubemesh_obs::cli::{self, Args};
use cubemesh_reshape::snake_embedding;
use cubemesh_search::{anneal, catalog_entries, AnnealConfig, AnnealOutcome};
use cubemesh_topology::{cube_dim, Shape};
use cubemesh_torus::{corollary3_dilation2, corollary3_dilation3, embed_torus};
use std::process::ExitCode;

const USAGE: &str = "usage: figures [fig1] [fig2 [max_n]] [exceptions] [twod] [examples] \
                     [catalog] [torus] [manytoone] [netsim] [ablation] [opencase] [all] [--stats]";

/// The figures that take no argument, by name.
const NAMED: [(&str, fn()); 11] = [
    ("fig1", fig1),
    ("exceptions", exceptions),
    ("twod", twod),
    ("examples", examples),
    ("catalog", catalog),
    ("torus", torus),
    ("manytoone", manytoone),
    ("netsim", netsim),
    ("ablation", ablation),
    ("opencase", opencase),
    ("all", all),
];

fn main() -> ExitCode {
    cli::Cli {
        bin: "figures",
        usage: USAGE,
        report: cli::Report::Stats,
    }
    .run(|words| {
        for figure in figures(Args::parse(words, &[], &[])?.positional())? {
            figure();
        }
        Ok(ExitCode::SUCCESS)
    })
}

/// The figures `words` name, in order; `fig2` takes an optional
/// `max_n` in `1..=9`, the census's paper domain.
fn figures(words: &[String]) -> Result<Vec<Box<dyn Fn()>>, String> {
    if words.is_empty() {
        return Err("no figure given".to_owned());
    }
    let mut out: Vec<Box<dyn Fn()>> = Vec::new();
    let mut it = words.iter().peekable();
    while let Some(w) = it.next() {
        if w == "fig2" {
            let max_n = match it.next_if(|n| n.bytes().all(|b| b.is_ascii_digit())) {
                Some(n) => cli::within("fig2", cli::number("fig2", n)?, 1..=9)?,
                None => 9,
            };
            out.push(Box::new(move || fig2(max_n)));
        } else {
            let named = NAMED.iter().find(|(name, _)| name == w);
            out.push(Box::new(named.ok_or(format!("unknown figure '{w}'"))?.1));
        }
    }
    Ok(out)
}

/// Every paper figure, in order.
fn all() {
    fig1();
    fig2(9);
    exceptions();
    twod();
    examples();
    catalog();
    torus();
    manytoone();
    netsim();
}

/// Figure 1: Gray-code minimal-expansion fraction vs k.
fn fig1() {
    println!("== Figure 1: fraction of k-D meshes minimal under Gray code ==");
    println!(
        "{:>3} {:>12} {:>12} {:>16}",
        "k", "closed-form", "monte-carlo", "exact"
    );
    for k in 1..=10u32 {
        let cf = gray_fraction_closed_form(k);
        let mc = gray_fraction_monte_carlo(k, 2_000_000, 0xF1A5 + k as u64);
        let exact = match k {
            1 => "1.0000 (n=9)".to_string(),
            2 => format!("{:.4} (n=9)", gray_fraction_exact(2, 9).expect("k ≤ 3")),
            3 => format!("{:.4} (n=7)", gray_fraction_exact(3, 7).expect("k ≤ 3")),
            _ => "-".to_string(),
        };
        println!("{:>3} {:>12.6} {:>12.6} {:>16}", k, cf, mc, exact);
    }
    println!(
        "paper quotes f2 ≈ 0.61 (ours {:.4}), f3 ≈ 0.27 (ours {:.4})\n",
        gray_fraction_closed_form(2),
        gray_fraction_closed_form(3)
    );
}

/// Figure 2 + the §5 in-text cumulative percentages.
fn fig2(max_n: u32) {
    println!("== Figure 2: cumulative % of l1 x l2 x l3 meshes (li <= 2^n) ==");
    println!(
        "{:>2} {:>8} {:>8} {:>8} {:>8}   {:>12}",
        "n", "S1", "S2", "S3", "S4", "constructive"
    );
    for n in 1..=max_n {
        let t = std::time::Instant::now();
        let c = census_3d(n);
        let s = c.cumulative_percent();
        println!(
            "{:>2} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%   {:>11.1}%   ({:.1?})",
            n,
            s[0],
            s[1],
            s[2],
            s[3],
            c.constructive_percent(),
            t.elapsed()
        );
    }
    println!("paper (n = 9): 28.5%, 81.5%, 82.9%, 96.1%\n");
}

/// §5 exception lists.
fn exceptions() {
    println!("== §5 open meshes (fail methods 1-4) ==");
    let at128 = exceptions_up_to(128);
    println!("<= 128 nodes: {:?} (paper: [(5,5,5)])", at128);
    let at256 = exceptions_up_to(256);
    println!(
        "<= 256 nodes: {:?}\n  (paper adds (5,7,7), (3,9,9), (5,5,10), (3,5,17))",
        at256
    );
    let cons = constructive_exceptions_up_to(128);
    println!("constructive planner misses <= 128 nodes: {:?}\n", cons);
}

/// §3.3 2-D claim.
fn twod() {
    println!("== §3.3: 2-D meshes <= 64 nodes, paper's direct set ==");
    let c = census_2d(64);
    println!(
        "covered {}/{} — missed: {:?} (paper: only 3x21)",
        c.covered.len(),
        c.covered.len() + c.missed.len(),
        c.missed
    );
    let full = census_2d_full(64);
    println!(
        "with this repo's full catalog: missed {:?} (3x21 is now a direct table)",
        full.missed
    );
    println!(
        "constructive 2-D coverage over l1,l2 <= 512: {:.1}% (the paper's \
         [4]-backed classification is 100% by definition)\n",
        100.0 * cubemesh_census::two_d::coverage_fraction_2d(512)
    );
}

/// §4.2/§5 worked examples, constructed and measured.
fn examples() {
    println!("== worked examples: plan, expansion, dilation, congestion ==");
    let mut planner = Planner::new();
    for dims in [
        vec![12usize, 20],
        vec![3, 25, 3],
        vec![3, 3, 23],
        vec![5, 6, 7],
        vec![5, 10, 11],
        vec![6, 11, 7],
        vec![21, 9, 5],
        vec![27, 3, 3],
        vec![9, 9, 9],
    ] {
        let shape = Shape::new(&dims);
        match plan_shape(&mut planner, &shape) {
            Some(hit) => {
                let emb = construct(&shape, &hit.plan).expect("planner-produced plan lowers");
                emb.verify().expect("constructed embedding must verify");
                let m = emb.metrics();
                println!(
                    "{:>10}: Q{} (minimal {}), dilation {}, congestion {}, avg dil {:.3}  [{}]",
                    shape.to_string(),
                    m.host_dim,
                    shape.minimal_cube_dim(),
                    m.dilation,
                    m.congestion,
                    m.avg_dilation,
                    hit.plan
                );
            }
            None => println!("{:>10}: no plan", shape.to_string()),
        }
    }
    println!();
}

/// The direct-embedding catalog (§3.3 tables, machine-rediscovered).
fn catalog() {
    println!("== direct-embedding catalog (replaces the tables of [13],[14]) ==");
    for e in catalog_entries() {
        let shape = Shape::new(e.dims);
        let emb = cubemesh_search::catalog_embedding(&shape).unwrap();
        emb.verify().unwrap();
        let m = emb.metrics();
        println!(
            "{:>8} -> Q{}: dilation {}, congestion {}, avg dil {:.3}, avg cong {:.3}  [{}]",
            shape.to_string(),
            e.host_dim,
            m.dilation,
            m.congestion,
            m.avg_dilation,
            m.avg_congestion,
            e.provenance
        );
    }
    println!();
}

/// §6: wraparound meshes.
fn torus() {
    println!("== §6: wraparound meshes ==");
    println!(
        "{:>9} {:>6} {:>9} {:>9} {:>11}",
        "torus", "cube", "dilation", "bound", "rule"
    );
    for dims in [
        vec![6usize, 10],
        vec![4, 6],
        vec![12, 20],
        vec![7, 8],
        vec![5, 9],
        vec![8, 8],
        vec![4, 6, 10],
        vec![16],
        vec![15],
    ] {
        let shape = Shape::new(&dims);
        match embed_torus(&shape) {
            Some(out) => {
                out.embedding.verify().unwrap();
                let m = out.embedding.metrics();
                println!(
                    "{:>9} {:>6} {:>9} {:>9} {:>11}",
                    shape.to_string(),
                    format!("Q{}", m.host_dim),
                    m.dilation,
                    out.dilation_bound,
                    format!("{:?}", out.rule)
                );
            }
            None => println!("{:>9}   none", shape.to_string()),
        }
    }
    // Corollary 3 coverage sweep.
    let (mut d2, mut d3, mut total) = (0u64, 0u64, 0u64);
    for l1 in 3..=64usize {
        for l2 in 3..=64usize {
            total += 1;
            if corollary3_dilation2(l1, l2) {
                d2 += 1;
            } else if corollary3_dilation3(l1, l2) {
                d3 += 1;
            }
        }
    }
    println!(
        "Corollary 3 sweep (3 <= li <= 64): dilation<=2 {:.1}%, +dilation<=3 {:.1}%\n",
        100.0 * d2 as f64 / total as f64,
        100.0 * (d2 + d3) as f64 / total as f64
    );
}

/// §7: many-to-one.
fn manytoone() {
    println!("== §7: many-to-one embeddings ==");
    // The paper's 19x19 example.
    let shape = Shape::new(&[19, 19]);
    let emb = corollary5(&shape, 5).expect("19x19 cover");
    verify_many_to_one(&emb).unwrap();
    let lf = load_factor(emb.map(), emb.host());
    println!(
        "19x19 -> Q5: dilation {}, load-factor {} (paper 15), optimal {} (paper 12)",
        emb.metrics().dilation,
        lf,
        optimal_load_factor(shape.nodes(), 5)
    );
    // Corollary 4 sweep.
    for (base, factors) in [
        (vec![4usize, 8], vec![3usize, 2]),
        (vec![8, 8], vec![5, 3]),
        (vec![4, 4, 4], vec![3, 1, 5]),
    ] {
        let bs = Shape::new(&base);
        let b = gray_mesh_embedding(&bs);
        let emb = contract(&bs, &b, &factors);
        verify_many_to_one(&emb).unwrap();
        let m = emb.metrics();
        let lf = load_factor(emb.map(), emb.host());
        let bound: usize =
            factors.iter().product::<usize>() / factors.iter().copied().min().unwrap();
        println!(
            "{} x factors {:?}: dilation {}, load {}, congestion {} (Cor.4 bound {})",
            bs, factors, m.dilation, lf, m.congestion, bound
        );
    }
    println!();
}

/// A1 ablation: what dilation/congestion cost in communication cycles.
fn netsim() {
    println!("== netsim: one stencil halo-exchange, 32-flit messages ==");
    println!(
        "{:>10} {:>22} {:>6} {:>9} {:>9} {:>10}",
        "mesh", "embedding", "cube", "dilation", "makespan", "slowdown"
    );
    for dims in [
        vec![5usize, 6, 7],
        vec![9, 9, 9],
        vec![12, 20],
        vec![17, 17],
    ] {
        let shape = Shape::new(&dims);
        let flits = 32;
        let mut rows: Vec<(String, cubemesh_embedding::Embedding)> = Vec::new();
        let (emb, minimal) = embed_mesh(&shape);
        rows.push((
            if minimal {
                "decomposition".into()
            } else {
                "gray (fallback)".into()
            },
            emb,
        ));
        rows.push(("gray (expanded)".into(), gray_mesh_embedding(&shape)));
        rows.push(("snake (minimal)".into(), snake_embedding(&shape)));
        for (name, emb) in rows {
            let msgs = stencil_exchange(&emb, flits);
            let r = simulate(emb.host(), &msgs);
            let slow = r.makespan as f64 / flits as f64;
            println!(
                "{:>10} {:>22} {:>6} {:>9} {:>9} {:>9.2}x",
                shape.to_string(),
                name,
                format!("Q{}", emb.host().dim()),
                emb.metrics().dilation,
                r.makespan,
                slow
            );
        }
    }
    println!();
}

/// A2 ablation: route assignment strategies and switching disciplines.
fn ablation() {
    use cubemesh_embedding::router::{route_all, RouteStrategy};
    use cubemesh_netsim::{simulate_with, Switching};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    println!("== ablation: routing strategy vs congestion (random maps) ==");
    println!(
        "{:>8} {:>12} {:>10} {:>10}",
        "mesh", "host", "canonical", "balanced"
    );
    let mut rng = StdRng::seed_from_u64(11);
    for dims in [vec![4usize, 6], vec![5, 7], vec![4, 4, 4]] {
        let shape = Shape::new(&dims);
        let host = cubemesh_topology::Hypercube::new(shape.minimal_cube_dim() + 1);
        let mut addrs: Vec<u64> = (0..host.nodes()).collect();
        addrs.shuffle(&mut rng);
        let map: Vec<u64> = addrs[..shape.nodes()].to_vec();
        let mesh = cubemesh_topology::Mesh::new(shape.clone());
        let edges = cubemesh_embedding::builders::mesh_edge_list(&mesh);
        let canon = route_all(&map, &edges, host, RouteStrategy::Canonical);
        let bal = route_all(&map, &edges, host, RouteStrategy::Balanced { passes: 3 });
        println!(
            "{:>8} {:>12} {:>10} {:>10}",
            shape.to_string(),
            format!("Q{}", host.dim()),
            cubemesh_search::routes::max_congestion(&canon, host),
            cubemesh_search::routes::max_congestion(&bal, host),
        );
    }

    println!("\n== ablation: store-and-forward vs virtual cut-through ==");
    println!(
        "{:>8} {:>16} {:>12} {:>12}",
        "mesh", "embedding", "SF makespan", "CT makespan"
    );
    for dims in [vec![9usize, 9, 9], vec![12, 20]] {
        let shape = Shape::new(&dims);
        let (emb, _) = embed_mesh(&shape);
        let snake = snake_embedding(&shape);
        for (name, e) in [("decomposition", &emb), ("snake", &snake)] {
            let msgs = stencil_exchange(e, 32);
            let sf = simulate_with(e.host(), &msgs, Switching::StoreAndForward);
            let ct = simulate_with(e.host(), &msgs, Switching::CutThrough);
            println!(
                "{:>8} {:>16} {:>12} {:>12}",
                shape.to_string(),
                name,
                sf.makespan,
                ct.makespan
            );
        }
    }
    println!();
}

/// A3: the paper's open 5x5x5 case — settled by the exact search.
fn opencase() {
    println!("== open case: 5x5x5 -> Q7 at dilation 2 ==");
    println!(
        "(5x5x5: minimal cube Q{}, paper classification: {:?} — the paper's",
        cube_dim(125),
        classify3(5, 5, 5)
    );
    println!(" only unresolved mesh <= 128 nodes)");

    // The exact backtracking search settled it (49 minutes): verify the
    // baked map end to end.
    let entry = cubemesh_search::catalog::open_case_5x5x5();
    let shape = Shape::new(entry.dims);
    let mesh = cubemesh_topology::Mesh::new(shape.clone());
    let edges = cubemesh_embedding::builders::mesh_edge_list(&mesh);
    let host = cubemesh_topology::Hypercube::new(entry.host_dim);
    let routes = cubemesh_search::routes::certify_congestion(entry.map, &edges, host, 3)
        .expect("congestion-3 routing");
    let emb =
        cubemesh_embedding::Embedding::new(mesh.nodes(), edges, host, entry.map.to_vec(), routes);
    emb.verify().unwrap();
    let m = emb.metrics();
    println!(
        "SETTLED: exact search found a map — Q{}, dilation {}, congestion {} (minimal expansion: {})",
        m.host_dim, m.dilation, m.congestion, m.is_minimal_expansion()
    );

    // For comparison, the annealing heuristic alone does not crack it.
    let g = mesh.to_graph();
    let cfg = AnnealConfig {
        steps: 1_000_000,
        ..AnnealConfig::dilation2_minimal(125, 0xBEEF)
    };
    match anneal(&g, &cfg) {
        AnnealOutcome::Found(_) => println!("(annealing also finds a map)"),
        AnnealOutcome::Best { energy, .. } => println!(
            "(annealing alone stalls at residual dilation excess {} — exact search was required)\n",
            energy
        ),
    }
}
