//! The `cubemesh` command-line tool: plan, classify, simulate, and export
//! mesh-in-cube embeddings.
//!
//! ```text
//! cubemesh embed 5 6 7 [--out FILE]      plan + construct + report metrics
//! cubemesh classify 21 9 5               paper method / constructive plan
//! cubemesh torus 6 10                    wraparound embedding
//! cubemesh simulate 9 9 9 [--flits N]    stencil-exchange comparison
//! cubemesh census 5                      Figure-2 census at li <= 2^5
//! cubemesh verify FILE                   re-verify an exported embedding
//! cubemesh replay 4 4 4 [--pattern P]    trace replay with windowed stats
//! ```
//!
//! `replay` drives the trace-replay subsystem: `--pattern
//! stencil|shifts|bursty|sweep` picks a synthetic trace (`--trace-in FILE`
//! loads a recorded one instead), `--slack` joins the replay against the
//! static congestion certificate, `--check` replays twice and fails unless
//! the reports are byte-identical and every injected message was
//! delivered, and `--record FILE` saves the trace as JSONL for later
//! replay.
//!
//! Every subcommand accepts `--stats` to print an instrumentation snapshot
//! (counters, histograms, span timings, and the process's peak resident
//! set as `process.peak_rss_kib`) after the run; setting
//! `CUBEMESH_STATS=text` or `CUBEMESH_STATS=json` does the same without
//! the flag and selects the output format. `--trace FILE` (any subcommand)
//! records a hierarchical execution trace and writes three exports at
//! exit: Chrome `trace_event` JSON at FILE (open in Perfetto), folded
//! flamegraph stacks at FILE.folded, and a stable-schema JSONL event log
//! at FILE.jsonl.
//!
//! `--help` prints the usage. An unknown flag, a word that is not an
//! extent, or an extent outside `Shape::MAX_AXIS`/`MAX_NODES` prints the
//! usage and exits 2, as does a shape above the node limit of the
//! subcommand (see [`MAX_EMBED_NODES`] and its siblings).

use cubemesh::core::{classify3, construct, embed_mesh, plan_shape, Planner};
use cubemesh::embedding::gray_mesh_embedding;
use cubemesh::embedding::portable::{read_embedding, write_embedding};
use cubemesh::netsim::{simulate_with, stencil_exchange, Switching};
use cubemesh::obs;
use cubemesh::reshape::snake_embedding;
use cubemesh::topology::Shape;
use cubemesh::torus::embed_torus;
use std::io::BufReader;
use std::process::ExitCode;

/// Every subcommand with its arguments; printed on `--help` and after a
/// usage error.
const USAGE: &str = "usage: cubemesh <command> … [--stats] [--trace FILE]
  embed <l1> [l2 …] [--out FILE]
  classify <l1> <l2> <l3>
  torus <l1> [l2 …]
  simulate <l1> [l2 …] [--flits N] [--cut-through] [--json]
  census [n]
  verify FILE
  replay <l1> [l2 …] [--pattern stencil|shifts|bursty|sweep] [--flits N]
      [--period N] [--phases N] [--horizon N] [--window N] [--seed N]
      [--cut-through] [--trace-in FILE] [--record FILE] [--slack] [--check] [--json]";

/// Largest guest, in nodes, that `embed` and `classify` build: the
/// paper's 512×512×512 census corner, `2²⁷` nodes. Its node map and
/// hop-form routes peak at ~1.8 GiB (14 B per node). Each subcommand's
/// limit keeps its peak resident set near that figure at default flags,
/// so a larger request is refused up front instead of aborting in the
/// allocator; the per-node peaks were measured on an x86-64 release
/// build.
const MAX_EMBED_NODES: usize = 1 << 27;

/// Largest `torus` guest: ~100 B per node (node-path routes and an
/// explicit edge list), ~1.6 GiB at `2²⁴`.
const MAX_TORUS_NODES: usize = 1 << 24;

/// Largest `simulate` guest: ~1.7 KiB per node (three embeddings, two
/// messages per edge and the simulator's queues), ~1.7 GiB at `2²⁰`.
const MAX_SIMULATE_NODES: usize = 1 << 20;

/// Largest `replay` guest: ~3.8 KiB per node at the default pattern
/// and phases, ~1.9 GiB at `2¹⁹`.
const MAX_REPLAY_NODES: usize = 1 << 19;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    obs::init_from_env();
    if args.iter().any(|a| a == "--stats") {
        args.retain(|a| a != "--stats");
        if obs::mode() == obs::StatsMode::Off {
            obs::set_mode(obs::StatsMode::Text);
        }
    }
    let trace_out = take_trace_flag(&mut args);
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "embed" => embed(rest),
        "classify" => classify(rest),
        "torus" => torus(rest),
        "simulate" => simulate_cmd(rest),
        "census" => census(rest),
        "verify" => verify(rest),
        "replay" => replay_cmd(rest),
        other => Err(format!("unknown command '{other}'")),
    };
    let code = result.unwrap_or_else(|e| {
        eprintln!("cubemesh: {e}\n{USAGE}");
        ExitCode::from(2)
    });
    // The snapshot closes with the peak resident set, the figure a
    // memory claim about this run is read from.
    if let Some(kib) = obs::peak_rss_kib() {
        obs::counter!("process.peak_rss_kib").add(kib);
    }
    // Text goes to stderr, JSON as one line to stdout; no-op when off.
    obs::report();
    write_trace(trace_out.as_deref());
    code
}

/// Pre-scan `--trace FILE` (valid anywhere on the command line), strip it
/// from `args`, and enable trace collection. Returns the output path.
fn take_trace_flag(args: &mut Vec<String>) -> Option<String> {
    let i = args.iter().position(|a| a == "--trace")?;
    if i + 1 >= args.len() || args[i + 1].starts_with("--") {
        eprintln!("--trace requires an output file path");
        std::process::exit(2);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    obs::trace::set_enabled(true);
    Some(path)
}

/// Drain the trace buffers and write the Chrome / folded / JSONL exports
/// next to `path`. No-op when tracing never ran.
fn write_trace(path: Option<&str>) {
    let Some(path) = path else { return };
    obs::trace::set_enabled(false);
    let log = obs::trace::drain();
    match log.write_files(std::path::Path::new(path)) {
        Ok(paths) => {
            let names: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
            eprintln!("trace: {} events -> {}", log.len(), names.join(", "));
        }
        Err(e) => eprintln!("trace write failed: {}", e),
    }
}

/// The extents and `--flag [value]` pairs of a subcommand line. A flag
/// takes the next word as its value unless that word is a flag, so bare
/// boolean flags (`--json`) compose with valued ones. A flag outside
/// `known`, or a word that is not an extent, is a usage error.
fn parse_dims(args: &[String], known: &[&str]) -> Result<(Vec<usize>, Flags), String> {
    let mut dims = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                return Err(format!("unknown flag '{a}'"));
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => String::new(),
            };
            flags.push((name.to_string(), value));
        } else {
            let d = a
                .parse()
                .map_err(|_| format!("'{a}' is not an extent (a positive integer)"))?;
            dims.push(d);
        }
    }
    Ok((dims, flags))
}

type Flags = Vec<(String, String)>;

/// The shape of `dims`, checked against the `Shape` limits first so a bad
/// extent is a usage error rather than a panic in `Shape::new`, then
/// against the subcommand's node limit `max_nodes`.
fn checked_shape(dims: &[usize], max_nodes: usize) -> Result<Shape, String> {
    if dims.iter().any(|&d| d == 0 || d > Shape::MAX_AXIS) {
        return Err(format!("extents must be in 1..={}", Shape::MAX_AXIS));
    }
    let nodes = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    match nodes {
        Some(n) if n <= max_nodes.min(Shape::MAX_NODES) => Ok(Shape::new(dims)),
        _ => Err(format!("the shape has more than {max_nodes} nodes")),
    }
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// The numeric value of `--name`, or `default` when the flag is absent.
fn number<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(flags, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: '{v}' is not a non-negative integer")),
    }
}

fn embed(args: &[String]) -> Result<ExitCode, String> {
    let (dims, flags) = parse_dims(args, &["out"])?;
    if dims.is_empty() {
        return Err("embed needs extents".into());
    }
    let shape = checked_shape(&dims, MAX_EMBED_NODES)?;
    let (emb, minimal) = embed_mesh(&shape);
    if let Err(e) = emb.verify() {
        eprintln!(
            "internal error: constructed embedding failed to verify: {}",
            e
        );
        return Ok(ExitCode::from(1));
    }
    let m = emb.metrics();
    println!(
        "{}: Q{} ({}), expansion {:.3}, dilation {}, congestion {}, avg dilation {:.3}",
        shape,
        m.host_dim,
        if minimal {
            "minimal"
        } else {
            "Gray fallback — no minimal plan known"
        },
        m.expansion,
        m.dilation,
        m.congestion,
        m.avg_dilation
    );
    if let Some(path) = flag(&flags, "out") {
        let mut f = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create {}: {}", path, e);
                return Ok(ExitCode::from(1));
            }
        };
        if let Err(e) = write_embedding(&emb, &mut f) {
            eprintln!("write failed: {}", e);
            return Ok(ExitCode::from(1));
        }
        println!("wrote {}", path);
    }
    Ok(ExitCode::SUCCESS)
}

fn classify(args: &[String]) -> Result<ExitCode, String> {
    let (dims, _) = parse_dims(args, &[])?;
    if dims.len() != 3 {
        return Err("classify needs three extents".into());
    }
    let shape = checked_shape(&dims, MAX_EMBED_NODES)?;
    match classify3(dims[0] as u64, dims[1] as u64, dims[2] as u64) {
        Some(m) => println!(
            "{}: paper method {:?} (cube Q{})",
            shape,
            m,
            shape.minimal_cube_dim()
        ),
        None => println!("{}: open under the paper's methods 1-4", shape),
    }
    match plan_shape(&mut Planner::new(), &shape) {
        Some(hit) => {
            let emb = construct(&shape, &hit.plan).expect("planner-produced plan lowers");
            let met = emb.metrics();
            println!(
                "constructive: {} — dilation {}, congestion {} (strategy {}, confidence {})",
                hit.plan, met.dilation, met.congestion, hit.strategy, hit.confidence
            );
        }
        None => println!("constructive: no plan in this repo's catalog"),
    }
    Ok(ExitCode::SUCCESS)
}

fn torus(args: &[String]) -> Result<ExitCode, String> {
    let (dims, _) = parse_dims(args, &[])?;
    if dims.is_empty() {
        return Err("torus needs extents".into());
    }
    let shape = checked_shape(&dims, MAX_TORUS_NODES)?;
    Ok(match embed_torus(&shape) {
        Some(out) => {
            let m = out.embedding.metrics();
            println!(
                "{} (wraparound): Q{}, dilation {} (bound {}), congestion {}, rule {:?}",
                shape, m.host_dim, m.dilation, out.dilation_bound, m.congestion, out.rule
            );
            ExitCode::SUCCESS
        }
        None => {
            println!("{}: no §6 construction lands in the minimal cube", shape);
            ExitCode::from(1)
        }
    })
}

fn simulate_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (dims, flags) = parse_dims(args, &["flits", "cut-through", "json"])?;
    if dims.is_empty() {
        return Err("simulate needs extents".into());
    }
    let flits: u32 = number(&flags, "flits", 32)?;
    let switching = if flag(&flags, "cut-through").is_some() {
        Switching::CutThrough
    } else {
        Switching::StoreAndForward
    };
    let json = flag(&flags, "json").is_some();
    let shape = checked_shape(&dims, MAX_SIMULATE_NODES)?;
    if !json {
        println!(
            "{}: stencil exchange, {} flits, {:?}",
            shape, flits, switching
        );
    }
    let (decomp, minimal) = embed_mesh(&shape);
    let cases = [
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
    for (name, emb) in cases {
        let r = simulate_with(emb.host(), &stencil_exchange(&emb, flits), switching);
        if json {
            println!(
                "{{\"case\":\"{}\",\"host_dim\":{},\"dilation\":{},\"result\":{}}}",
                name,
                emb.host().dim(),
                emb.metrics().dilation,
                r.to_json()
            );
        } else {
            println!(
                "  {:<16} Q{:<3} dilation {:<2} makespan {:>6} ({:.2}x)  max queue {:<3} max latency {}",
                name,
                emb.host().dim(),
                emb.metrics().dilation,
                r.makespan,
                r.makespan as f64 / flits as f64,
                r.max_queue_depth,
                r.max_latency
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn census(args: &[String]) -> Result<ExitCode, String> {
    let (dims, _) = parse_dims(args, &[])?;
    let n = match dims[..] {
        [] => 5,
        [n] if (1..=9).contains(&n) => n as u32,
        _ => return Err("census takes one n in 1..=9".into()),
    };
    let c = cubemesh::census::census_3d(n);
    let s = c.cumulative_percent();
    println!(
        "n={}: S1 {:.1}%  S2 {:.1}%  S3 {:.1}%  S4 {:.1}%  constructive {:.1}%",
        n,
        s[0],
        s[1],
        s[2],
        s[3],
        c.constructive_percent()
    );
    Ok(ExitCode::SUCCESS)
}

fn replay_cmd(args: &[String]) -> Result<ExitCode, String> {
    use cubemesh::replay::{
        bursty_trace, certificate_slack, rate_sweep, replay, saturation_knee, shift_trace,
        stencil_trace, ReplayConfig, Trace,
    };
    let (dims, flags) = parse_dims(
        args,
        &[
            "pattern",
            "flits",
            "period",
            "phases",
            "horizon",
            "window",
            "seed",
            "cut-through",
            "trace-in",
            "record",
            "slack",
            "check",
            "json",
        ],
    )?;
    if dims.is_empty() {
        return Err("replay needs extents".into());
    }
    let shape = checked_shape(&dims, MAX_REPLAY_NODES)?;
    let flits: u32 = number(&flags, "flits", 8)?;
    let phases: u64 = number(&flags, "phases", 4)?;
    let horizon: u64 = number(&flags, "horizon", 256)?;
    let seed: u64 = number(&flags, "seed", 1)?;
    let period: u64 = number(&flags, "period", 4 * u64::from(flits))?;
    let window: u64 = number(&flags, "window", 0)?;
    let switching = if flag(&flags, "cut-through").is_some() {
        Switching::CutThrough
    } else {
        Switching::StoreAndForward
    };
    let json = flag(&flags, "json").is_some();

    if flag(&flags, "slack").is_some() {
        return Ok(match certificate_slack(&shape, flits, phases, switching) {
            Ok(entry) => {
                if json {
                    println!("{}", entry.to_json());
                } else {
                    println!(
                        "{}: certified <= {} flits/link/phase, measured {} \
                         (slack {}, utilization {:.2}){}",
                        shape,
                        entry.static_peak_flits,
                        entry.dynamic_peak_flits,
                        entry.slack_flits,
                        entry.utilization,
                        if entry.violation { "  VIOLATION" } else { "" }
                    );
                }
                if entry.violation {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("slack report failed: {}", e);
                ExitCode::from(1)
            }
        });
    }

    let (emb, _) = embed_mesh(&shape);
    let pattern = flag(&flags, "pattern").unwrap_or("stencil");

    if pattern == "sweep" {
        let rates: [(u64, u64); 7] = [(1, 64), (1, 32), (1, 16), (1, 8), (1, 4), (1, 2), (1, 1)];
        return Ok(
            match rate_sweep(&emb, &rates, flits, horizon, seed, switching) {
                Ok(points) => {
                    for p in &points {
                        if json {
                            println!("{}", p.to_json());
                        } else {
                            println!(
                                "  rate {}/{:<3} offered {:>9.3}  delivered {:>9.3}  \
                             avg latency {:>8.1}  makespan {}",
                                p.rate_num,
                                p.rate_den,
                                p.offered_rate,
                                p.delivered_rate,
                                p.avg_latency,
                                p.makespan
                            );
                        }
                    }
                    match saturation_knee(&points) {
                        Some(k) if !json => println!(
                            "saturation knee at rate {}/{}",
                            points[k].rate_num, points[k].rate_den
                        ),
                        None if !json => println!("no saturation within the ladder"),
                        _ => {}
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("sweep failed: {}", e);
                    ExitCode::from(1)
                }
            },
        );
    }

    let trace = if let Some(path) = flag(&flags, "trace-in") {
        let f = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot open {}: {}", path, e);
                return Ok(ExitCode::from(1));
            }
        };
        match Trace::load(&mut BufReader::new(f)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot load trace: {}", e);
                return Ok(ExitCode::from(1));
            }
        }
    } else {
        match pattern {
            "stencil" => stencil_trace(emb.edge_count(), flits, period, phases),
            "shifts" => shift_trace(&shape, flits, period, phases),
            "bursty" => bursty_trace(emb.guest_nodes(), flits, horizon, 16, 32, 0, seed),
            other => return Err(format!("unknown pattern '{other}'")),
        }
    };
    if let Some(path) = flag(&flags, "record") {
        let mut f = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create {}: {}", path, e);
                return Ok(ExitCode::from(1));
            }
        };
        if let Err(e) = trace.record(&mut f) {
            eprintln!("record failed: {}", e);
            return Ok(ExitCode::from(1));
        }
        eprintln!("recorded {} events to {}", trace.len(), path);
    }

    let cfg = ReplayConfig { switching, window };
    let report = match replay(&emb, &trace, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {}", e);
            return Ok(ExitCode::from(1));
        }
    };

    if flag(&flags, "check").is_some() {
        let again = match replay(&emb, &trace, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay check: second run failed: {}", e);
                return Ok(ExitCode::from(1));
            }
        };
        if report.to_json() != again.to_json() {
            eprintln!("replay check FAILED: reports differ between identical runs");
            return Ok(ExitCode::from(1));
        }
        if report.result.delivered != trace.len() {
            eprintln!(
                "replay check FAILED: delivered {} != injected {}",
                report.result.delivered,
                trace.len()
            );
            return Ok(ExitCode::from(1));
        }
        println!(
            "replay check OK: {} messages, deterministic, makespan {}",
            trace.len(),
            report.result.makespan
        );
        return Ok(ExitCode::SUCCESS);
    }

    if json {
        println!("{}", report.to_json());
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "{}: {} events over horizon {}, window {} ({} windows, warm-up {})",
        shape,
        trace.len(),
        report.horizon,
        report.window,
        report.windows.len(),
        report.warmup_windows
    );
    println!(
        "offered {:.3} flits/cycle, delivered-by-horizon {:.3}; peak link load {} \
         flits/window over {} directed links; makespan {}",
        report.offered_rate,
        report.delivered_rate,
        report.peak_link_flits_per_window,
        report.directed_links,
        report.result.makespan
    );
    let cap = 24usize;
    println!("  win   inj     dlv    p50    p99    maxlat  maxq   occupancy");
    for w in report.windows.iter().take(cap) {
        println!(
            "  {:>4} {:>6} {:>6} {:>6} {:>6} {:>8} {:>5}   {:.4}",
            w.index,
            w.injected,
            w.delivered,
            w.p50_latency,
            w.p99_latency,
            w.max_latency,
            w.max_queue_depth,
            w.occupancy
        );
    }
    if report.windows.len() > cap {
        println!(
            "  … {} more windows (use --json for all)",
            report.windows.len() - cap
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn verify(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("verify takes one FILE".into());
    };
    if path.starts_with("--") {
        return Err(format!("unknown flag '{path}'"));
    }
    let f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {}: {}", path, e);
            return Ok(ExitCode::from(1));
        }
    };
    Ok(match read_embedding(&mut BufReader::new(f)) {
        Ok(emb) => match emb.verify() {
            Ok(()) => {
                let m = emb.metrics();
                println!(
                    "OK: {} nodes -> Q{}, dilation {}, congestion {}",
                    emb.guest_nodes(),
                    m.host_dim,
                    m.dilation,
                    m.congestion
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("INVALID: {}", e);
                ExitCode::from(1)
            }
        },
        Err(e) => {
            eprintln!("parse error: {}", e);
            ExitCode::from(1)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each subcommand's limit admits the shape its peak was measured at
    /// and refuses one more plane of it.
    #[test]
    fn each_node_limit_admits_its_measured_shape() {
        for (limit, measured) in [
            (MAX_EMBED_NODES, [512, 512, 512]),
            (MAX_TORUS_NODES, [256, 256, 256]),
            (MAX_SIMULATE_NODES, [128, 128, 64]),
            (MAX_REPLAY_NODES, [128, 64, 64]),
        ] {
            assert_eq!(measured.iter().product::<usize>(), limit);
            assert!(checked_shape(&measured, limit).is_ok());
            let past = [measured[0] + 1, measured[1], measured[2]];
            assert!(checked_shape(&past, limit).is_err());
        }
    }
}
