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
//! (counters, histograms, span timings) after the run; setting
//! `CUBEMESH_STATS=text` or `CUBEMESH_STATS=json` does the same without
//! the flag and selects the output format. `--trace FILE` (any subcommand)
//! records a hierarchical execution trace and writes three exports at
//! exit: Chrome `trace_event` JSON at FILE (open in Perfetto), folded
//! flamegraph stacks at FILE.folded, and a stable-schema JSONL event log
//! at FILE.jsonl.

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

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    obs::init_from_env();
    if args.iter().any(|a| a == "--stats") {
        args.retain(|a| a != "--stats");
        if obs::mode() == obs::StatsMode::Off {
            obs::set_mode(obs::StatsMode::Text);
        }
    }
    let trace_out = take_trace_flag(&mut args);
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!(
            "usage: cubemesh <embed|classify|torus|simulate|census|verify|replay> … \
             [--stats] [--trace FILE]"
        );
        return ExitCode::from(2);
    };
    let code = match cmd.as_str() {
        "embed" => embed(rest),
        "classify" => classify(rest),
        "torus" => torus(rest),
        "simulate" => simulate_cmd(rest),
        "census" => census(rest),
        "verify" => verify(rest),
        "replay" => replay_cmd(rest),
        other => {
            eprintln!("unknown command '{}'", other);
            ExitCode::from(2)
        }
    };
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

fn parse_dims(args: &[String]) -> (Vec<usize>, Vec<(String, String)>) {
    let mut dims = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            // A following `--flag` is the next flag, not this one's value,
            // so bare boolean flags (--json) compose with valued ones.
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap(),
                _ => String::new(),
            };
            flags.push((name.to_string(), value));
        } else if let Ok(d) = a.parse() {
            dims.push(d);
        } else {
            eprintln!("ignoring argument '{}'", a);
        }
    }
    (dims, flags)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn embed(args: &[String]) -> ExitCode {
    let (dims, flags) = parse_dims(args);
    if dims.is_empty() {
        eprintln!("usage: cubemesh embed <l1> [l2 …] [--out FILE]");
        return ExitCode::from(2);
    }
    let shape = Shape::new(&dims);
    let (emb, minimal) = embed_mesh(&shape);
    if let Err(e) = emb.verify() {
        eprintln!(
            "internal error: constructed embedding failed to verify: {}",
            e
        );
        return ExitCode::from(1);
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
                return ExitCode::from(1);
            }
        };
        if let Err(e) = write_embedding(&emb, &mut f) {
            eprintln!("write failed: {}", e);
            return ExitCode::from(1);
        }
        println!("wrote {}", path);
    }
    ExitCode::SUCCESS
}

fn classify(args: &[String]) -> ExitCode {
    let (dims, _) = parse_dims(args);
    if dims.len() != 3 {
        eprintln!("usage: cubemesh classify <l1> <l2> <l3>");
        return ExitCode::from(2);
    }
    let shape = Shape::new(&dims);
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
    ExitCode::SUCCESS
}

fn torus(args: &[String]) -> ExitCode {
    let (dims, _) = parse_dims(args);
    if dims.is_empty() {
        eprintln!("usage: cubemesh torus <l1> [l2 …]");
        return ExitCode::from(2);
    }
    let shape = Shape::new(&dims);
    match embed_torus(&shape) {
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
    }
}

fn simulate_cmd(args: &[String]) -> ExitCode {
    let (dims, flags) = parse_dims(args);
    if dims.is_empty() {
        eprintln!("usage: cubemesh simulate <l1> [l2 …] [--flits N] [--cut-through x]");
        return ExitCode::from(2);
    }
    let flits: u32 = flag(&flags, "flits")
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let switching = if flag(&flags, "cut-through").is_some() {
        Switching::CutThrough
    } else {
        Switching::StoreAndForward
    };
    let json = flag(&flags, "json").is_some();
    let shape = Shape::new(&dims);
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
    ExitCode::SUCCESS
}

fn census(args: &[String]) -> ExitCode {
    let (dims, _) = parse_dims(args);
    let n = dims.first().copied().unwrap_or(5) as u32;
    if !(1..=9).contains(&n) {
        eprintln!("census n must be 1..=9");
        return ExitCode::from(2);
    }
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
    ExitCode::SUCCESS
}

fn replay_cmd(args: &[String]) -> ExitCode {
    use cubemesh::replay::{
        bursty_trace, certificate_slack, rate_sweep, replay, saturation_knee, shift_trace,
        stencil_trace, ReplayConfig, Trace,
    };
    let (dims, flags) = parse_dims(args);
    if dims.is_empty() {
        eprintln!(
            "usage: cubemesh replay <l1> [l2 …] [--pattern stencil|shifts|bursty|sweep]\n\
             \x20  [--flits N] [--period N] [--phases N] [--horizon N] [--window N]\n\
             \x20  [--seed N] [--cut-through x] [--trace-in FILE] [--record FILE]\n\
             \x20  [--slack x] [--check x] [--json x]"
        );
        return ExitCode::from(2);
    }
    let shape = Shape::new(&dims);
    let flits: u32 = flag(&flags, "flits")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let phases: u64 = flag(&flags, "phases")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let horizon: u64 = flag(&flags, "horizon")
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let seed: u64 = flag(&flags, "seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let switching = if flag(&flags, "cut-through").is_some() {
        Switching::CutThrough
    } else {
        Switching::StoreAndForward
    };
    let json = flag(&flags, "json").is_some();

    if flag(&flags, "slack").is_some() {
        return match certificate_slack(&shape, flits, phases, switching) {
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
        };
    }

    let (emb, _) = embed_mesh(&shape);
    let pattern = flag(&flags, "pattern").unwrap_or("stencil");

    if pattern == "sweep" {
        let rates: [(u64, u64); 7] = [(1, 64), (1, 32), (1, 16), (1, 8), (1, 4), (1, 2), (1, 1)];
        return match rate_sweep(&emb, &rates, flits, horizon, seed, switching) {
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
        };
    }

    let period: u64 = flag(&flags, "period")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4 * flits as u64);
    let trace = if let Some(path) = flag(&flags, "trace-in") {
        let f = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot open {}: {}", path, e);
                return ExitCode::from(1);
            }
        };
        match Trace::load(&mut BufReader::new(f)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot load trace: {}", e);
                return ExitCode::from(1);
            }
        }
    } else {
        match pattern {
            "stencil" => stencil_trace(emb.edge_count(), flits, period, phases),
            "shifts" => shift_trace(&shape, flits, period, phases),
            "bursty" => bursty_trace(emb.guest_nodes(), flits, horizon, 16, 32, 0, seed),
            other => {
                eprintln!("unknown pattern '{}'", other);
                return ExitCode::from(2);
            }
        }
    };
    if let Some(path) = flag(&flags, "record") {
        let mut f = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create {}: {}", path, e);
                return ExitCode::from(1);
            }
        };
        if let Err(e) = trace.record(&mut f) {
            eprintln!("record failed: {}", e);
            return ExitCode::from(1);
        }
        eprintln!("recorded {} events to {}", trace.len(), path);
    }

    let cfg = ReplayConfig {
        switching,
        window: flag(&flags, "window")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    };
    let report = match replay(&emb, &trace, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {}", e);
            return ExitCode::from(1);
        }
    };

    if flag(&flags, "check").is_some() {
        let again = match replay(&emb, &trace, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay check: second run failed: {}", e);
                return ExitCode::from(1);
            }
        };
        if report.to_json() != again.to_json() {
            eprintln!("replay check FAILED: reports differ between identical runs");
            return ExitCode::from(1);
        }
        if report.result.delivered != trace.len() {
            eprintln!(
                "replay check FAILED: delivered {} != injected {}",
                report.result.delivered,
                trace.len()
            );
            return ExitCode::from(1);
        }
        println!(
            "replay check OK: {} messages, deterministic, makespan {}",
            trace.len(),
            report.result.makespan
        );
        return ExitCode::SUCCESS;
    }

    if json {
        println!("{}", report.to_json());
        return ExitCode::SUCCESS;
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
    ExitCode::SUCCESS
}

fn verify(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: cubemesh verify FILE");
        return ExitCode::from(2);
    };
    let f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {}: {}", path, e);
            return ExitCode::from(1);
        }
    };
    match read_embedding(&mut BufReader::new(f)) {
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
    }
}
