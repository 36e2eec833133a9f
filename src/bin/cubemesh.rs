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
//! extent, or extents that fail `Shape::check` print the usage and exit
//! 2, as does a shape above the node limit of the subcommand (see
//! [`MAX_EMBED_NODES`] and its siblings) or a `replay` trace above
//! [`MAX_REPLAY_EVENTS`]. A run that finds a failure (a failed verify, a
//! slack violation, a `--check` mismatch) exits 1.

use cubemesh::core::{classify3, construct, embed_mesh, plan_shape, Planner, MAX_EMBED_NODES};
use cubemesh::embedding::portable::{read_embedding, write_embedding};
use cubemesh::embedding::{gray_mesh_embedding, Embedding};
use cubemesh::netsim::{simulate_with, stencil_exchange, Switching};
use cubemesh::obs::cli::{self, Args, Halt};
use cubemesh::replay::{
    bursty_trace, certificate_slack, rate_sweep, replay, replay_windows, saturation_knee,
    shift_trace, stencil_trace, ReplayConfig, Trace,
};
use cubemesh::reshape::snake_embedding;
use cubemesh::topology::Shape;
use cubemesh::torus::embed_torus;
use std::fs::File;
use std::io::{self, BufReader, Write};
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

// `embed` and `classify` build at most `MAX_EMBED_NODES` nodes, peaking
// at ~1.8 GiB. Each other subcommand's limit keeps its peak resident set
// near that figure at default flags, so a larger request is refused up
// front instead of aborting in the allocator; the per-node peaks were
// measured on an x86-64 release build.

/// Largest `torus` guest: ~100 B per node (node-path routes and an
/// explicit edge list), ~1.6 GiB at `2²⁴`.
const MAX_TORUS_NODES: usize = 1 << 24;

/// Largest `simulate` guest: ~1.7 KiB per node (three embeddings, two
/// messages per edge and the simulator's queues), ~1.7 GiB at `2²⁰`.
const MAX_SIMULATE_NODES: usize = 1 << 20;

/// Largest `replay` guest: ~3.8 KiB per node at the default pattern
/// and phases, ~1.9 GiB at `2¹⁹`.
const MAX_REPLAY_NODES: usize = 1 << 19;

/// The most events a generated `replay` trace may hold (24 B each, so
/// 384 MiB): the default stencil at [`MAX_REPLAY_NODES`],
/// `2 · edges · 4` ≈ 1.24·10⁷ events, fits. Each pattern's count is
/// bounded from its flags before anything is generated: the stencil
/// (and `--slack`'s) `2 · edges · phases`, shifts `edges · phases`,
/// bursty and each sweep rate `nodes · horizon`.
const MAX_REPLAY_EVENTS: u64 = 1 << 24;

const CLI: cli::Cli = cli::Cli {
    bin: "cubemesh",
    usage: USAGE,
    report: cli::Report::StatsAndTrace,
};

fn main() -> ExitCode {
    CLI.run(|words| {
        let Some((cmd, rest)) = words.split_first() else {
            return Err("no command given".into());
        };
        match cmd.as_str() {
            "embed" => embed(rest),
            "classify" => classify(rest),
            "torus" => torus(rest),
            "simulate" => simulate_cmd(rest),
            "census" => census(rest),
            "verify" => verify(rest),
            "replay" => replay_cmd(rest),
            other => Err(format!("unknown command '{other}'")),
        }
    })
}

/// The shape the extents in `args` name: [`Shape::check`]'s rule, then
/// the subcommand's node limit `max_nodes`.
fn shape_arg(args: &Args, max_nodes: usize) -> Result<Shape, String> {
    let dims: Vec<usize> = args.numbers()?;
    Shape::check(&dims).map_err(|e| e.to_string())?;
    if dims.iter().product::<usize>() > max_nodes {
        return Err(format!("the shape has more than {max_nodes} nodes"));
    }
    Ok(Shape::new(&dims))
}

fn embed(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(words, &[], &["--out"])?;
    let shape = shape_arg(&args, MAX_EMBED_NODES)?;
    Ok(CLI.outcome(write_embed(&shape, args.value("--out"))))
}

fn write_embed(shape: &Shape, file: Option<&str>) -> Result<ExitCode, Halt> {
    let mut out = io::stdout().lock();
    let (emb, minimal) = embed_mesh(shape);
    emb.verify()
        .map_err(|e| format!("internal error: constructed embedding failed to verify: {e}"))?;
    let m = emb.metrics();
    writeln!(
        out,
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
    )?;
    if let Some(path) = file {
        let mut f = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        write_embedding(&emb, &mut f).map_err(|e| format!("write failed: {e}"))?;
        writeln!(out, "wrote {}", path)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn classify(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(words, &[], &[])?;
    if args.positional().len() != 3 {
        return Err("classify needs three extents".into());
    }
    let shape = shape_arg(&args, MAX_EMBED_NODES)?;
    Ok(CLI.outcome(classify_report(&shape)))
}

/// The paper's method for `shape` and the constructive plan's figures.
fn classify_report(shape: &Shape) -> Result<ExitCode, Halt> {
    let mut out = io::stdout().lock();
    let d = shape.dims();
    match classify3(d[0] as u64, d[1] as u64, d[2] as u64) {
        Some(m) => writeln!(
            out,
            "{}: paper method {:?} (cube Q{})",
            shape,
            m,
            shape.minimal_cube_dim()
        )?,
        None => writeln!(out, "{}: open under the paper's methods 1-4", shape)?,
    }
    match plan_shape(&mut Planner::new(), shape) {
        Some(hit) => {
            let emb = construct(shape, &hit.plan).expect("planner-produced plan lowers");
            let met = emb.metrics();
            writeln!(
                out,
                "constructive: {} — dilation {}, congestion {} (strategy {}, confidence {})",
                hit.plan, met.dilation, met.congestion, hit.strategy, hit.confidence
            )?;
        }
        None => writeln!(out, "constructive: no plan in this repo's catalog")?,
    }
    Ok(ExitCode::SUCCESS)
}

fn torus(words: &[String]) -> Result<ExitCode, String> {
    let shape = shape_arg(&Args::parse(words, &[], &[])?, MAX_TORUS_NODES)?;
    let run = || -> Result<ExitCode, Halt> {
        let mut out = io::stdout().lock();
        let Some(torus) = embed_torus(&shape) else {
            writeln!(out, "{shape}: no §6 construction lands in the minimal cube")?;
            return Ok(ExitCode::from(1));
        };
        let m = torus.embedding.metrics();
        writeln!(
            out,
            "{} (wraparound): Q{}, dilation {} (bound {}), congestion {}, rule {:?}",
            shape, m.host_dim, m.dilation, torus.dilation_bound, m.congestion, torus.rule
        )?;
        Ok(ExitCode::SUCCESS)
    };
    Ok(CLI.outcome(run()))
}

fn simulate_cmd(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(words, &["--cut-through", "--json"], &["--flits"])?;
    let flits: u32 = args.number_or("--flits", 32)?;
    let switching = switching(&args);
    let json = args.has("--json");
    let shape = shape_arg(&args, MAX_SIMULATE_NODES)?;
    Ok(CLI.outcome(simulate_report(&shape, flits, switching, json)))
}

/// The stencil exchange on the decomposition, Gray and snake embeddings.
fn simulate_report(
    shape: &Shape,
    flits: u32,
    switching: Switching,
    json: bool,
) -> Result<ExitCode, Halt> {
    let mut out = io::stdout().lock();
    if !json {
        writeln!(
            out,
            "{}: stencil exchange, {} flits, {:?}",
            shape, flits, switching
        )?;
    }
    let (decomp, minimal) = embed_mesh(shape);
    let cases = [
        (
            if minimal {
                "decomposition"
            } else {
                "gray (no plan)"
            },
            decomp,
        ),
        ("gray (expanded)", gray_mesh_embedding(shape)),
        ("snake (minimal)", snake_embedding(shape)),
    ];
    for (name, emb) in cases {
        let r = simulate_with(emb.host(), &stencil_exchange(&emb, flits), switching);
        if json {
            writeln!(
                out,
                "{{\"case\":\"{}\",\"host_dim\":{},\"dilation\":{},\"result\":{}}}",
                name,
                emb.host().dim(),
                emb.metrics().dilation,
                r.to_json()
            )?;
        } else {
            writeln!(
                out,
                "  {:<16} Q{:<3} dilation {:<2} makespan {:>6} ({:.2}x)  max queue {:<3} max latency {}",
                name,
                emb.host().dim(),
                emb.metrics().dilation,
                r.makespan,
                r.makespan as f64 / flits as f64,
                r.max_queue_depth,
                r.max_latency
            )?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn census(words: &[String]) -> Result<ExitCode, String> {
    let n = match Args::parse(words, &[], &[])?.numbers::<u32>()?[..] {
        [] => 5,
        [n] if (1..=9).contains(&n) => n,
        _ => return Err("census takes one n in 1..=9".into()),
    };
    let c = cubemesh::census::census_3d(n);
    let s = c.cumulative_percent();
    let line = writeln!(
        io::stdout().lock(),
        "n={}: S1 {:.1}%  S2 {:.1}%  S3 {:.1}%  S4 {:.1}%  constructive {:.1}%",
        n,
        s[0],
        s[1],
        s[2],
        s[3],
        c.constructive_percent()
    );
    Ok(CLI.outcome(line.map(|()| ExitCode::SUCCESS)))
}

fn replay_cmd(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        words,
        &["--cut-through", "--slack", "--check", "--json"],
        &[
            "--pattern",
            "--flits",
            "--period",
            "--phases",
            "--horizon",
            "--window",
            "--seed",
            "--trace-in",
            "--record",
        ],
    )?;
    let shape = shape_arg(&args, MAX_REPLAY_NODES)?;
    let flits: u32 = args.number_or("--flits", 8)?;
    let phases: u64 = args.number_or("--phases", 4)?;
    let horizon: u64 = args.number_or("--horizon", 256)?;
    let seed: u64 = args.number_or("--seed", 1)?;
    let period: u64 = args.number_or("--period", 4 * u64::from(flits))?;
    let window: u64 = args.number_or("--window", 0)?;
    let switching = switching(&args);
    let json = args.has("--json");
    let slack = args.has("--slack");
    let pattern = args.value("--pattern").unwrap_or("stencil");
    if !["stencil", "shifts", "bursty", "sweep"].contains(&pattern) {
        return Err(format!("unknown pattern '{pattern}'"));
    }

    // Bound the trace from the flags before generating any of it, in
    // the order the run below picks its trace; a `--trace-in` trace is
    // bounded by its file.
    let (edges, nodes) = (shape.mesh_edges() as u64, shape.nodes() as u64);
    let stencil_events = edges.checked_mul(2).and_then(|n| n.checked_mul(phases));
    let (events, grown_by) = match pattern {
        _ if slack => (stencil_events, "--phases"),
        "sweep" => (nodes.checked_mul(horizon), "--horizon"),
        _ if args.value("--trace-in").is_some() => (Some(0), ""),
        "stencil" => (stencil_events, "--phases"),
        "shifts" => (edges.checked_mul(phases), "--phases"),
        _ => (nodes.checked_mul(horizon), "--horizon"),
    };
    if events.is_none_or(|n| n > MAX_REPLAY_EVENTS) {
        return Err(format!(
            "{grown_by}: the trace would hold more than {MAX_REPLAY_EVENTS} events"
        ));
    }
    // The cycles the generated trace spans (slack and sweep pick their
    // own periods and windows), and with `--window` the windows they
    // fill, within `MAX_REPLAY_WINDOWS`.
    let cycles = match pattern {
        _ if slack || pattern == "sweep" || args.value("--trace-in").is_some() => Some(0),
        "stencil" | "shifts" => phases
            .checked_sub(1)
            .map_or(Some(0), |last| last.checked_mul(period)?.checked_add(1)),
        _ => Some(horizon),
    };
    let Some(cycles) = cycles else {
        return Err("--period: the trace would span more than 2^64 cycles".into());
    };
    if window > 0 {
        replay_windows(cycles, window).map_err(|e| format!("--window: {e}"))?;
    }

    let run = || -> Result<ExitCode, Halt> {
        if slack {
            let mut out = io::stdout().lock();
            let entry = certificate_slack(&shape, flits, phases, switching)
                .map_err(|e| format!("slack report failed: {e}"))?;
            if json {
                writeln!(out, "{}", entry.to_json())?;
            } else {
                writeln!(
                    out,
                    "{}: certified <= {} flits/link/phase, measured {} \
                     (slack {}, utilization {:.2}){}",
                    shape,
                    entry.static_peak_flits,
                    entry.dynamic_peak_flits,
                    entry.slack_flits,
                    entry.utilization,
                    if entry.violation { "  VIOLATION" } else { "" }
                )?;
            }
            return Ok(ExitCode::from(u8::from(entry.violation)));
        }
        let (emb, _) = embed_mesh(&shape);
        if pattern == "sweep" {
            return rate_sweep_cmd(&emb, flits, horizon, seed, switching, json);
        }
        let trace = match args.value("--trace-in") {
            Some(path) => {
                let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
                Trace::load(&mut BufReader::new(f))
                    .map_err(|e| format!("cannot load trace: {e}"))?
            }
            None => match pattern {
                "stencil" => stencil_trace(emb.edge_count(), flits, period, phases),
                "shifts" => shift_trace(&shape, flits, period, phases),
                _ => bursty_trace(emb.guest_nodes(), flits, horizon, 16, 32, 0, seed),
            },
        };
        replay_trace(
            &shape,
            &emb,
            &trace,
            &args,
            ReplayConfig { switching, window },
        )
    };
    Ok(CLI.outcome(run()))
}

/// `replay --pattern sweep`: the rate ladder up to saturation.
fn rate_sweep_cmd(
    emb: &Embedding,
    flits: u32,
    horizon: u64,
    seed: u64,
    switching: Switching,
    json: bool,
) -> Result<ExitCode, Halt> {
    let mut out = io::stdout().lock();
    let rates: [(u64, u64); 7] = [(1, 64), (1, 32), (1, 16), (1, 8), (1, 4), (1, 2), (1, 1)];
    let points = rate_sweep(emb, &rates, flits, horizon, seed, switching)
        .map_err(|e| format!("sweep failed: {e}"))?;
    for p in &points {
        if json {
            writeln!(out, "{}", p.to_json())?;
        } else {
            writeln!(
                out,
                "  rate {}/{:<3} offered {:>9.3}  delivered {:>9.3}  \
             avg latency {:>8.1}  makespan {}",
                p.rate_num, p.rate_den, p.offered_rate, p.delivered_rate, p.avg_latency, p.makespan
            )?;
        }
    }
    match saturation_knee(&points) {
        Some(k) if !json => writeln!(
            out,
            "saturation knee at rate {}/{}",
            points[k].rate_num, points[k].rate_den
        )?,
        None if !json => writeln!(out, "no saturation within the ladder")?,
        _ => {}
    }
    Ok(ExitCode::SUCCESS)
}

/// Record (`--record`), replay and report `trace`; `--check` replays it
/// twice and fails unless the reports match and every message arrived.
fn replay_trace(
    shape: &Shape,
    emb: &Embedding,
    trace: &Trace,
    args: &Args,
    cfg: ReplayConfig,
) -> Result<ExitCode, Halt> {
    if let Some(path) = args.value("--record") {
        let mut f = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        trace
            .record(&mut f)
            .map_err(|e| format!("record failed: {e}"))?;
        eprintln!("recorded {} events to {}", trace.len(), path);
    }
    let report = replay(emb, trace, &cfg).map_err(|e| format!("replay failed: {e}"))?;
    let mut out = io::stdout().lock();
    if args.has("--check") {
        let again = replay(emb, trace, &cfg)
            .map_err(|e| format!("replay check: second run failed: {e}"))?;
        if report.to_json() != again.to_json() {
            let reason = "replay check FAILED: reports differ between identical runs";
            return Err(Halt::Failed(reason.into()));
        }
        if report.result.delivered != trace.len() {
            return Err(Halt::Failed(format!(
                "replay check FAILED: delivered {} != injected {}",
                report.result.delivered,
                trace.len()
            )));
        }
        writeln!(
            out,
            "replay check OK: {} messages, deterministic, makespan {}",
            trace.len(),
            report.result.makespan
        )?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.has("--json") {
        writeln!(out, "{}", report.to_json())?;
        return Ok(ExitCode::SUCCESS);
    }
    writeln!(
        out,
        "{}: {} events over horizon {}, window {} ({} windows, warm-up {})",
        shape,
        trace.len(),
        report.horizon,
        report.window,
        report.windows.len(),
        report.warmup_windows
    )?;
    writeln!(
        out,
        "offered {:.3} flits/cycle, delivered-by-horizon {:.3}; peak link load {} \
         flits/window over {} directed links; makespan {}",
        report.offered_rate,
        report.delivered_rate,
        report.peak_link_flits_per_window,
        report.directed_links,
        report.result.makespan
    )?;
    let cap = 24usize;
    writeln!(
        out,
        "  win   inj     dlv    p50    p99    maxlat  maxq   occupancy"
    )?;
    for w in report.windows.iter().take(cap) {
        writeln!(
            out,
            "  {:>4} {:>6} {:>6} {:>6} {:>6} {:>8} {:>5}   {:.4}",
            w.index,
            w.injected,
            w.delivered,
            w.p50_latency,
            w.p99_latency,
            w.max_latency,
            w.max_queue_depth,
            w.occupancy
        )?;
    }
    if report.windows.len() > cap {
        writeln!(
            out,
            "  … {} more windows (use --json for all)",
            report.windows.len() - cap
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn verify(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(words, &[], &[])?;
    let [path] = args.positional() else {
        return Err("verify takes one FILE".into());
    };
    let run = || -> Result<ExitCode, Halt> {
        let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let emb =
            read_embedding(&mut BufReader::new(f)).map_err(|e| format!("parse error: {e}"))?;
        emb.verify().map_err(|e| format!("INVALID: {e}"))?;
        let m = emb.metrics();
        let mut out = io::stdout().lock();
        writeln!(
            out,
            "OK: {} nodes -> Q{}, dilation {}, congestion {}",
            emb.guest_nodes(),
            m.host_dim,
            m.dilation,
            m.congestion
        )?;
        Ok(ExitCode::SUCCESS)
    };
    Ok(CLI.outcome(run()))
}

/// `--cut-through`, or store-and-forward by default.
fn switching(args: &Args) -> Switching {
    if args.has("--cut-through") {
        Switching::CutThrough
    } else {
        Switching::StoreAndForward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_of(dims: &[usize], limit: usize) -> Result<Shape, String> {
        let words: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
        shape_arg(&Args::parse(&words, &[], &[])?, limit)
    }

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
            assert!(shape_of(&measured, limit).is_ok());
            let past = [measured[0] + 1, measured[1], measured[2]];
            assert!(shape_of(&past, limit).is_err());
        }
    }

    /// The default replay (a 4-phase stencil) of the largest replay
    /// guest fits the event limit.
    #[test]
    fn default_replay_at_the_node_limit_fits_the_event_limit() {
        let shape = shape_of(&[128, 64, 64], MAX_REPLAY_NODES).expect("at the limit");
        assert!(2 * shape.mesh_edges() as u64 * 4 <= MAX_REPLAY_EVENTS);
    }
}
