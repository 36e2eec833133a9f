//! The cubemesh benchmark: one run of one workload, its result as a JSON
//! line. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload embed-mix|serve-plan|census-build|replay-sweep \
//!     [--seed N|default|held-out] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics, with
//! `--trace 1` the per-layer metrics. The last stdout line is the result;
//! the line before it records the run context.

mod census;
mod embed;
mod harness;
mod replay;
mod serve;

use cubemesh_obs::{parse_json, JsonValue};
use harness::{Metric, Opts, Outcome, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark's definition. A traced run reports every metric of its
/// `per_layer` list, in that order; a layer its workload does not run
/// reads 0.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn per_layer_list() -> Result<Vec<(String, String)>, String> {
    let def =
        parse_json(BENCHMARK_JSON).map_err(|(at, e)| format!("BENCHMARK.json byte {at}: {e}"))?;
    let list = def
        .get("per_layer")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json has no per_layer list")?;
    list.iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| "a per_layer entry lacks a name or unit".to_owned())
        })
        .collect()
}

/// Scratch files of one run (databases, the overflow log), inside the
/// checkout, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = Path::new(".perfbench-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

fn run_workload(opts: &Opts, scratch: &Path) -> Result<Outcome, String> {
    fn go<W: Workload>(w: W, opts: &Opts, scratch: &Path) -> Result<Outcome, String> {
        harness::run(&w, opts, scratch)
    }
    match opts.workload.as_str() {
        "embed-mix" => go(embed::EmbedMix, opts, scratch),
        "serve-plan" => go(serve::ServePlan, opts, scratch),
        "census-build" => go(census::CensusBuild, opts, scratch),
        "replay-sweep" => go(replay::ReplaySweep, opts, scratch),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The metrics as printed: a traced run lists every per-layer metric.
fn result_metrics(
    opts: &Opts,
    measured: Vec<Metric>,
) -> Result<Vec<(String, f64, String)>, String> {
    let owned = |(n, v, u): Metric| (n.to_owned(), v, u.to_owned());
    if !opts.trace {
        return Ok(measured.into_iter().map(owned).collect());
    }
    let list = per_layer_list()?;
    if let Some((name, _, _)) = measured
        .iter()
        .find(|(n, _, _)| !list.iter().any(|(p, _)| p == n))
    {
        return Err(format!(
            "per-layer metric {name:?} is not in BENCHMARK.json"
        ));
    }
    Ok(list
        .into_iter()
        .map(|(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0.0, |m| m.1);
            (name, value, unit)
        })
        .collect())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--build-db") {
        return match serve::build_db_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench --build-db: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // End-to-end runs measure with stats and tracing off; the traced run
    // switches stats on around its traced pass only.
    cubemesh_obs::set_mode(cubemesh_obs::StatsMode::Off);
    cubemesh_obs::trace::set_enabled(false);
    let outcome = Scratch::create().and_then(|scratch| {
        let outcome = run_workload(&opts, &scratch.0)?;
        let metrics = result_metrics(&opts, outcome.metrics)?;
        Ok((
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            metrics,
            outcome.context,
        ))
    });
    let (correct, attempted, failed, metrics, context) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let ctx: Vec<String> = harness::host_context(&opts)
        .into_iter()
        .chain(context)
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"context\": {{{}}}}}", ctx.join(", "));
    let m: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.join(", ")
    );
    ExitCode::SUCCESS
}
