//! `cubemesh-bench`: the BENCH_3 perf-trajectory baseline.
//!
//! Times the full hot pipeline — plan, construct, metrics, verify — on a
//! fixed ladder of paper-scale shapes and writes the results as JSON to
//! the path `--out` names (nothing is written without it, so a trial run
//! never overwrites the committed `BENCH_3.json`). Every rung is also run
//! with the pool pinned to one worker to record the sequential wall time
//! and the parallel speedup, and the bench *asserts* that the parallel and
//! sequential pipelines produce identical metrics, so the smoke run in
//! `scripts/check.sh` doubles as a correctness gate.
//!
//! ```text
//! cubemesh-bench [--json] [--out PATH] [--threads N] [--quick] [--reps N]
//!                [--shapes L1xL2xL3[,L1xL2xL3...]] [--par-only] [--stats]
//!                [--compare BASE.json] [--tolerance PCT] [--compare-out PATH]
//!                [--no-service] [--service-out PATH] [--compare-service BASE5.json]
//!                [--no-replay] [--replay-out PATH] [--trace FILE]
//! ```
//!
//! * `--json`      print the BENCH_3 JSON document to stdout
//! * `--out PATH`  write the BENCH_3 JSON to PATH
//! * `--threads N` cap the worker count (sets `CUBEMESH_THREADS`)
//! * `--quick`     only the 16^3 rung (the check.sh smoke)
//! * `--reps N`    repetitions per rung; min wall time is reported (default 3)
//! * `--par-only`  skip the sequential re-run (no speedup column)
//! * `--shapes`    override the ladder
//! * `--stats`     print a cubemesh-obs snapshot at the end
//! * `--no-replay` skip the BENCH_4 replay ladder
//! * `--no-service` skip the BENCH_5 query-service ladder
//! * `--trace FILE` record a hierarchical execution trace (Chrome JSON at
//!   FILE plus FILE.folded / FILE.jsonl)
//!
//! An undocumented flag, a stray argument, a non-numeric value or a
//! `--shapes` entry that fails `Shape::check` or has more nodes than
//! `cubemesh embed` builds (`MAX_EMBED_NODES`) prints the usage and exits
//! 2 before anything runs; `--help` prints it and exits 0. A failed run
//! or a regression exits 1.
//!
//! ## Perf-trajectory gating
//!
//! `--compare BASE.json` loads a prior BENCH_3 document and compares this
//! run's `construct_nodes_per_s`, `metrics_hops_per_s` and `peak_rss_kb`
//! per rung (matched by shape; rungs missing on either side are skipped),
//! plus the `gray_kernel` micro-rungs (matched by name; absent in older
//! baselines, then skipped). A baseline recorded on a different
//! `parallel_backend` is a hard error — executors are not comparable.
//! Any metric that moves past the tolerance in the bad direction makes
//! the process exit non-zero — `scripts/check.sh` runs this on every
//! gate, so perf regressions fail CI like test regressions do.
//! `--tolerance PCT` overrides the default (15); `--compare-out PATH`
//! writes the comparison as JSON; `--inject-regression` (self-test only)
//! deflates this run's throughput by 25% before comparing, proving the
//! gate trips.
//!
//! Alongside BENCH_3 the binary runs the BENCH_5 *query-service* ladder
//! (written to `--service-out PATH` when given): it rebuilds a
//! max-axis-12 census plan database in a scratch directory, then times
//! warm lookup latency (p50/p99 ns over the whole census), batched
//! protocol throughput at batch sizes 1/64/1024 (full parse → lookup →
//! render round trips through `handle_line`), and the best-case
//! cold-miss live-plan latency on shapes outside the database universe.
//! `--compare-service BASE5.json` gates those rungs against a prior
//! BENCH_5 document at the same `--tolerance`, with latency rungs
//! judged lower-is-better; regressions fail the process exactly like
//! the BENCH_3 gate.
//!
//! The binary also runs the BENCH_4 *replay* ladder
//! (written to `--replay-out PATH` when given): each rung replays a periodic stencil
//! trace through the cubemesh-replay engine, joins the measured peak link
//! load against the static congestion certificate, and times a rate
//! sweep's saturation-knee search. `--quick` keeps one replay rung.
//!
//! Each stage is timed as the minimum over `--reps` repetitions: on a
//! shared/noisy host a single-shot timing can be off by an order of
//! magnitude, and the minimum is the best estimate of the code's cost.

use cubemesh_core::{construct, plan_shape, Plan, Planner, MAX_EMBED_NODES};
use cubemesh_embedding::Embedding;
use cubemesh_obs as obs;
use cubemesh_obs::cli::{self, Args};
use cubemesh_topology::Shape;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The fixed BENCH_3 shape ladder. Power-of-two rungs exercise the Gray
/// leaf path; the non-power-of-two rungs go through the full
/// product-decomposition lowering.
const LADDER: &[&[usize]] = &[
    &[16, 16, 16],
    &[64, 64, 64],
    &[128, 128, 128],
    &[256, 256, 16],
    &[512, 512, 8],
    &[60, 60, 60],
    &[36, 36, 33],
];

#[derive(Clone, Debug, Default)]
struct Rung {
    shape: String,
    nodes: usize,
    edges: usize,
    route_hops: u64,
    host_dim: u32,
    dilation: u32,
    congestion: u32,
    plan_s: f64,
    construct_s: f64,
    metrics_s: f64,
    verify_s: f64,
    construct_nodes_per_s: f64,
    metrics_hops_per_s: f64,
    seq_construct_s: f64,
    seq_metrics_s: f64,
    speedup_construct_metrics: f64,
    peak_rss_kb: u64,
}

/// Peak resident set size in kB from `/proc/self/status` (Linux only;
/// 0 where unavailable). Process-wide high-water mark, so per-rung values
/// are monotone — still useful as a ladder-level memory trajectory.
fn peak_rss_kb() -> u64 {
    obs::peak_rss_kib().unwrap_or(0)
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Run plan → construct → metrics → verify, timed. Construct, metrics,
/// and verify are repeated `reps` times and the minimum wall time per
/// stage is kept (planning is memoized, so it is timed once).
fn run_pipeline(dims: &[usize], reps: usize) -> Option<(Rung, Plan, Embedding)> {
    let shape = Shape::new(dims);
    let (hit, plan_s) = time(|| plan_shape(&mut Planner::new(), &shape));
    let plan = match hit {
        Some(hit) => hit.plan,
        None => {
            eprintln!("cubemesh-bench: no plan for {shape}, skipping");
            return None;
        }
    };
    let (mut construct_s, mut metrics_s, mut verify_s) = (f64::MAX, f64::MAX, f64::MAX);
    let mut kept: Option<(Embedding, cubemesh_embedding::Metrics)> = None;
    for _ in 0..reps.max(1) {
        drop(kept.take()); // free the previous repetition before building anew
        let (emb, c) = time(|| construct(&shape, &plan).expect("planner-produced plan lowers"));
        construct_s = construct_s.min(c);
        let (m, ms) = time(|| emb.metrics());
        metrics_s = metrics_s.min(ms);
        let (vres, vs) = time(|| emb.verify());
        verify_s = verify_s.min(vs);
        if let Err(e) = vres {
            eprintln!("cubemesh-bench: {shape} failed verification: {e}");
            return None;
        }
        kept = Some((emb, m));
    }
    let (emb, m) = kept?;
    let hops = emb.routes().total_length();
    let rung = Rung {
        shape: shape.to_string(),
        nodes: shape.nodes(),
        edges: emb.edge_count(),
        route_hops: hops,
        host_dim: m.host_dim,
        dilation: m.dilation,
        congestion: m.congestion,
        plan_s,
        construct_s,
        metrics_s,
        verify_s,
        construct_nodes_per_s: shape.nodes() as f64 / construct_s.max(1e-12),
        metrics_hops_per_s: hops as f64 / metrics_s.max(1e-12),
        peak_rss_kb: peak_rss_kb(),
        ..Rung::default()
    };
    Some((rung, plan, emb))
}

/// One kernel micro-bench rung: name and elements-per-second throughput.
#[derive(Clone, Debug)]
struct KernelRung {
    name: &'static str,
    elems: usize,
    elems_per_s: f64,
}

/// The `gray_kernel` micro-bench: batch Gray encode, batch decode, and
/// XOR-popcount Hamming throughput over 1 Mi-element `u64` lanes,
/// minimum-of-reps like the shape ladder. These isolate the single-core
/// bit-kernels from the mesh machinery so a regression in the kernels
/// themselves can't hide inside pipeline noise.
fn run_kernel_bench(reps: usize) -> Vec<KernelRung> {
    use cubemesh_gray::{gray_fill_run, gray_inverse_fill, hamming_total};
    use std::hint::black_box;
    const N: usize = 1 << 20;
    let mut buf = vec![0u64; N];
    let mut ys = vec![0u64; N];
    gray_fill_run(&mut ys, 1, 0, 0);
    let (mut enc, mut dec, mut ham) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..reps.max(1) {
        let ((), t) = time(|| gray_fill_run(black_box(&mut buf), 0, 0, 0));
        enc = enc.min(t);
        let ((), t) = time(|| gray_inverse_fill(black_box(&mut buf)));
        dec = dec.min(t);
        let (total, t) = time(|| hamming_total(black_box(&buf), black_box(&ys)));
        black_box(total);
        ham = ham.min(t);
    }
    let rung = |name, secs: f64| KernelRung {
        name,
        elems: N,
        elems_per_s: N as f64 / secs.max(1e-12),
    };
    vec![
        rung("gray_encode", enc),
        rung("gray_decode", dec),
        rung("hamming", ham),
    ]
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn to_json(rungs: &[Rung], threads: usize, kernels: &[KernelRung]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"BENCH_3\",");
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let _ = writeln!(out, "  \"created_unix\": {unix},");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = writeln!(out, "  \"host_cores\": {cores},");
    // Honest-baseline marker: with the pool on one worker,
    // `speedup_construct_metrics` < 1.0 is the forced two-shard merge
    // overhead on a sequential host, not a parallelism regression.
    let backend = cubemesh_pool::backend_name();
    let _ = writeln!(out, "  \"parallel_backend\": \"{backend}\",");
    out.push_str("  \"rungs\": [\n");
    for (i, r) in rungs.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"shape\": \"{}\", \"nodes\": {}, \"edges\": {}, \"route_hops\": {}, ",
            json_escape(&r.shape),
            r.nodes,
            r.edges,
            r.route_hops
        );
        let _ = write!(
            out,
            "\"host_dim\": {}, \"dilation\": {}, \"congestion\": {}, ",
            r.host_dim, r.dilation, r.congestion
        );
        let _ = write!(
            out,
            "\"plan_s\": {:.6}, \"construct_s\": {:.6}, \"metrics_s\": {:.6}, \"verify_s\": {:.6}, ",
            r.plan_s, r.construct_s, r.metrics_s, r.verify_s
        );
        let _ = write!(
            out,
            "\"construct_nodes_per_s\": {:.1}, \"metrics_hops_per_s\": {:.1}, ",
            r.construct_nodes_per_s, r.metrics_hops_per_s
        );
        let _ = write!(
            out,
            "\"seq_construct_s\": {:.6}, \"seq_metrics_s\": {:.6}, \"speedup_construct_metrics\": {:.3}, ",
            r.seq_construct_s, r.seq_metrics_s, r.speedup_construct_metrics
        );
        let _ = write!(
            out,
            "\"peak_rss_kb\": {}, \"threads\": {}, \"host_cores\": {}",
            r.peak_rss_kb, threads, cores
        );
        out.push('}');
        out.push_str(if i + 1 < rungs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"elems\": {}, \"elems_per_s\": {:.1}}}",
            k.name, k.elems, k.elems_per_s
        );
        out.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One BENCH_4 replay rung: a certificate-slack replay plus a saturation
/// sweep, both timed.
#[derive(Clone, Debug)]
struct ReplayRung {
    shape: String,
    events: usize,
    slack_s: f64,
    events_per_s: f64,
    static_peak_flits: u64,
    dynamic_peak_flits: u64,
    utilization: f64,
    makespan: u64,
    sweep_s: f64,
    knee_rate: String,
}

/// The BENCH_4 replay ladder: stencil slack at paper-relevant shapes plus
/// a knee search on the smallest. `--quick` keeps only the first rung.
fn run_replay_ladder(quick: bool) -> Option<Vec<ReplayRung>> {
    use cubemesh_replay::{certificate_slack, rate_sweep, saturation_knee};
    let shapes: &[&[usize]] = if quick {
        &[&[4, 4, 4]]
    } else {
        &[&[4, 4, 4], &[8, 8, 8], &[16, 16, 16], &[3, 3, 7]]
    };
    let switching = cubemesh_netsim::Switching::StoreAndForward;
    let mut rungs = Vec::new();
    for dims in shapes {
        let shape = Shape::new(dims);
        let (entry, slack_s) = time(|| certificate_slack(&shape, 8, 4, switching));
        let entry = match entry {
            Ok(e) => e,
            Err(e) => {
                eprintln!("cubemesh-bench: replay slack for {shape} failed: {e}");
                return None;
            }
        };
        if entry.violation {
            eprintln!(
                "cubemesh-bench: {shape} VIOLATES its congestion certificate \
                 ({} > {})",
                entry.dynamic_peak_flits, entry.static_peak_flits
            );
            return None;
        }
        // Knee search on the first rung only: the sweep is the expensive
        // half and one point is enough to keep the path exercised.
        let (sweep_s, knee_rate) = if rungs.is_empty() {
            let (emb, _) = cubemesh_core::embed_mesh(&shape);
            let rates: [(u64, u64); 4] = [(1, 32), (1, 8), (1, 2), (1, 1)];
            let (points, sweep_s) = time(|| rate_sweep(&emb, &rates, 8, 128, 3, switching));
            let points = match points {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cubemesh-bench: replay sweep for {shape} failed: {e}");
                    return None;
                }
            };
            let knee = match saturation_knee(&points) {
                Some(k) => format!("{}/{}", points[k].rate_num, points[k].rate_den),
                None => "none".to_owned(),
            };
            (sweep_s, knee)
        } else {
            (0.0, String::new())
        };
        rungs.push(ReplayRung {
            shape: shape.to_string(),
            events: entry.messages as usize,
            slack_s,
            events_per_s: entry.messages as f64 / slack_s.max(1e-12),
            static_peak_flits: entry.static_peak_flits,
            dynamic_peak_flits: entry.dynamic_peak_flits,
            utilization: entry.utilization,
            makespan: entry.makespan,
            sweep_s,
            knee_rate,
        });
    }
    Some(rungs)
}

fn bench4_json(rungs: &[ReplayRung]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"BENCH_4\",\n");
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let _ = writeln!(out, "  \"created_unix\": {unix},");
    out.push_str("  \"rungs\": [\n");
    for (i, r) in rungs.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"shape\": \"{}\", \"events\": {}, \"slack_s\": {:.6}, \
             \"events_per_s\": {:.1}, \"static_peak_flits\": {}, \
             \"dynamic_peak_flits\": {}, \"utilization\": {:.4}, \
             \"makespan\": {}, \"sweep_s\": {:.6}, \"knee_rate\": \"{}\"",
            json_escape(&r.shape),
            r.events,
            r.slack_s,
            r.events_per_s,
            r.static_peak_flits,
            r.dynamic_peak_flits,
            r.utilization,
            r.makespan,
            r.sweep_s,
            json_escape(&r.knee_rate)
        );
        out.push('}');
        out.push_str(if i + 1 < rungs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One BENCH_5 query-service rung: a named figure of merit. Names
/// ending in `_ns` are latencies (lower is better); the rest are
/// throughputs (higher is better) — the compare gate keys direction off
/// the suffix.
#[derive(Clone, Debug)]
struct ServiceRung {
    name: &'static str,
    value: f64,
}

/// Build wall time and record counts for the BENCH_5 header.
#[derive(Clone, Debug)]
struct ServiceMeta {
    db_max_axis: usize,
    db_records: usize,
    db_build_s: f64,
}

/// Percentile over a sorted ns-sample slice (nearest-rank).
fn percentile_ns(sorted: &[u64], pct: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (sorted.len() * pct / 100).min(sorted.len() - 1);
    sorted[idx] as f64
}

/// The BENCH_5 query-service ladder, driven through the in-process
/// [`cubemesh_service::QueryEngine`] so the rungs measure the lookup
/// path (validate → pread → decode → render), not socket scheduling.
///
/// * `lookup_p50_ns` / `lookup_p99_ns` — warm single-shape lookup
///   latency over the whole census, nearest-rank percentiles, best of
///   `reps` passes;
/// * `queries_per_s_batch_{1,64,1024}` — full protocol round trips
///   (`handle_line`: parse the batched JSON request, look every shape
///   up, render the response) at three batch sizes;
/// * `cold_miss_ns` — best-case live-plan latency on shapes outside the
///   database universe (each sample a distinct shape, so the overlay
///   never serves it).
///
/// The database itself is rebuilt in a scratch directory on every run
/// (max axis 12, a few hundred shapes) and its build time is recorded
/// in the header as context, not gated.
fn run_service_bench(reps: usize) -> Option<(Vec<ServiceRung>, ServiceMeta)> {
    use cubemesh_plandb::{build, enumerate_keys, BuildConfig};
    use cubemesh_service::{handle_line, EngineConfig, QueryEngine};

    const DB_MAX_AXIS: usize = 12;
    let dir = std::env::temp_dir().join(format!("cubemesh-bench5-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cubemesh-bench: service scratch dir: {e}");
        return None;
    }
    let db_path = dir.join("plans.db");
    let (report, db_build_s) = time(|| build(&BuildConfig::new(DB_MAX_AXIS), &db_path));
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cubemesh-bench: service db build: {e}");
            return None;
        }
    };
    let engine = match QueryEngine::new(&EngineConfig {
        db: Some(db_path),
        overflow: None,
    }) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cubemesh-bench: service engine: {e}");
            return None;
        }
    };
    let keys = enumerate_keys(DB_MAX_AXIS);

    // Warm lookup latency: per-shape samples across the full census,
    // percentiles per pass, best pass kept (same minimum-of-reps
    // rationale as the shape ladder).
    const LATENCY_SAMPLES: usize = 8192;
    let (mut p50, mut p99) = (f64::MAX, f64::MAX);
    for _ in 0..reps.max(1) {
        let mut samples = Vec::with_capacity(LATENCY_SAMPLES);
        for i in 0..LATENCY_SAMPLES {
            let key = &keys[i % keys.len()];
            let t0 = Instant::now();
            if engine.lookup(key).is_err() {
                eprintln!("cubemesh-bench: warm lookup failed for {key:?}");
                return None;
            }
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        samples.sort_unstable();
        p50 = p50.min(percentile_ns(&samples, 50));
        p99 = p99.min(percentile_ns(&samples, 99));
    }

    // Batched protocol throughput: prebuilt request lines, timed through
    // the full parse → lookup → render path.
    let batch_request = |batch: usize, offset: usize| {
        let mut line = String::from("{\"op\":\"plan\",\"shapes\":[");
        for i in 0..batch {
            if i > 0 {
                line.push(',');
            }
            line.push('[');
            for (j, d) in keys[(offset + i) % keys.len()].iter().enumerate() {
                if j > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{d}");
            }
            line.push(']');
        }
        line.push_str("]}");
        line
    };
    let mut batch_rungs = Vec::new();
    for &(batch, iters, name) in &[
        (1usize, 8192usize, "queries_per_s_batch_1"),
        (64, 512, "queries_per_s_batch_64"),
        (1024, 64, "queries_per_s_batch_1024"),
    ] {
        let requests: Vec<String> = (0..iters).map(|i| batch_request(batch, i)).collect();
        let mut best = f64::MAX;
        for _ in 0..reps.max(1) {
            let ((), secs) = time(|| {
                for req in &requests {
                    let (response, _) = handle_line(&engine, req);
                    std::hint::black_box(&response);
                }
            });
            best = best.min(secs);
        }
        batch_rungs.push(ServiceRung {
            name,
            value: (batch * iters) as f64 / best.max(1e-12),
        });
    }

    // Cold-miss latency: every sample is a distinct shape outside the
    // max-axis-12 universe, so each one takes the live plan-and-certify
    // path exactly once. Best case over the samples — the sample count
    // is the only lever against host jitter here, since a shape can
    // only be cold once per engine.
    const COLD_SAMPLES: usize = 512;
    let mut cold_ns = u64::MAX;
    for i in 0..COLD_SAMPLES {
        let dims = [DB_MAX_AXIS + 1, DB_MAX_AXIS + 1, DB_MAX_AXIS + 1 + i];
        let t0 = Instant::now();
        if engine.lookup(&dims).is_err() {
            eprintln!("cubemesh-bench: cold lookup failed for {dims:?}");
            return None;
        }
        cold_ns = cold_ns.min(t0.elapsed().as_nanos() as u64);
    }

    std::fs::remove_dir_all(&dir).ok();
    let mut rungs = vec![
        ServiceRung {
            name: "lookup_p50_ns",
            value: p50,
        },
        ServiceRung {
            name: "lookup_p99_ns",
            value: p99,
        },
    ];
    rungs.extend(batch_rungs);
    rungs.push(ServiceRung {
        name: "cold_miss_ns",
        value: cold_ns as f64,
    });
    Some((
        rungs,
        ServiceMeta {
            db_max_axis: DB_MAX_AXIS,
            db_records: report.shapes,
            db_build_s,
        },
    ))
}

fn bench5_json(rungs: &[ServiceRung], meta: &ServiceMeta) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"BENCH_5\",\n");
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let _ = writeln!(out, "  \"created_unix\": {unix},");
    let _ = writeln!(out, "  \"db_max_axis\": {},", meta.db_max_axis);
    let _ = writeln!(out, "  \"db_records\": {},", meta.db_records);
    let _ = writeln!(out, "  \"db_build_s\": {:.6},", meta.db_build_s);
    out.push_str("  \"rungs\": [\n");
    for (i, r) in rungs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"value\": {:.1}}}",
            r.name, r.value
        );
        out.push_str(if i + 1 < rungs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

const USAGE: &str = "usage: cubemesh-bench [--json] [--out PATH] [--threads N] [--quick] [--reps N]
         [--shapes L1xL2xL3[,L1xL2xL3...]] [--par-only] [--stats]
         [--compare BASE.json] [--tolerance PCT] [--compare-out PATH]
         [--no-service] [--service-out PATH] [--compare-service BASE5.json]
         [--no-replay] [--replay-out PATH] [--trace FILE] [--inject-regression]
Each BENCH document is written only to the path its flag names.";

/// Flags that stand alone (`--stats` is the shared one, see `cli`).
const SWITCHES: [&str; 6] = [
    "--json",
    "--quick",
    "--par-only",
    "--no-replay",
    "--no-service",
    "--inject-regression",
];

/// Flags that take a value (`--trace FILE` is the shared one).
const VALUED: [&str; 10] = [
    "--out",
    "--threads",
    "--reps",
    "--shapes",
    "--compare",
    "--tolerance",
    "--compare-out",
    "--service-out",
    "--compare-service",
    "--replay-out",
];

/// Write `doc` to `path` if the caller gave one.
fn write_doc(path: Option<&str>, doc: &str) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// `--shapes L1xL2xL3[,L1xL2xL3...]`, each shape within [`Shape::check`]
/// and [`MAX_EMBED_NODES`], the limit `cubemesh embed` has: a rung holds
/// one embedding at a time and peaks where `embed` does.
fn parse_shapes(list: &str) -> Result<Vec<Vec<usize>>, String> {
    list.split(',')
        .map(|spec| {
            let dims = spec
                .split('x')
                .map(|t| cli::number("--shapes", t))
                .collect::<Result<Vec<usize>, String>>()?;
            Shape::check(&dims).map_err(|e| format!("--shapes: {spec}: {e}"))?;
            if dims.iter().product::<usize>() > MAX_EMBED_NODES {
                return Err(format!(
                    "--shapes: {spec}: the shape has more than {MAX_EMBED_NODES} nodes"
                ));
            }
            Ok(dims)
        })
        .collect()
}

const CLI: cli::Cli = cli::Cli {
    bin: "cubemesh-bench",
    usage: USAGE,
    report: cli::Report::StatsAndTrace,
};

fn main() -> ExitCode {
    CLI.run(run)
}

fn run(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(words, &SWITCHES, &VALUED)?;
    args.no_positional()?;
    let threads_flag: Option<usize> = args.number("--threads")?;
    let reps: usize = args.number_or("--reps", 3)?;
    let tolerance_pct: Option<f64> = args.number("--tolerance")?;
    let ladder: Vec<Vec<usize>> = if let Some(list) = args.value("--shapes") {
        parse_shapes(list)?
    } else if args.has("--quick") {
        vec![vec![16, 16, 16]]
    } else {
        LADDER.iter().map(|d| d.to_vec()).collect()
    };
    if let Some(t) = threads_flag {
        std::env::set_var("CUBEMESH_THREADS", t.to_string());
    }
    Ok(CLI.outcome(bench(&args, &ladder, reps, tolerance_pct)))
}

/// Run the ladders the flags ask for and gate them against their
/// baselines: a regression past tolerance exits 1, as does a failure.
fn bench(
    args: &Args,
    ladder: &[Vec<usize>],
    reps: usize,
    tolerance_pct: Option<f64>,
) -> Result<ExitCode, String> {
    let threads = cubemesh_pool::effective_threads();
    // Lead with the execution environment so a pasted bench line can't be
    // mistaken for numbers from a real work-stealing pool.
    println!(
        "cubemesh-bench: threads={threads} host_cores={} backend={}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        cubemesh_pool::backend_name()
    );
    let par_only = args.has("--par-only");

    let mut rungs = Vec::new();
    for dims in ladder {
        let Some((mut rung, plan, emb)) = run_pipeline(dims, reps) else {
            continue;
        };
        let m_par = emb.metrics();
        drop(emb);

        if !par_only {
            // Sequential re-run: the same plan lowered with the pool
            // pinned to one worker, so every stage takes the sequential
            // path.
            let shape = Shape::new(dims);
            let seq = cubemesh_pool::with_threads(1, || {
                let (mut construct_s, mut metrics_s, mut m_seq) = (f64::MAX, f64::MAX, m_par);
                for _ in 0..reps.max(1) {
                    let (emb_seq, c) =
                        time(|| construct(&shape, &plan).expect("planner-produced plan lowers"));
                    construct_s = construct_s.min(c);
                    let (m, ms) = time(|| emb_seq.metrics());
                    metrics_s = metrics_s.min(ms);
                    m_seq = m;
                    emb_seq.verify()?;
                }
                Ok::<_, cubemesh_embedding::VerifyError>((construct_s, metrics_s, m_seq))
            });
            let (seq_construct_s, seq_metrics_s, m_seq) =
                seq.map_err(|e| format!("{shape} sequential verify failed: {e}"))?;
            if m_seq != m_par {
                return Err(format!(
                    "{shape}: parallel metrics {m_par:?} != sequential {m_seq:?}"
                ));
            }
            rung.seq_construct_s = seq_construct_s;
            rung.seq_metrics_s = seq_metrics_s;
            rung.speedup_construct_metrics =
                (seq_construct_s + seq_metrics_s) / (rung.construct_s + rung.metrics_s).max(1e-12);
        }

        println!(
            "{:>12}  nodes {:>9}  construct {:>8.3}s  metrics {:>7.3}s  verify {:>7.3}s  \
             d={} c={}{}",
            rung.shape,
            rung.nodes,
            rung.construct_s,
            rung.metrics_s,
            rung.verify_s,
            rung.dilation,
            rung.congestion,
            if par_only {
                String::new()
            } else {
                format!("  speedup {:.2}x", rung.speedup_construct_metrics)
            }
        );
        rungs.push(rung);
    }

    if rungs.is_empty() {
        return Err("no rungs completed".to_owned());
    }
    let kernels = run_kernel_bench(reps);
    for k in &kernels {
        println!(
            "{:>12}  kernel {:>9} elems  {:>10.1}M elems/s",
            k.name,
            k.elems,
            k.elems_per_s / 1e6
        );
    }
    let doc = to_json(&rungs, threads, &kernels);
    write_doc(args.value("--out"), &doc)?;
    if args.has("--json") {
        print!("{doc}");
    }

    // Perf-trajectory gate: compare against a prior baseline, fail on any
    // metric past tolerance. Runs before the replay ladder so the exit
    // code is decided even if BENCH_4 is skipped.
    let mut regressed = false;
    let tolerance = tolerance_pct
        .map(|pct| pct / 100.0)
        .unwrap_or(cubemesh_bench::DEFAULT_TOLERANCE);
    // Self-test hook for check.sh: deflate this run's throughput 25%
    // (past any sane tolerance) to prove the gate actually trips.
    let inject = args.has("--inject-regression");
    if let Some(base_path) = args.value("--compare") {
        let base_doc = std::fs::read_to_string(base_path)
            .map_err(|e| format!("reading baseline {base_path}: {e}"))?;
        let baseline = cubemesh_bench::load_baseline(&base_doc)
            .map_err(|e| format!("baseline {base_path}: {e}"))?;
        // Backend honesty gate: throughput from different executors is
        // not comparable, so a backend mismatch is a hard error, not a
        // warning — regenerate the baseline on the current backend.
        if let Some(backend) = &baseline.parallel_backend {
            if backend != cubemesh_pool::backend_name() {
                return Err(format!(
                    "baseline backend '{backend}' != current '{}' — \
                     refusing to compare different executors; regenerate {base_path}",
                    cubemesh_pool::backend_name()
                ));
            }
        }
        let current: Vec<cubemesh_bench::RungMetrics> = rungs
            .iter()
            .map(|r| cubemesh_bench::RungMetrics {
                shape: r.shape.clone(),
                construct_nodes_per_s: r.construct_nodes_per_s * if inject { 0.75 } else { 1.0 },
                metrics_hops_per_s: r.metrics_hops_per_s * if inject { 0.75 } else { 1.0 },
                peak_rss_kb: r.peak_rss_kb,
            })
            .collect();
        let mut report = cubemesh_bench::compare_rungs(&baseline.rungs, &current, tolerance)
            .map_err(|e| format!("compare: {e}"))?;
        // Kernel micro-rungs gate alongside the shape rungs; baselines
        // predating the kernel bench simply contribute no deltas.
        let current_kernels: Vec<cubemesh_bench::KernelMetrics> = kernels
            .iter()
            .map(|k| cubemesh_bench::KernelMetrics {
                name: k.name.to_owned(),
                elems_per_s: k.elems_per_s * if inject { 0.75 } else { 1.0 },
            })
            .collect();
        report.deltas.extend(cubemesh_bench::compare_kernels(
            &baseline.kernels,
            &current_kernels,
            tolerance,
        ));
        print!("{}", report.to_text());
        write_doc(args.value("--compare-out"), &report.to_json())?;
        regressed = !report.regressions().is_empty();
    }

    // BENCH_5: the query-service ladder. Runs with fixed parameters
    // regardless of --quick (it is cheap next to the shape ladder and
    // the rungs must stay comparable across runs).
    if !args.has("--no-service") {
        let Some((service_rungs, service_meta)) = run_service_bench(reps) else {
            return Ok(ExitCode::FAILURE);
        };
        println!(
            "     service  db {} records in {:.3}s (max axis {})",
            service_meta.db_records, service_meta.db_build_s, service_meta.db_max_axis
        );
        for r in &service_rungs {
            if r.name.ends_with("_ns") {
                println!("{:>24}  {:>12.0} ns", r.name, r.value);
            } else {
                println!("{:>24}  {:>12.0} queries/s", r.name, r.value);
            }
        }
        let doc5 = bench5_json(&service_rungs, &service_meta);
        write_doc(args.value("--service-out"), &doc5)?;

        if let Some(base5_path) = args.value("--compare-service") {
            let base_doc = std::fs::read_to_string(base5_path)
                .map_err(|e| format!("reading service baseline {base5_path}: {e}"))?;
            let baseline = cubemesh_bench::load_service_baseline(&base_doc)
                .map_err(|e| format!("service baseline {base5_path}: {e}"))?;
            let current: Vec<cubemesh_bench::ServiceMetrics> = service_rungs
                .iter()
                .map(|r| cubemesh_bench::ServiceMetrics {
                    name: r.name.to_owned(),
                    // Injected regressions move each metric the bad way:
                    // latencies up, throughput down — by well over the
                    // doubled service tolerance, so the self-test trips
                    // even against a same-run baseline.
                    value: r.value
                        * match (inject, r.name.ends_with("_ns")) {
                            (true, true) => 1.5,
                            (true, false) => 0.5,
                            (false, _) => 1.0,
                        },
                })
                .collect();
            let deltas = cubemesh_bench::compare_service(&baseline, &current, tolerance)
                .map_err(|e| format!("service compare: {e}"))?;
            let report = cubemesh_bench::CompareReport {
                tolerance,
                deltas,
                skipped: Vec::new(),
            };
            print!("{}", report.to_text());
            for r in &current {
                if cubemesh_bench::SERVICE_REPORT_ONLY.contains(&r.name.as_str()) {
                    println!("  {:>12} report-only, not gated", r.name);
                }
            }
            regressed = regressed || !report.regressions().is_empty();
        }
    }

    if !args.has("--no-replay") {
        let quick = args.has("--quick");
        let Some(replay_rungs) = run_replay_ladder(quick) else {
            return Ok(ExitCode::FAILURE);
        };
        for r in &replay_rungs {
            println!(
                "{:>12}  replay {:>7} msgs  slack {:>8.3}s ({:>9.0} msg/s)  \
                 peak {}/{} flits{}",
                r.shape,
                r.events,
                r.slack_s,
                r.events_per_s,
                r.dynamic_peak_flits,
                r.static_peak_flits,
                if r.knee_rate.is_empty() {
                    String::new()
                } else {
                    format!("  knee @ {}", r.knee_rate)
                }
            );
        }
        write_doc(args.value("--replay-out"), &bench4_json(&replay_rungs))?;
    }
    if regressed {
        return Err("REGRESSION beyond tolerance (see compare report above)".to_owned());
    }
    Ok(ExitCode::SUCCESS)
}
