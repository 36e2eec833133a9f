//! The `cubemesh-audit` gate binary.
//!
//! ```text
//! cubemesh-audit analyze [--json] [--sarif FILE] [--baseline JSON] [--root DIR]
//!     Run the source analyzer over the library sources: the
//!     interprocedural passes (CM-A001..A013: worker-capture escapes,
//!     non-deterministic reductions, lock/atomic discipline, span-stack
//!     balance, value-range overflow proofs, taint tracking, dropped
//!     Results) and the hygiene rules (CM-L001/L002/L005..L008: panics,
//!     narrowing casts, chunk-loop allocation, shared mutable state,
//!     dropped span guards). Exit 1 on any finding; interprocedural
//!     findings carry call-path evidence from the fan-out site to the
//!     sink. --json emits the cubemesh-audit-diag/v1 schema;
//!     --baseline diffs against a prior `analyze --json` artifact and
//!     reports only new findings; --sarif writes the (post-baseline)
//!     findings as SARIF 2.1.0.
//! cubemesh-audit certify [--json] [--sweep N] [L1 [L2 L3]]
//!     Certify shapes and report certificate vs proven floor per
//!     figure of merit. With explicit extents, one shape; with
//!     --sweep N, every canonical a <= b <= c <= N. Each record
//!     carries the mesh, torus and fold-cube certificates, the floors,
//!     the certified-minus-floor gaps and a plan fingerprint; --json
//!     emits the records as a JSON array (the check.sh artifact).
//! cubemesh-audit selfcheck [--max-axis N] [--construct-cap N] [--quick]
//!     Certify every plan the strategy ladder picks — mesh, torus, fold
//!     and contraction — for all canonical shapes within N^3 (default 32)
//!     and cross-check constructed embeddings up to the node cap
//!     (default 32768) against their certificates. --quick shrinks to
//!     an 8^3 smoke pass.
//! ```
//!
//! Every subcommand accepts `--stats` to print an instrumentation
//! snapshot after the run (`CUBEMESH_STATS=text|json` does the same),
//! and `--trace FILE` to record a hierarchical execution trace (Chrome
//! `trace_event` JSON at FILE plus FILE.folded / FILE.jsonl exports).

use cubemesh_audit::{
    certify_fold, certify_torus, manytoone_floors, mesh_floors, sweep, sweep_contract, sweep_fold,
    sweep_torus, torus_floors, Certificate, CrosscheckError, Finding, Floors,
};
use cubemesh_core::{plan_shape, Planner};
use cubemesh_manytoone::plan_corollary5;
use cubemesh_obs as obs;
use cubemesh_topology::{cube_dim, Shape};
use std::path::PathBuf;
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
    let trace_out = match args.iter().position(|a| a == "--trace") {
        Some(i) => {
            if i + 1 >= args.len() || args[i + 1].starts_with("--") {
                eprintln!("--trace requires an output file path");
                return ExitCode::from(2);
            }
            let path = args.remove(i + 1);
            args.remove(i);
            obs::trace::set_enabled(true);
            Some(path)
        }
        None => None,
    };
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: cubemesh-audit <analyze|certify|selfcheck> ... [--stats] [--trace FILE]");
        return ExitCode::from(2);
    };
    let code = match cmd.as_str() {
        "analyze" => cmd_analyze(rest),
        "certify" => cmd_certify(rest),
        "selfcheck" => cmd_selfcheck(rest),
        other => {
            eprintln!("unknown subcommand '{other}'");
            ExitCode::from(2)
        }
    };
    obs::report();
    if let Some(path) = trace_out {
        obs::trace::set_enabled(false);
        let log = obs::trace::drain();
        match log.write_files(std::path::Path::new(&path)) {
            Ok(paths) => {
                let names: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
                eprintln!("trace: {} events -> {}", log.len(), names.join(", "));
            }
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
    code
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Write a SARIF 2.1.0 log for `findings` to `path` (from `--sarif`).
fn write_sarif(path: &str, findings: &[Finding]) -> bool {
    let log = cubemesh_audit::sarif::to_sarif(findings);
    match std::fs::write(path, log) {
        Ok(()) => {
            eprintln!("sarif: {} result(s) -> {path}", findings.len());
            true
        }
        Err(e) => {
            eprintln!("cubemesh-audit: cannot write SARIF to {path}: {e}");
            false
        }
    }
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let root = PathBuf::from(flag_value(args, "--root").unwrap_or_else(|| ".".to_owned()));
    let json = args.iter().any(|a| a == "--json");
    let sarif_out = flag_value(args, "--sarif");
    // Baseline diff mode: load the prior `analyze --json` artifact up
    // front so a bad path fails before the (multi-second) analysis.
    let baseline = match flag_value(args, "--baseline") {
        None => None,
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cubemesh-audit: cannot read baseline {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match cubemesh_audit::baseline_keys(&text) {
                Ok(keys) => Some(keys),
                Err(e) => {
                    eprintln!("cubemesh-audit: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    match cubemesh_audit::Analysis::run_root(&root) {
        Ok(mut analysis) => {
            let baselined = baseline
                .map(|keys| analysis.apply_baseline(&keys))
                .unwrap_or(0);
            if let Some(path) = &sarif_out {
                if !write_sarif(path, &analysis.findings) {
                    return ExitCode::from(2);
                }
            }
            if json {
                println!("{}", analysis.to_json());
            } else {
                for f in &analysis.findings {
                    println!("{f}");
                }
                let diffed = if baselined > 0 {
                    format!(" ({baselined} baselined)")
                } else {
                    String::new()
                };
                println!(
                    "audit analyze: {} finding(s){diffed} | {} files, {} functions, {} parallel \
                     regions, {} suppression(s) | {} ms",
                    analysis.findings.len(),
                    analysis.files,
                    analysis.functions,
                    analysis.regions,
                    analysis.suppressions,
                    analysis.elapsed_ms
                );
            }
            if analysis.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("cubemesh-audit: {e}");
            ExitCode::from(2)
        }
    }
}

/// One certify record: a certificate (or `None` for an open case), the
/// proven floors, and a fingerprint of the underlying plan.
struct Record {
    kind: &'static str,
    shape: Shape,
    cert: Option<Certificate>,
    floors: Floors,
    fingerprint: u64,
}

impl Record {
    fn to_json(&self) -> String {
        let dims: Vec<String> = self.shape.dims().iter().map(|d| d.to_string()).collect();
        let cert = match &self.cert {
            None => "null".to_owned(),
            Some(c) => format!(
                "{{\"host_dim\":{},\"dilation\":{},\"congestion\":{},\"load\":{},\"minimal\":{}}}",
                c.host_dim, c.dilation_bound, c.congestion_bound, c.load_factor, c.minimal
            ),
        };
        let floors = format!(
            "{{\"dilation\":{},\"congestion\":{},\"load\":{}}}",
            self.floors.dilation, self.floors.congestion, self.floors.load
        );
        let gap = match &self.cert {
            None => "null".to_owned(),
            Some(c) => format!(
                "{{\"dilation\":{},\"congestion\":{},\"load\":{}}}",
                c.dilation_bound.saturating_sub(self.floors.dilation),
                c.congestion_bound.saturating_sub(self.floors.congestion),
                c.load_factor.saturating_sub(self.floors.load)
            ),
        };
        format!(
            "{{\"kind\":\"{}\",\"shape\":[{}],\"certificate\":{},\"floor\":{},\"gap\":{},\
             \"fingerprint\":\"{:016x}\"}}",
            self.kind,
            dims.join(","),
            cert,
            floors,
            gap,
            self.fingerprint
        )
    }

    fn print_text(&self) {
        match &self.cert {
            None => println!("{} {}: no plan (open case)", self.shape, self.kind),
            Some(c) => {
                let gap_d = c.dilation_bound.saturating_sub(self.floors.dilation);
                let gap_c = c.congestion_bound.saturating_sub(self.floors.congestion);
                println!(
                    "{} {}: {} | floor d >= {}, c >= {}, load >= {} | gap d +{gap_d}, c +{gap_c} \
                     | plan {:016x}",
                    self.shape,
                    self.kind,
                    c,
                    self.floors.dilation,
                    self.floors.congestion,
                    self.floors.load,
                    self.fingerprint
                );
            }
        }
    }
}

/// Certify one shape through every covered decomposition family: the
/// one-to-one mesh plan [`plan_shape`] picks, the torus driver's
/// combination space, and the Corollary 5 fold into one dimension below
/// the minimal cube.
fn certify_records(planner: &mut Planner, shape: &Shape) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    let host = cube_dim(shape.nodes() as u64);

    let (cert, fp) = match plan_shape(planner, shape).map(|hit| hit.plan) {
        None => (None, 0),
        Some(plan) => {
            let cert = cubemesh_audit::check_plan(shape, &plan)
                .map_err(|e| format!("{shape} mesh: {e}"))?;
            (Some(cert), cubemesh_audit::fingerprint(&plan))
        }
    };
    out.push(Record {
        kind: "mesh",
        shape: shape.clone(),
        floors: mesh_floors(shape, host),
        cert,
        fingerprint: fp,
    });

    let cert = certify_torus(shape, planner).map_err(|e| format!("{shape} torus: {e}"))?;
    out.push(Record {
        kind: "torus",
        shape: shape.clone(),
        floors: torus_floors(shape, host),
        fingerprint: cert
            .as_ref()
            .map(|c| cubemesh_audit::fnv1a(c.to_string().as_bytes()))
            .unwrap_or(0),
        cert,
    });

    if let Some(n) = host.checked_sub(1).filter(|&n| n >= 1) {
        let (cert, fp) = match plan_corollary5(shape, n) {
            None => (None, 0),
            Some(plan) => {
                let cert = certify_fold(shape, &plan).map_err(|e| format!("{shape} fold: {e}"))?;
                (
                    Some(cert),
                    cubemesh_audit::fnv1a(format!("{plan:?}").as_bytes()),
                )
            }
        };
        out.push(Record {
            kind: "fold",
            shape: shape.clone(),
            floors: manytoone_floors(shape, n),
            cert,
            fingerprint: fp,
        });
    }
    Ok(out)
}

fn cmd_certify(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    let sweep_axis: Option<usize> = flag_value(args, "--sweep").and_then(|v| v.parse().ok());
    let dims: Vec<usize> = args
        .iter()
        .skip_while(|a| a.starts_with("--"))
        .filter_map(|a| a.parse().ok())
        .collect();

    let mut shapes = Vec::new();
    if let Some(max) = sweep_axis {
        for a in 1..=max {
            for b in a..=max {
                for c in b..=max {
                    shapes.push(Shape::new(&[a, b, c]));
                }
            }
        }
    } else if !dims.is_empty() {
        shapes.push(Shape::new(&dims));
    } else {
        eprintln!("usage: cubemesh-audit certify [--json] [--sweep N] [L1 [L2 L3]]");
        return ExitCode::from(2);
    }

    let mut planner = Planner::new();
    let mut records = Vec::new();
    for shape in &shapes {
        match certify_records(&mut planner, shape) {
            Ok(rs) => records.extend(rs),
            Err(e) => {
                eprintln!("certification FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if json {
        let body: Vec<String> = records.iter().map(Record::to_json).collect();
        println!("[{}]", body.join(",\n "));
    } else {
        for r in &records {
            r.print_text();
        }
    }
    // A single explicit open-case shape is a failure (the caller asked
    // for a certificate); sweeps legitimately contain open cases.
    if sweep_axis.is_none() && records.iter().all(|r| r.cert.is_none()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_selfcheck(args: &[String]) -> ExitCode {
    let quick = args.iter().any(|a| a == "--quick");
    let max_axis: usize = flag_value(args, "--max-axis")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 8 } else { 32 });
    let cap: usize = flag_value(args, "--construct-cap")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 512 } else { 32768 });
    let contract_axis = max_axis.min(6);

    type SweepFn = fn(usize, usize) -> Result<cubemesh_audit::SweepReport, CrosscheckError>;
    let passes: [(&str, SweepFn, usize, usize); 4] = [
        ("mesh", sweep, max_axis, cap),
        ("torus", sweep_torus, max_axis, cap),
        ("fold", sweep_fold, max_axis, cap),
        ("contract", sweep_contract, contract_axis, cap.min(4096)),
    ];
    for (name, run, axis, cap) in passes {
        match run(axis, cap) {
            Ok(report) => println!(
                "audit selfcheck [{name}]: {} cases <= {axis}^3: {} certified, \
                 {} constructed+measured, {} open",
                report.shapes, report.certified, report.constructed, report.unplanned
            ),
            Err(e) => {
                eprintln!("audit selfcheck [{name}] FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
