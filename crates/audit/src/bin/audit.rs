//! The `cubemesh-audit` gate binary.
//!
//! ```text
//! cubemesh-audit analyze [--json] [--root DIR]
//!     Run the source analyzer over the library sources: the
//!     interprocedural passes (CM-A005..A007, A009..A013: order-sensitive
//!     merges, lock/atomic discipline, value-range overflow proofs, taint
//!     tracking, `Result`s discarded by `let _ =`) and the hygiene rules
//!     (CM-L001/L002/L005..L007: panics, narrowing casts, chunk-loop
//!     allocation, `static mut`). What rustc rejects (retired CM-A001..A004,
//!     A008, L008) is pinned by compile-fail probes instead. Exit 1 on any
//!     finding; interprocedural findings carry call-path evidence from the
//!     fan-out site to the sink. --json emits the cubemesh-audit-diag/v1
//!     schema.
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
//! A flag a subcommand does not document, a non-numeric value, a stray
//! argument or an extent outside the `Shape` limits prints the usage and
//! exits 2; `--help` prints it and exits 0.

use cubemesh_audit::{
    certify_fold, certify_torus, manytoone_floors, mesh_floors, sweep, sweep_contract, sweep_fold,
    sweep_torus, torus_floors, Certificate, CrosscheckError, Floors,
};
use cubemesh_core::{plan_shape, Planner};
use cubemesh_manytoone::plan_corollary5;
use cubemesh_obs::cli::{self, Args};
use cubemesh_topology::{cube_dim, Shape};
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cubemesh-audit <command> [--stats] [--trace FILE]
  analyze [--json] [--root DIR]
  certify [--json] [--sweep N] [L1 [L2 L3]]
  selfcheck [--max-axis N] [--construct-cap N] [--quick]";

const CLI: cli::Cli = cli::Cli {
    bin: "cubemesh-audit",
    usage: USAGE,
    report: cli::Report::StatsAndTrace,
};

fn main() -> ExitCode {
    CLI.run(|words| match words.split_first() {
        None => Err("no command given".to_owned()),
        Some((cmd, rest)) => match cmd.as_str() {
            "analyze" => cmd_analyze(rest),
            "certify" => cmd_certify(rest),
            "selfcheck" => cmd_selfcheck(rest),
            other => Err(format!("unknown command '{other}'")),
        },
    })
}

fn cmd_analyze(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(words, &["--json"], &["--root"])?;
    args.no_positional()?;
    Ok(CLI.outcome(analyze(&args)))
}

/// Run the source analyzer and print its findings (exit 1 on any); a
/// root that cannot be read is a failure.
fn analyze(args: &Args) -> Result<ExitCode, String> {
    let root = PathBuf::from(args.value("--root").unwrap_or("."));
    let analysis = cubemesh_audit::Analysis::run_root(&root).map_err(|e| e.to_string())?;
    if args.has("--json") {
        println!("{}", analysis.to_json());
    } else {
        for f in &analysis.findings {
            println!("{f}");
        }
        println!(
            "audit analyze: {} finding(s) | {} files, {} functions, {} parallel regions, {} \
             suppression(s) | {} ms",
            analysis.findings.len(),
            analysis.files,
            analysis.functions,
            analysis.regions,
            analysis.suppressions,
            analysis.elapsed_ms
        );
    }
    Ok(if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
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

    fn write_text(&self, w: &mut impl Write) -> io::Result<()> {
        match &self.cert {
            None => writeln!(w, "{} {}: no plan (open case)", self.shape, self.kind),
            Some(c) => {
                let gap_d = c.dilation_bound.saturating_sub(self.floors.dilation);
                let gap_c = c.congestion_bound.saturating_sub(self.floors.congestion);
                writeln!(
                    w,
                    "{} {}: {} | floor d >= {}, c >= {}, load >= {} | gap d +{gap_d}, c +{gap_c} \
                     | plan {:016x}",
                    self.shape,
                    self.kind,
                    c,
                    self.floors.dilation,
                    self.floors.congestion,
                    self.floors.load,
                    self.fingerprint
                )
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

fn cmd_certify(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(words, &["--json"], &["--sweep"])?;
    let json = args.has("--json");
    let sweep_axis = args.number("--sweep")?;
    let dims: Vec<usize> = args.numbers()?;

    let shapes: Box<dyn Iterator<Item = Shape>> = match sweep_axis {
        Some(_) if !dims.is_empty() => {
            return Err("give --sweep N or extents, not both".to_owned());
        }
        Some(max) => {
            let max = cli::within("--sweep", max, 0..=Shape::MAX_AXIS)?;
            Box::new(sorted_triples(max))
        }
        None if dims.is_empty() => return Err("certify needs --sweep N or extents".to_owned()),
        None => {
            Shape::check(&dims).map_err(|e| e.to_string())?;
            Box::new(std::iter::once(Shape::new(&dims)))
        }
    };

    // Records are written as each shape is certified, so none is
    // buffered and a sweep's first line appears at once; a reader that
    // closes the pipe ends the run quietly. The planner's memo is
    // bounded per shape, so a sweep's memory does not grow with N.
    let mut out = io::stdout().lock();
    match write_records(&mut out, shapes, json) {
        Ok(Written::Done { any_certified }) => {
            // A single explicit open-case shape is a failure (the caller
            // asked for a certificate); sweeps legitimately contain open
            // cases.
            if sweep_axis.is_none() && !any_certified {
                return Ok(ExitCode::FAILURE);
            }
            Ok(ExitCode::SUCCESS)
        }
        Ok(Written::Failed(e)) => {
            eprintln!("certification FAILED: {e}");
            Ok(ExitCode::FAILURE)
        }
        Err(e) => Ok(CLI.outcome(Err(e))),
    }
}

/// Every sorted triple `a ≤ b ≤ c` with `c ≤ max`, in lexicographic
/// order, generated lazily.
fn sorted_triples(max: usize) -> impl Iterator<Item = Shape> {
    (1..=max).flat_map(move |a| {
        (a..=max).flat_map(move |b| (b..=max).map(move |c| Shape::new(&[a, b, c])))
    })
}

/// How a certify stream ended, short of a write error.
enum Written {
    Done { any_certified: bool },
    Failed(String),
}

/// Certify `shapes` in order, writing each shape's records as text lines
/// or as the elements of one JSON array, flushed per shape. A failed
/// certification stops the stream where it stands.
fn write_records(
    out: &mut impl Write,
    shapes: impl Iterator<Item = Shape>,
    json: bool,
) -> io::Result<Written> {
    let mut planner = Planner::new();
    let mut first = true;
    let mut any_certified = false;
    if json {
        out.write_all(b"[")?;
    }
    for shape in shapes {
        let records = match certify_records(&mut planner, &shape) {
            Ok(rs) => rs,
            Err(e) => return Ok(Written::Failed(e)),
        };
        planner.bound_memo(Planner::MEMO_LIMIT);
        for r in &records {
            any_certified |= r.cert.is_some();
            if !json {
                r.write_text(out)?;
                continue;
            }
            if !first {
                out.write_all(b",\n ")?;
            }
            first = false;
            out.write_all(r.to_json().as_bytes())?;
        }
        out.flush()?;
    }
    if json {
        out.write_all(b"]\n")?;
    }
    out.flush()?;
    Ok(Written::Done { any_certified })
}

fn cmd_selfcheck(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(words, &["--quick"], &["--max-axis", "--construct-cap"])?;
    args.no_positional()?;
    let quick = args.has("--quick");
    let max_axis = cli::within(
        "--max-axis",
        args.number_or("--max-axis", if quick { 8 } else { 32 })?,
        0..=Shape::MAX_AXIS,
    )?;
    let cap = args.number_or("--construct-cap", if quick { 512 } else { 32768 })?;
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
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}
