//! `cubemesh-serve` — build the census plan database and serve it.
//!
//! ```text
//! cubemesh-serve build --max-axis 16 --out plans.db [--checkpoint sweep.ck] [--chunk 512]
//! cubemesh-serve --db plans.db [--addr 127.0.0.1:0] [--workers 4] [--overflow cold.ck]
//! cubemesh-serve query --addr HOST:PORT [--shapes "3x5x17;5x5x5"] [--census-max 16 --count 1024]
//! cubemesh-serve shutdown --addr HOST:PORT
//! ```
//!
//! The serve mode prints one `{"listening":"HOST:PORT"}` line once the
//! socket is bound, then blocks until a `shutdown` request or
//! SIGINT/SIGTERM. The query mode is the check-script client: it sends
//! one batched `plan` request, verifies every result carries a
//! certificate and a fingerprint, and prints a one-line JSON summary.
//!
//! `--help` prints the usage. A flag the mode does not take, a stray
//! word, a missing or non-numeric value, or a value outside its range
//! (`--max-axis` and `--census-max` within `MAX_BUILD_AXIS`, `--workers`
//! within `MAX_WORKERS`, a query batch within `MAX_BATCH`) prints the
//! usage and exits 2 before anything is built, bound or dialled; a run
//! that fails exits 1.

use cubemesh_obs::cli::{self, Args};
use cubemesh_obs::{parse_json, JsonValue};
use cubemesh_plandb::{build, validate_key, BuildConfig, MAX_BUILD_AXIS};
use cubemesh_service::{serve, EngineConfig, QueryEngine, ServerConfig, MAX_BATCH, MAX_WORKERS};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, SeqCst);
}

fn install_signal_handlers() {
    // std has no signal API; bind the libc symbol directly (std already
    // links libc) rather than adding a dependency.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

const USAGE: &str = "usage: cubemesh-serve [--db FILE] [--addr HOST:PORT] [--workers N] [--overflow FILE]
       cubemesh-serve build --out FILE [--max-axis N] [--checkpoint FILE] [--chunk N]
       cubemesh-serve query --addr HOST:PORT [--shapes \"3x5x17;5x5x5\"] [--census-max N [--count C]]
       cubemesh-serve shutdown --addr HOST:PORT";

const CLI: cli::Cli = cli::Cli {
    bin: "cubemesh-serve",
    usage: USAGE,
    report: cli::Report::Off,
};

fn main() -> ExitCode {
    CLI.run(|words| match words.split_first() {
        Some((mode, rest)) if mode == "build" => run_build(rest),
        Some((mode, rest)) if mode == "query" => run_query(rest),
        Some((mode, rest)) if mode == "shutdown" => run_shutdown(rest),
        _ => run_serve(words),
    })
}

fn run_build(words: &[String]) -> Result<ExitCode, String> {
    let flags = ["--max-axis", "--out", "--checkpoint", "--chunk"];
    let args = Args::parse(words, &[], &flags)?;
    args.no_positional()?;
    let max_axis = args.number_or("--max-axis", 16)?;
    let cfg = BuildConfig {
        max_axis: cli::within("--max-axis", max_axis, 1..=MAX_BUILD_AXIS)?,
        chunk_shapes: args.number_or("--chunk", 512)?,
        checkpoint: args.value("--checkpoint").map(PathBuf::from),
    };
    let out = PathBuf::from(args.value("--out").ok_or("build needs --out PATH")?);
    let run = || -> Result<ExitCode, String> {
        let report = build(&cfg, &out).map_err(|e| e.to_string())?;
        println!(
            "{{\"built\":\"{}\",\"shapes\":{},\"certified\":{},\"uncovered\":{},\"resumed\":{}}}",
            out.display(),
            report.shapes,
            report.certified,
            report.uncovered,
            report.resumed,
        );
        Ok(ExitCode::SUCCESS)
    };
    Ok(CLI.outcome(run()))
}

fn run_serve(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(words, &[], &["--db", "--addr", "--workers", "--overflow"])?;
    args.no_positional()?;
    let engine = EngineConfig {
        db: args.value("--db").map(PathBuf::from),
        overflow: args.value("--overflow").map(PathBuf::from),
    };
    let server = ServerConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:0").to_owned(),
        workers: cli::within(
            "--workers",
            args.number_or("--workers", 4)?,
            0..=MAX_WORKERS,
        )?,
    };
    Ok(CLI.outcome(serve_until_stopped(&engine, &server)))
}

fn serve_until_stopped(engine: &EngineConfig, server: &ServerConfig) -> Result<ExitCode, String> {
    let engine = Arc::new(QueryEngine::new(engine).map_err(|e| e.to_string())?);
    let server = serve(server, Arc::clone(&engine)).map_err(|e| e.to_string())?;
    println!("{{\"listening\":\"{}\"}}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    install_signal_handlers();
    let flag = server.shutdown_flag();
    while !flag.load(SeqCst) && !STOP.load(SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    server.request_shutdown();
    let panicked = server.join();
    engine.flush_overflow();
    if panicked > 0 {
        return Err(format!("{panicked} server thread(s) panicked"));
    }
    Ok(ExitCode::SUCCESS)
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn run_shutdown(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(words, &[], &["--addr"])?;
    args.no_positional()?;
    let addr = args
        .value("--addr")
        .ok_or("shutdown needs --addr HOST:PORT")?;
    Ok(CLI.outcome(shutdown(addr)))
}

fn shutdown(addr: &str) -> Result<ExitCode, String> {
    let mut stream = connect(addr)?;
    stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    print!("{reply}");
    Ok(ExitCode::SUCCESS)
}

/// Parse `--shapes "3x5x17;5x5x5"` into extents lists.
fn parse_shapes_flag(spec: &str) -> Result<Vec<Vec<usize>>, String> {
    let mut shapes = Vec::new();
    for part in spec.split(';').filter(|p| !p.is_empty()) {
        let dims: Result<Vec<usize>, _> = part
            .split(['x', ','])
            .map(|d| d.trim().parse::<usize>())
            .collect();
        shapes.push(dims.map_err(|_| format!("bad shape spec {part:?}"))?);
    }
    Ok(shapes)
}

/// The census keys up to `max_axis` in build order (sorted triples,
/// canonicalized as [`cubemesh_plandb::enumerate_keys`] lists them),
/// walked lazily and cycled to exactly `count` shapes: only the batch is
/// held in memory, never the key universe.
fn census_batch(max_axis: usize, count: usize) -> Result<Vec<Vec<usize>>, String> {
    let triples = (1..=max_axis).flat_map(move |a| {
        (a..=max_axis).flat_map(move |b| (b..=max_axis).map(move |c| [a, b, c]))
    });
    let keys = triples.cycle().take(count).map(|t| validate_key(&t));
    keys.collect::<Result<_, _>>().map_err(|e| e.to_string())
}

fn run_query(words: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        words,
        &[],
        &["--addr", "--shapes", "--census-max", "--count"],
    )?;
    args.no_positional()?;
    let mut shapes = match args.value("--shapes") {
        Some(spec) => parse_shapes_flag(spec)?,
        None => Vec::new(),
    };
    let (census_max, count) = match args.number("--census-max")? {
        // The batch cycles through the census keys up to the bound, so
        // the bound is the build's: an empty universe has no key to
        // cycle, and a wider one has no database to answer from.
        Some(census_max) => (
            cli::within("--census-max", census_max, 1..=MAX_BUILD_AXIS)?,
            args.number_or("--count", 1024)?,
        ),
        None => (0, 0),
    };
    // The server refuses a batch over MAX_BATCH; refuse it here, before
    // the batch is built.
    let total = shapes.len().saturating_add(count);
    if total > MAX_BATCH {
        return Err(format!(
            "a batch of {total} shapes (--shapes plus --count) exceeds the server's limit of \
             {MAX_BATCH}"
        ));
    }
    shapes.extend(census_batch(census_max, count)?);
    if shapes.is_empty() {
        return Err("query needs --shapes and/or --census-max".to_owned());
    }
    let addr = args.value("--addr").ok_or("query needs --addr HOST:PORT")?;
    Ok(CLI.outcome(query(addr, &shapes)))
}

/// Send `shapes` as one batched `plan` request and check every answer.
fn query(addr: &str, shapes: &[Vec<usize>]) -> Result<ExitCode, String> {
    let mut request = String::from("{\"op\":\"plan\",\"shapes\":[");
    for (i, dims) in shapes.iter().enumerate() {
        if i > 0 {
            request.push(',');
        }
        request.push('[');
        for (j, d) in dims.iter().enumerate() {
            if j > 0 {
                request.push(',');
            }
            request.push_str(&d.to_string());
        }
        request.push(']');
    }
    request.push_str("]}\n");

    let mut stream = connect(addr)?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;

    let v =
        parse_json(reply.trim()).map_err(|(at, what)| format!("bad response at {at}: {what}"))?;
    if v.get("ok").map(|o| o == &JsonValue::Bool(true)) != Some(true) {
        return Err(format!("server error: {}", reply.trim()));
    }
    let results = v
        .get("results")
        .and_then(JsonValue::as_arr)
        .ok_or("response has no results array")?;
    if results.len() != shapes.len() {
        return Err(format!(
            "sent {} shapes, got {} results",
            shapes.len(),
            results.len()
        ));
    }

    let mut certified = 0usize;
    let mut fallback = 0usize;
    let mut errors = 0usize;
    let mut missing_certificate = 0usize;
    let mut by_source = std::collections::BTreeMap::new();
    for r in results {
        if r.get("error").is_some() {
            errors += 1;
            continue;
        }
        // Every non-error answer must carry a certificate, floors, a
        // plan and a fingerprint — the contract check.sh leans on.
        let complete = r.get("certificate").is_some()
            && r.get("floors").is_some()
            && r.get("plan").and_then(JsonValue::as_str).is_some()
            && r.get("fingerprint")
                .and_then(JsonValue::as_str)
                .is_some_and(|f| f.starts_with("0x"));
        if !complete {
            missing_certificate += 1;
            continue;
        }
        match r.get("status").and_then(JsonValue::as_str) {
            Some("certified") => certified += 1,
            _ => fallback += 1,
        }
        if let Some(src) = r.get("source").and_then(JsonValue::as_str) {
            *by_source.entry(src.to_owned()).or_insert(0usize) += 1;
        }
    }

    let mut sources = String::new();
    for (i, (k, n)) in by_source.iter().enumerate() {
        if i > 0 {
            sources.push(',');
        }
        sources.push_str(&format!("\"{k}\":{n}"));
    }
    println!(
        "{{\"sent\":{},\"certified\":{certified},\"fallback\":{fallback},\"errors\":{errors},\"missing_certificate\":{missing_certificate},\"sources\":{{{sources}}}}}",
        shapes.len(),
    );
    if errors > 0 || missing_certificate > 0 {
        return Err(format!(
            "{errors} error result(s), {missing_certificate} without certificates"
        ));
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    #[test]
    fn census_batch_cycles_the_build_order() {
        let keys = cubemesh_plandb::enumerate_keys(7);
        let batch = super::census_batch(7, 2 * keys.len() + 3).expect("valid keys");
        assert_eq!(batch, [&keys[..], &keys[..], &keys[..3]].concat());
    }
}
