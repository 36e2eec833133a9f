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

use cubemesh_obs::{parse_json, JsonValue};
use cubemesh_plandb::{build, validate_key, BuildConfig, MAX_BUILD_AXIS};
use cubemesh_service::{serve, EngineConfig, QueryEngine, ServerConfig, MAX_BATCH};
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

struct Args {
    flags: std::collections::BTreeMap<String, String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = std::collections::BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            let val = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_owned(), val.clone());
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some("build") => ("build", &argv[1..]),
        Some("query") => ("query", &argv[1..]),
        Some("shutdown") => ("shutdown", &argv[1..]),
        _ => ("serve", &argv[..]),
    };
    let result = Args::parse(rest).and_then(|args| match mode {
        "build" => run_build(&args),
        "query" => run_query(&args),
        "shutdown" => run_shutdown(&args),
        _ => run_serve(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cubemesh-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_build(args: &Args) -> Result<(), String> {
    let max_axis = args.usize_or("max-axis", 16)?;
    let out = PathBuf::from(args.get("out").ok_or("build needs --out PATH")?);
    let cfg = BuildConfig {
        max_axis,
        chunk_shapes: args.usize_or("chunk", 512)?,
        checkpoint: args.get("checkpoint").map(PathBuf::from),
    };
    let report = build(&cfg, &out).map_err(|e| e.to_string())?;
    println!(
        "{{\"built\":\"{}\",\"shapes\":{},\"certified\":{},\"uncovered\":{},\"resumed\":{}}}",
        out.display(),
        report.shapes,
        report.certified,
        report.uncovered,
        report.resumed,
    );
    Ok(())
}

fn run_serve(args: &Args) -> Result<(), String> {
    let engine = QueryEngine::new(&EngineConfig {
        db: args.get("db").map(PathBuf::from),
        overflow: args.get("overflow").map(PathBuf::from),
    })
    .map_err(|e| e.to_string())?;
    let engine = Arc::new(engine);
    let server = serve(
        &ServerConfig {
            addr: args.get("addr").unwrap_or("127.0.0.1:0").to_owned(),
            workers: args.usize_or("workers", 4)?,
        },
        Arc::clone(&engine),
    )
    .map_err(|e| e.to_string())?;
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
    Ok(())
}

fn connect(args: &Args) -> Result<TcpStream, String> {
    let addr = args.get("addr").ok_or("needs --addr HOST:PORT")?;
    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn run_shutdown(args: &Args) -> Result<(), String> {
    let mut stream = connect(args)?;
    stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    print!("{reply}");
    Ok(())
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

fn run_query(args: &Args) -> Result<(), String> {
    let mut shapes = match args.get("shapes") {
        Some(spec) => parse_shapes_flag(spec)?,
        None => Vec::new(),
    };
    let (census_max, count) = match args.get("census-max") {
        // The batch cycles through the census keys up to the bound, so
        // the bound is the build's: an empty universe has no key to
        // cycle, and a wider one has no database to answer from.
        Some(census_max) => (
            census_max
                .parse()
                .ok()
                .filter(|n| (1..=MAX_BUILD_AXIS).contains(n))
                .ok_or_else(|| {
                    format!("--census-max: {census_max:?} is not a number in 1..={MAX_BUILD_AXIS}")
                })?,
            args.usize_or("count", 1024)?,
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

    let mut stream = connect(args)?;
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
    Ok(())
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
