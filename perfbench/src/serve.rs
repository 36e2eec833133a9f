//! `serve-plan`: batched `plan` queries over TCP against an in-process
//! `cubemesh-serve` (one worker, one client connection, closed loop)
//! serving a census database larger than the last-level cache. A small
//! share of shapes lies outside the database, so those go live and are
//! written behind to the overflow log.

use crate::harness::{Checks, Ctx, Kind, Ledger, Metric, Op, Rng, TracedPass, Workload};
use cubemesh_core::{default_strategies, PlanStrategy, Planner};
use cubemesh_obs::{parse_json, JsonValue};
use cubemesh_plandb::{load_checkpoint, plan_record, validate_key, PlanDb};
use cubemesh_service::{
    handle_line, parse_request, serve, EngineConfig, QueryEngine, Server, ServerConfig, Source,
};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest axis of the served database.
pub const DB_MAX_AXIS: usize = 160;
const MAX_BATCH: u64 = 256;
/// Shapes per million that lie outside the database.
const MISS_PPM: u64 = 20_000;
/// Misses put one axis in `DB_MAX_AXIS + 1..=MISS_MAX_AXIS`.
const MISS_MAX_AXIS: u64 = 320;
const SALT: u64 = 0x5E2E;

pub struct ServePlan;

pub struct State {
    engine: Arc<QueryEngine>,
    server: Option<Server>,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    overflow: PathBuf,
    db_path: PathBuf,
    db_records: usize,
    db_bytes: u64,
    open_s: f64,
    open_rss_bytes: u64,
    sampler: Planner,
    strategies: Vec<Box<dyn PlanStrategy + Send + Sync>>,
    shadows: Option<Shadows>,
}

/// In-process copies of the served engine that see the same request
/// sequence, so the traced pass can time a request's layers: one for
/// parse + lookups, one for the whole `handle_line`, and a bare
/// database handle for `PlanDb::get`.
struct Shadows {
    parts: QueryEngine,
    whole: QueryEngine,
    db: PlanDb,
}

impl Drop for State {
    fn drop(&mut self) {
        // Closing the connection ends the worker's read; then stop the
        // accept loop and wait for every server thread.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(server) = self.server.take() {
            server.request_shutdown();
            let panicked = server.join();
            if panicked > 0 {
                eprintln!("serve-plan: {panicked} server threads panicked");
            }
        }
        self.engine.flush_overflow();
        let _ = std::fs::remove_file(&self.db_path);
        let _ = std::fs::remove_file(&self.overflow);
    }
}

/// Build the served database in a child process, so the build's memory
/// does not count towards the serving process's peak.
fn build_db(path: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg("--build-db")
        .arg(path)
        .status()
        .map_err(|e| format!("spawn database build: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("database build exited with {status}"))
    }
}

/// The child-process side of [`build_db`].
pub fn build_db_main(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: --build-db PATH".to_owned());
    };
    cubemesh_plandb::build(
        &cubemesh_plandb::BuildConfig::new(DB_MAX_AXIS),
        Path::new(path),
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

/// A shape uniform over the sorted triples `1 ≤ a ≤ b ≤ c ≤ DB_MAX_AXIS`
/// (sorted uniform draws, thinned by their multiplicity), sent in a
/// random axis order.
fn db_shape(rng: &mut Rng) -> Vec<usize> {
    loop {
        let mut d = [0; 3].map(|_| rng.range(1, DB_MAX_AXIS as u64) as usize);
        d.sort_unstable();
        let perms = match (d[0] == d[1], d[1] == d[2]) {
            (true, true) => 1,
            (true, false) | (false, true) => 3,
            (false, false) => 6,
        };
        if rng.range(1, 6) <= perms {
            let mut v = d.to_vec();
            rng.shuffle(&mut v);
            return v;
        }
    }
}

fn miss_shape(rng: &mut Rng) -> Vec<usize> {
    let mut v = vec![
        rng.range(DB_MAX_AXIS as u64 + 1, MISS_MAX_AXIS) as usize,
        rng.range(1, DB_MAX_AXIS as u64) as usize,
        rng.range(1, DB_MAX_AXIS as u64) as usize,
    ];
    rng.shuffle(&mut v);
    v
}

/// A request's shapes, which of them lie outside the database, and the
/// one compared with a fresh `plan_record`.
type Batch = (Vec<Vec<usize>>, Vec<bool>, usize);

/// The batch of request `i`.
fn batch(seed: u64, i: u64) -> Batch {
    let mut rng = Rng::stream(seed, SALT, i);
    let n = rng.range(1, MAX_BATCH) as usize;
    let miss: Vec<bool> = (0..n).map(|_| rng.range(0, 999_999) < MISS_PPM).collect();
    let shapes = miss
        .iter()
        .map(|&m| {
            if m {
                miss_shape(&mut rng)
            } else {
                db_shape(&mut rng)
            }
        })
        .collect();
    let sample = rng.range(0, n as u64 - 1) as usize;
    (shapes, miss, sample)
}

fn request_line(shapes: &[Vec<usize>]) -> String {
    let mut line = String::with_capacity(16 * shapes.len() + 32);
    line.push_str("{\"op\":\"plan\",\"shapes\":[");
    for (i, s) in shapes.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("[{},{},{}]", s[0], s[1], s[2]));
    }
    line.push_str("]}");
    line
}

fn round_trip(st: &mut State, line: &str) -> Result<String, String> {
    let io = |e: std::io::Error| format!("tcp: {e}");
    st.stream.write_all(line.as_bytes()).map_err(io)?;
    st.stream.write_all(b"\n").map_err(io)?;
    st.stream.flush().map_err(io)?;
    let mut resp = String::new();
    st.reader.read_line(&mut resp).map_err(io)?;
    Ok(resp)
}

fn num(v: &JsonValue, obj: &str, key: &str) -> Option<u64> {
    v.get(obj)?.get(key)?.as_u64()
}

/// One answer: the canonical shape, a plan, a fingerprint, a certificate
/// on or above its floors, and from the database exactly when the shape
/// is in it.
fn check_answer(r: &JsonValue, query: &[usize], miss: bool) -> bool {
    let Ok(key) = validate_key(query) else {
        return false;
    };
    let shape_ok = r.get("shape").and_then(JsonValue::as_arr).is_some_and(|a| {
        a.iter()
            .map(JsonValue::as_u64)
            .eq(key.iter().map(|&d| Some(d as u64)))
    });
    let source_ok = match r.get("source").and_then(JsonValue::as_str) {
        Some("db") => !miss,
        Some("live") | Some("overlay") => miss,
        _ => false,
    };
    let plan = r.get("plan").and_then(JsonValue::as_str).unwrap_or("");
    let fp = r
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    let fp_ok = fp.len() == 18 && fp.starts_with("0x");
    // Floors are stated for the minimal cube; a Gray fallback in a
    // larger cube is only bound by the host dimension.
    let cert_dim = num(r, "certificate", "host_dim");
    let at_floor_cube = cert_dim.is_some() && cert_dim == num(r, "floors", "host_dim");
    let above_floors = ["host_dim", "dilation", "congestion"].iter().all(|k| {
        let (c, f) = (num(r, "certificate", k), num(r, "floors", k));
        matches!((c, f), (Some(c), Some(f)) if c >= f || (*k != "host_dim" && !at_floor_cube))
    });
    shape_ok && source_ok && !plan.is_empty() && fp_ok && above_floors
}

/// The sampled answer must equal a fresh `plan_record` of its shape.
fn check_sample(st: &mut State, r: &JsonValue, query: &[usize]) -> bool {
    let Ok(fresh) = plan_record(&mut st.sampler, &st.strategies, query) else {
        return false;
    };
    r.get("plan").and_then(JsonValue::as_str) == Some(fresh.plan_text.as_str())
        && r.get("fingerprint").and_then(JsonValue::as_str)
            == Some(format!("0x{:016x}", fresh.fingerprint).as_str())
        && num(r, "certificate", "host_dim") == Some(u64::from(fresh.cert.host_dim))
        && num(r, "certificate", "dilation") == Some(u64::from(fresh.cert.dilation))
        && num(r, "certificate", "congestion") == Some(u64::from(fresh.cert.congestion))
}

/// The per-shape answers of a `plan` response, each parsed on its own:
/// the workspace parser revalidates the rest of its input at every
/// string character, so one parse of a whole large response would cost
/// far more than the request.
fn split_results(resp: &str) -> Option<Vec<JsonValue>> {
    let body = resp
        .trim()
        .strip_prefix("{\"ok\":true,\"results\":[")?
        .strip_suffix("]}")?;
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(",{\"shape\":")
        .enumerate()
        .map(|(j, part)| {
            let rec = if j == 0 {
                part.to_owned()
            } else {
                format!("{{\"shape\":{part}")
            };
            parse_json(&rec).ok()
        })
        .collect()
}

/// Check a whole response; returns the number of wrong answers.
fn check_response(
    st: &mut State,
    resp: &str,
    (shapes, miss, sample): &Batch,
    led: &mut Ledger,
) -> u64 {
    let results = led.overhead("bench.parse_response", || split_results(resp));
    let results = match results {
        Some(r) if r.len() == shapes.len() => r,
        _ => return shapes.len() as u64,
    };
    let mut wrong: Vec<bool> = led.overhead("bench.check", || {
        results
            .iter()
            .zip(shapes.iter().zip(miss))
            .map(|(r, (q, &m))| !check_answer(r, q, m))
            .collect()
    });
    if !wrong[*sample] {
        wrong[*sample] = !led.overhead("bench.sample", || {
            check_sample(st, &results[*sample], &shapes[*sample])
        });
    }
    if let Some(j) = wrong.iter().position(|&w| w) {
        eprintln!("serve-plan: wrong answer for {:?}", shapes[j]);
    }
    wrong.iter().filter(|&&w| w).count() as u64
}

/// Time one request's layers on the shadows (see [`Shadows`]). The
/// request's round trip `rt` is split into parse, lookups by source,
/// render (`handle_line` minus parse and lookups) and TCP (round trip
/// minus `handle_line`); the shadow calls themselves are overhead.
fn trace_request(sh: &Shadows, line: &str, shapes: &[Vec<usize>], rt: Duration, led: &mut Ledger) {
    let t0 = Instant::now();
    let t = Instant::now();
    drop(black_box(parse_request(line)));
    let parse = t.elapsed();
    led.add("obs.parse_request", Kind::Layer, parse);
    let mut lookups = Duration::ZERO;
    for dims in shapes {
        let t = Instant::now();
        let source = sh.parts.lookup(dims).map(|(_, s)| s);
        let dt = t.elapsed();
        lookups += dt;
        let name = match source {
            Ok(Source::Db) => "service.lookup_db",
            Ok(Source::Overlay) => "service.lookup_overlay",
            Ok(Source::Live) | Err(_) => "service.lookup_live",
        };
        led.add(name, Kind::Layer, dt);
        if matches!(source, Ok(Source::Db)) {
            let t = Instant::now();
            drop(black_box(sh.db.get(dims)));
            led.add("plandb.get", Kind::Detail, t.elapsed());
        }
    }
    let t = Instant::now();
    drop(black_box(handle_line(&sh.whole, line)));
    let handle = t.elapsed();
    led.add("service.handle_line", Kind::Detail, handle);
    led.add(
        "service.render",
        Kind::Layer,
        handle.saturating_sub(parse + lookups),
    );
    led.add("service.tcp", Kind::Layer, rt.saturating_sub(handle));
    // The layers above tile the round trip; the shadow work is extra.
    led.add("probe.shadows", Kind::Overhead, t0.elapsed());
}

impl Workload for ServePlan {
    type State = State;
    const WORK_UNIT: &'static str = "shapes";
    const BLOCK: u64 = 100;
    const REPEAT: u64 = 1;

    fn setup(&self, ctx: &Ctx) -> Result<State, String> {
        // Fresh files per set-up: rewriting one file would make the file
        // system flush the previous database while this one is built.
        static SETUPS: AtomicU64 = AtomicU64::new(0);
        let n = SETUPS.fetch_add(1, Ordering::SeqCst);
        let db_path = ctx.scratch.join(format!("serve-{n}.cmpdb"));
        let overflow = ctx.scratch.join(format!("serve-overflow-{n}.log"));
        build_db(&db_path)?;
        let db_bytes = std::fs::metadata(&db_path).map_or(0, |m| m.len());
        let rss0 = crate::harness::rss_bytes();
        let t = Instant::now();
        let engine = QueryEngine::new(&EngineConfig {
            db: Some(db_path.clone()),
            overflow: Some(overflow.clone()),
        })
        .map_err(|e| format!("open engine: {e}"))?;
        let open_s = t.elapsed().as_secs_f64();
        let open_rss_bytes = crate::harness::rss_bytes().saturating_sub(rss0);
        let db_records = engine.stats().db_records;
        let engine = Arc::new(engine);
        let server = serve(
            &ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 1,
            },
            Arc::clone(&engine),
        )
        .map_err(|e| format!("serve: {e}"))?;
        let stream =
            TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut st = State {
            engine,
            server: Some(server),
            stream,
            reader,
            overflow,
            db_path,
            db_records,
            db_bytes,
            open_s,
            open_rss_bytes,
            sampler: Planner::new(),
            strategies: default_strategies(),
            shadows: None,
        };
        // Warm-up: one answered request over the fresh connection.
        let warm: Batch = (vec![vec![5, 6, 7], vec![160, 3, 160]], vec![false; 2], 0);
        let resp = round_trip(&mut st, &request_line(&warm.0))?;
        if check_response(&mut st, &resp, &warm, &mut Ledger::new(false)) != 0 {
            return Err(format!("warm-up request answered wrongly: {resp}"));
        }
        Ok(st)
    }

    fn prepare_trace(&self, st: &mut State, _ctx: &Ctx) -> Result<(), String> {
        let open = |overflow: Option<PathBuf>| {
            QueryEngine::new(&EngineConfig {
                db: Some(st.db_path.clone()),
                overflow,
            })
            .map_err(|e| format!("open shadow engine: {e}"))
        };
        st.shadows = Some(Shadows {
            parts: open(None)?,
            whole: open(None)?,
            db: PlanDb::open(&st.db_path).map_err(|e| format!("open shadow db: {e}"))?,
        });
        Ok(())
    }

    fn op(&self, st: &mut State, ctx: &Ctx, i: u64, led: &mut Ledger) -> Op {
        let (req, line) = led.overhead("bench.encode", || {
            let req = batch(ctx.seed, i);
            let line = request_line(&req.0);
            (req, line)
        });
        let shapes = &req.0;
        let t = Instant::now();
        let resp = round_trip(st, &line);
        let latency = t.elapsed();
        if led.on() {
            // Only the served engine's work counts in the obs counters.
            cubemesh_obs::set_enabled(false);
            if let Some(sh) = &st.shadows {
                trace_request(sh, &line, shapes, latency, led);
            }
            cubemesh_obs::set_enabled(true);
        }
        let failed = match resp {
            Ok(resp) => check_response(st, &resp, &req, led),
            Err(e) => {
                eprintln!("serve-plan: {e}");
                shapes.len() as u64
            }
        };
        Op {
            latency,
            work: shapes.len() as u64,
            checked: shapes.len() as u64,
            failed,
        }
    }

    fn finish(&self, st: &mut State, _ctx: &Ctx, _led: &mut Ledger, checks: &mut Checks) {
        // Every live answer must reach the overflow log.
        st.engine.flush_overflow();
        let stats = st.engine.stats();
        let logged = load_checkpoint(&st.overflow).map_or(usize::MAX, |r| r.len());
        checks.record(
            logged as u64 == stats.live_plans,
            &format!(
                "overflow log holds {logged} records for {} live answers",
                stats.live_plans
            ),
        );
        checks.record(stats.errors == 0, "engine counted lookup errors");
    }

    fn layer_metrics(&self, st: &State, p: &TracedPass) -> Vec<Metric> {
        let db = p.counter("service.lookup.db") as f64;
        let overlay = p.counter("service.lookup.overlay") as f64;
        let live = p.counter("service.lookup.live") as f64;
        let per_req = |name: &str| 1e6 * p.ledger.secs(name) / p.ops.max(1) as f64;
        vec![
            (
                "obs.parse_request_us",
                p.us_per_call("obs.parse_request"),
                "us",
            ),
            ("plandb.get_us", p.us_per_call("plandb.get"), "us"),
            (
                "service.lookup_db_us",
                p.us_per_call("service.lookup_db"),
                "us",
            ),
            (
                "service.lookup_overlay_us",
                p.us_per_call("service.lookup_overlay"),
                "us",
            ),
            (
                "service.lookup_live_us",
                p.us_per_call("service.lookup_live"),
                "us",
            ),
            ("service.render_us", per_req("service.render"), "us"),
            ("service.tcp_us", per_req("service.tcp"), "us"),
            (
                "service.handle_line_us",
                per_req("service.handle_line"),
                "us",
            ),
            ("service.lookup.db", db, "count"),
            ("service.lookup.overlay", overlay, "count"),
            ("service.lookup.live", live, "count"),
            (
                "service.hit_ratio",
                (db + overlay) / (db + overlay + live).max(1.0),
                "ratio",
            ),
            ("service.lookups", db + overlay + live, "count"),
            ("plandb.open_s", st.open_s, "s"),
            (
                "plandb.rss_bytes_per_record",
                st.open_rss_bytes as f64 / st.db_records.max(1) as f64,
                "B",
            ),
            (
                "plandb.db_bytes_per_record",
                st.db_bytes as f64 / st.db_records.max(1) as f64,
                "B",
            ),
            ("plandb.records", st.db_records as f64, "count"),
        ]
    }

    fn context(&self, st: &State) -> Vec<(&'static str, String)> {
        let l3 = crate::harness::l3_bytes();
        vec![
            ("db_max_axis", DB_MAX_AXIS.to_string()),
            ("db_records", st.db_records.to_string()),
            ("db_bytes", st.db_bytes.to_string()),
            (
                "db_bytes_over_l3",
                format!("{:.3}", st.db_bytes as f64 / l3.max(1) as f64),
            ),
            ("server_workers", "1".to_owned()),
            ("clients", "1".to_owned()),
        ]
    }
}
