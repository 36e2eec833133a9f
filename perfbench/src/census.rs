//! `census-build`: the `cubemesh-serve build` path — `plandb::build` of
//! the census universe into a file, then `PlanDb::open` — checked by
//! record counts and a seeded sample compared with a fresh
//! `plan_record`.
//!
//! `build` is one library call, so the traced pass times a mirror of it
//! assembled from the same public pieces (strategies, certify, floors,
//! fingerprint, `db_bytes`), and checks that the mirror writes the very
//! bytes `build` wrote.

use crate::harness::{Checks, Ctx, Kind, Ledger, Metric, Op, Rng, TracedPass, Workload};
use cubemesh_audit::{check_plan, fingerprint, mesh_floors};
use cubemesh_core::{default_strategies, plan_with_strategies, Plan, PlanStrategy, Planner};
use cubemesh_plandb::format::db_bytes;
use cubemesh_plandb::{
    build, enumerate_keys, plan_record, validate_key, BuildConfig, CertSummary, FloorSummary,
    PlanDb, PlanRecord, RecordStatus,
};
use cubemesh_topology::Shape;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Largest axis of the built universe.
pub const MAX_AXIS: usize = 48;
/// Records compared with a fresh `plan_record` after every build.
const SAMPLE: u64 = 8;
/// `BuildConfig::new`'s chunk and `plandb::build`'s block sizes, which
/// the traced mirror reproduces.
const CHUNK_SHAPES: usize = 512;
const BLOCK_SHAPES: usize = 32;
const SALT: u64 = 0xCE4505;

pub struct CensusBuild;

pub struct State {
    keys: Vec<Vec<usize>>,
    scratch: PathBuf,
    rss_before_trace: u64,
    db_bytes: u64,
}

impl State {
    /// Every build writes a new file, as a user building a fresh
    /// database does; overwriting one file instead would make the file
    /// system flush the previous build's pages during the next.
    fn db_path(&self, name: &str, i: u64) -> PathBuf {
        self.scratch.join(format!("census-{name}-{i}.cmpdb"))
    }
}

fn real_build(path: &Path) -> Result<usize, String> {
    let r = build(&BuildConfig::new(MAX_AXIS), path).map_err(|e| format!("build: {e}"))?;
    if r.certified + r.uncovered == r.shapes && r.resumed == 0 {
        Ok(r.shapes)
    } else {
        Err(format!("inconsistent build report {r:?}"))
    }
}

impl Workload for CensusBuild {
    type State = State;
    const WORK_UNIT: &'static str = "records";
    const BLOCK: u64 = 10;
    const REPEAT: u64 = 2;

    fn setup(&self, ctx: &Ctx) -> Result<State, String> {
        let st = State {
            keys: enumerate_keys(MAX_AXIS),
            scratch: ctx.scratch.clone(),
            rss_before_trace: 0,
            db_bytes: 0,
        };
        // Warm-up: one full build starts the pool and warms the
        // allocator.
        let warm = st.db_path("warm", 0);
        real_build(&warm)?;
        PlanDb::open(&warm).map_err(|e| format!("warm-up open: {e}"))?;
        let _ = std::fs::remove_file(&warm);
        Ok(st)
    }

    fn prepare_trace(&self, st: &mut State, _ctx: &Ctx) -> Result<(), String> {
        st.rss_before_trace = crate::harness::rss_bytes();
        Ok(())
    }

    fn op(&self, st: &mut State, ctx: &Ctx, i: u64, led: &mut Ledger) -> Op {
        let path = st.db_path("op", i);
        let t = Instant::now();
        let built = if led.on() {
            mirror_build(&path, led)
        } else {
            real_build(&path)
        }
        .and_then(|n| {
            let db = led.time("plandb.open", || PlanDb::open(&path));
            db.map(|db| (n, db)).map_err(|e| format!("open: {e}"))
        });
        let latency = t.elapsed();
        let mut failed = 0;
        let mut checked = 1;
        match built {
            Ok((n, db)) => {
                st.db_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                if n != st.keys.len() || db.len() != st.keys.len() {
                    eprintln!(
                        "census-build: {n} built, {} opened, {} expected",
                        db.len(),
                        st.keys.len()
                    );
                    failed += 1;
                }
                led.overhead("bench.check", || {
                    for s in 0..SAMPLE {
                        checked += 1;
                        if let Err(e) = check_sample(&db, &st.keys, ctx.seed, i * SAMPLE + s) {
                            eprintln!("census-build: {e}");
                            failed += 1;
                        }
                    }
                });
                led.overhead("bench.close", || drop(db));
            }
            Err(e) => {
                eprintln!("census-build: {e}");
                failed += 1;
            }
        }
        led.overhead("bench.close", || std::fs::remove_file(&path).ok());
        Op {
            latency,
            work: st.keys.len() as u64,
            checked,
            failed,
        }
    }

    fn finish(&self, st: &mut State, _ctx: &Ctx, led: &mut Ledger, checks: &mut Checks) {
        if !led.on() {
            return;
        }
        // The traced pass timed the mirror; it must write the very bytes
        // `plandb::build` writes.
        let (real, mirror) = (st.db_path("real", 0), st.db_path("mirror", 0));
        let same = real_build(&real).is_ok()
            && mirror_build(&mirror, &mut Ledger::new(false)).is_ok()
            && std::fs::read(&real).ok() == std::fs::read(&mirror).ok();
        checks.record(same, "traced mirror build differs from plandb::build");
        let _ = std::fs::remove_file(&real);
        let _ = std::fs::remove_file(&mirror);
    }

    fn layer_metrics(&self, st: &State, p: &TracedPass) -> Vec<Metric> {
        let l = p.ledger;
        let region = l.secs("plandb.plan_region");
        let thread_time: f64 = REGION_LAYERS.iter().map(|n| l.secs(n)).sum();
        let hits = p.counter("planner.memo.hit") as f64;
        let misses = p.counter("planner.memo.miss") as f64;
        let records = (st.keys.len() as u64 * p.ops.max(1)) as f64;
        let peak_growth = crate::harness::peak_rss_bytes().saturating_sub(st.rss_before_trace);
        vec![
            ("core.strategy_ms", p.ms_per_op("core.strategy"), "ms"),
            ("audit.check_plan_ms", p.ms_per_op("audit.check_plan"), "ms"),
            (
                "audit.mesh_floors_ms",
                p.ms_per_op("audit.mesh_floors"),
                "ms",
            ),
            (
                "audit.fingerprint_ms",
                p.ms_per_op("audit.fingerprint"),
                "ms",
            ),
            ("core.plan_text_ms", p.ms_per_op("core.plan_text"), "ms"),
            (
                "plandb.plan_region_ms",
                p.ms_per_op("plandb.plan_region"),
                "ms",
            ),
            ("plandb.assemble_ms", p.ms_per_op("plandb.assemble"), "ms"),
            ("plandb.encode_ms", p.ms_per_op("plandb.encode"), "ms"),
            ("plandb.write_ms", p.ms_per_op("plandb.write"), "ms"),
            ("plandb.open_ms", p.ms_per_op("plandb.open"), "ms"),
            ("plandb.free_ms", p.ms_per_op("plandb.free"), "ms"),
            (
                "core.planner_memo_hit_ratio",
                hits / (hits + misses).max(1.0),
                "ratio",
            ),
            (
                "build.parallel_speedup",
                thread_time / region.max(1e-9),
                "ratio",
            ),
            (
                "plandb.rss_bytes_per_record",
                peak_growth as f64 / st.keys.len() as f64,
                "B",
            ),
            (
                "plandb.db_bytes_per_record",
                st.db_bytes as f64 / st.keys.len() as f64,
                "B",
            ),
            ("plandb.records", records / p.ops.max(1) as f64, "count"),
        ]
    }

    fn context(&self, st: &State) -> Vec<(&'static str, String)> {
        vec![
            ("db_max_axis", MAX_AXIS.to_string()),
            ("db_records", st.keys.len().to_string()),
            ("db_bytes", st.db_bytes.to_string()),
            (
                "db_bytes_over_l3",
                format!(
                    "{:.3}",
                    st.db_bytes as f64 / crate::harness::l3_bytes().max(1) as f64
                ),
            ),
        ]
    }
}

/// Per-thread layers inside the parallel planning region.
const REGION_LAYERS: [&str; 6] = [
    "plandb.validate_key",
    "audit.mesh_floors",
    "core.strategy",
    "audit.check_plan",
    "core.plan_text",
    "audit.fingerprint",
];

/// A served record of a seeded key, looked up in axis order scrambled,
/// must equal a fresh `plan_record` and sit on or above its floors.
fn check_sample(db: &PlanDb, keys: &[Vec<usize>], seed: u64, n: u64) -> Result<(), String> {
    let mut rng = Rng::stream(seed, SALT, n);
    let key = &keys[rng.range(0, keys.len() as u64 - 1) as usize];
    let mut query = key.clone();
    rng.shuffle(&mut query);
    let stored = db
        .get(&query)
        .map_err(|e| format!("get {query:?}: {e}"))?
        .ok_or_else(|| format!("{query:?} missing from the database"))?;
    let fresh = plan_record(&mut Planner::new(), &default_strategies(), &query)
        .map_err(|e| format!("plan_record {query:?}: {e}"))?;
    if stored != fresh {
        return Err(format!("{query:?}: stored {stored:?} != fresh {fresh:?}"));
    }
    let c = &stored.cert;
    let f = &stored.floors;
    // Floors are stated for the minimal cube; a Gray fallback in a
    // larger cube is only bound by the host dimension.
    let at_floor_cube = c.host_dim == f.host_dim;
    if c.host_dim < f.host_dim
        || (at_floor_cube && (c.dilation < f.dilation || c.congestion < f.congestion))
    {
        return Err(format!("{query:?}: certificate {c:?} below floors {f:?}"));
    }
    Ok(())
}

type Strategies = [Box<dyn PlanStrategy + Send + Sync>];

/// `plan_record` from its public parts, each timed.
fn mirror_record(
    planner: &mut Planner,
    strategies: &Strategies,
    dims: &[usize],
    led: &mut Ledger,
) -> Result<PlanRecord, String> {
    let key = led
        .time("plandb.validate_key", || validate_key(dims))
        .map_err(|e| e.to_string())?;
    let shape = Shape::new(&key);
    let floors_at = shape.minimal_cube_dim();
    let floors = led.time("audit.mesh_floors", || mesh_floors(&shape, floors_at));
    let hit = led.time("core.strategy", || {
        plan_with_strategies(planner, &shape, strategies)
    });
    let (status, strategy, confidence, plan) = match hit {
        Some(hit) => (
            RecordStatus::Certified,
            hit.strategy.to_owned(),
            hit.confidence,
            hit.plan,
        ),
        None => (
            RecordStatus::NoDilation2Plan,
            "gray-fallback".to_owned(),
            0,
            Plan::Gray,
        ),
    };
    let cert = led
        .time("audit.check_plan", || check_plan(&shape, &plan))
        .map_err(|e| format!("{shape}: {e}"))?;
    let plan_text = led.time("core.plan_text", || plan.to_canonical_string());
    let fp = led.time("audit.fingerprint", || fingerprint(&plan));
    Ok(PlanRecord {
        key,
        status,
        strategy,
        confidence,
        plan_text,
        fingerprint: fp,
        cert: CertSummary {
            host_dim: cert.host_dim,
            dilation: cert.dilation_bound,
            congestion: cert.congestion_bound,
            load: cert.load_factor,
            expansion: cert.expansion,
            minimal: cert.minimal,
        },
        floors: FloorSummary {
            host_dim: floors.host_dim,
            dilation: floors.dilation,
            congestion: floors.congestion,
            load: floors.load,
        },
    })
}

/// `plandb::build` (no checkpoint) from its public parts: the same
/// chunks, blocks, per-block planners and record order, each layer
/// timed. Returns the record count.
fn mirror_build(out: &Path, led: &mut Ledger) -> Result<usize, String> {
    let keys = led.time("plandb.enumerate", || enumerate_keys(MAX_AXIS));
    let mut done: HashMap<Vec<usize>, PlanRecord> = HashMap::new();
    let mut region = Duration::ZERO;
    for chunk in keys.chunks(CHUNK_SHAPES) {
        let blocks: Vec<&[Vec<usize>]> = chunk.chunks(BLOCK_SHAPES).collect();
        let t = Instant::now();
        let results = cubemesh_pool::run_tasks(blocks.len(), |b| {
            let mut task = Ledger::new(true);
            let mut planner = Planner::new();
            let strategies = default_strategies();
            let records: Result<Vec<PlanRecord>, String> = blocks[b]
                .iter()
                .map(|key| mirror_record(&mut planner, &strategies, key, &mut task))
                .collect();
            (records, task)
        });
        region += t.elapsed();
        for (records, task) in results {
            led.merge(&task, Kind::Detail);
            led.time("plandb.assemble", || {
                records.map(|rs| {
                    for rec in rs {
                        done.insert(rec.key.clone(), rec);
                    }
                })
            })?;
        }
    }
    led.add("plandb.plan_region", Kind::Layer, region);
    let records = led.time("plandb.assemble", || {
        keys.iter()
            .map(|k| done.remove(k).ok_or_else(|| format!("no record for {k:?}")))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let bytes = led
        .time("plandb.encode", || db_bytes(MAX_AXIS as u32, &records))
        .map_err(|e| e.to_string())?;
    led.time("plandb.write", || std::fs::write(out, &bytes))
        .map_err(|e| e.to_string())?;
    let n = records.len();
    led.time("plandb.free", || drop((keys, done, records, bytes)));
    Ok(n)
}
