//! The workload-independent part of the benchmark: options, seeded
//! inputs, the layer ledger, the timed closed loop, run context and the
//! result line.

use cubemesh_obs as obs;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed used while writing and tuning the benchmark.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning: a claimed gain must also hold on it
/// (`--seed held-out`).
pub const HELD_OUT_SEED: u64 = 0x5eed_0b5e;

/// How many times a run performs its set-up; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` the traced run spends on its untraced reference
/// pass (the rest goes to the traced pass over as many operations).
const TRACE_REFERENCE_SHARE: f64 = 1.0 / 3.0;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => opts.workload = value.to_owned(),
                "--seed" => {
                    opts.seed = match value {
                        "default" => DEFAULT_SEED,
                        "held-out" => HELD_OUT_SEED,
                        n => n.parse().map_err(|_| format!("bad --seed {n:?}"))?,
                    }
                }
                "--seconds" => {
                    opts.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?
                }
                "--trace" => {
                    opts.trace = match value {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("bad --trace {other:?}")),
                    }
                }
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        if opts.workload.is_empty() {
            return Err("--workload is required".to_owned());
        }
        Ok(opts)
    }
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for input `i` of stream family `salt`.
    pub fn stream(seed: u64, salt: u64, i: u64) -> Rng {
        let mut r = Rng::new(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.0 ^= i.wrapping_mul(0xA076_1D64_78BD_642F);
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
    }
}

/// The stratum of operation `i`: operations come in blocks
/// of `strata`, and every block visits each stratum once in a seeded
/// order. Any prefix of the operation sequence is then balanced across
/// strata, which keeps run-to-run and seed-to-seed spread low.
pub fn stratum(seed: u64, salt: u64, i: u64, strata: u64) -> u64 {
    let block = i / strata;
    let mut order: Vec<u64> = (0..strata).collect();
    Rng::stream(seed, salt, block).shuffle(&mut order);
    order[(i % strata) as usize]
}

/// What a layer timer measured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A layer of the program on the measured path. Layer entries and
    /// overhead entries together tile the traced pass's wall time.
    Layer,
    /// Work the benchmark adds: input generation, answer checks, and the
    /// probe calls that split a layer into its parts.
    Overhead,
    /// A breakdown of time already counted in a layer entry (a part of
    /// a layer, or per-thread time inside a parallel region).
    Detail,
}

/// Accumulated layer timers. Off (the untraced case), `time` runs its
/// closure with no clock reads at all.
#[derive(Default)]
pub struct Ledger {
    on: bool,
    entries: BTreeMap<&'static str, (Kind, Duration, u64)>,
}

impl Ledger {
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            entries: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_kind(name, Kind::Layer, f)
    }

    pub fn overhead<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_kind(name, Kind::Overhead, f)
    }

    fn time_kind<R>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.add(name, kind, t.elapsed());
        r
    }

    pub fn add(&mut self, name: &'static str, kind: Kind, d: Duration) {
        if !self.on {
            return;
        }
        let e = self
            .entries
            .entry(name)
            .or_insert((kind, Duration::ZERO, 0));
        e.1 += d;
        e.2 += 1;
    }

    /// Fold another ledger's entries in (per-task ledgers of a parallel
    /// region), under `kind`.
    pub fn merge(&mut self, other: &Ledger, kind: Kind) {
        for (&name, &(_, d, n)) in &other.entries {
            let e = self
                .entries
                .entry(name)
                .or_insert((kind, Duration::ZERO, 0));
            e.1 += d;
            e.2 += n;
        }
    }

    pub fn secs(&self, name: &str) -> f64 {
        self.entries.get(name).map_or(0.0, |e| e.1.as_secs_f64())
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.entries.get(name).map_or(0, |e| e.2)
    }

    fn total(&self, kind: Kind) -> f64 {
        self.entries
            .values()
            .filter(|e| e.0 == kind)
            .map(|e| e.1.as_secs_f64())
            .sum()
    }
}

/// One timed operation's outcome.
pub struct Op {
    /// The operation's latency as its user sees it.
    pub latency: Duration,
    /// Work units completed (nodes, shapes, records or events).
    pub work: u64,
    /// Answers checked, and how many of them were wrong.
    pub checked: u64,
    pub failed: u64,
}

/// Answers checked outside the timed operations (after the loop).
#[derive(Default)]
pub struct Checks {
    pub checked: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ok: bool, what: &str) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Per-run facts a workload passes to its set-up.
pub struct Ctx {
    pub seed: u64,
    pub scratch: PathBuf,
}

/// Context of the traced pass, for per-layer metrics.
pub struct TracedPass<'a> {
    pub ledger: &'a Ledger,
    pub ops: u64,
    pub counters: &'a BTreeMap<String, u64>,
    /// Timers recorded by `finish` after the traced pass.
    pub finish: &'a Ledger,
}

impl TracedPass<'_> {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mean seconds per operation spent in `name`, in milliseconds.
    pub fn ms_per_op(&self, name: &str) -> f64 {
        1e3 * self.ledger.secs(name) / self.ops.max(1) as f64
    }

    /// Mean seconds per call of `name`, in microseconds.
    pub fn us_per_call(&self, name: &str) -> f64 {
        1e6 * self.ledger.secs(name) / self.ledger.calls(name).max(1) as f64
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// A benchmark workload. Operation `i` draws its inputs from the seed
/// and `i` alone.
pub trait Workload {
    type State;
    /// What the unit of `work` is, for the log.
    const WORK_UNIT: &'static str;
    /// Operations per throughput block: `work_per_s` is the median over
    /// blocks of consecutive operations, so a burst of interference
    /// spoils a block, not the run. A block covers every input stratum
    /// once.
    const BLOCK: u64;
    /// Times each end-to-end operation runs back to back; its latency is
    /// the fastest. Repeating a deterministic operation filters out
    /// interference from other tenants of a shared host. Operations that
    /// change the system's state (a live miss fills the overlay) run once.
    const REPEAT: u64;
    /// Everything before the first timed operation.
    fn setup(&self, ctx: &Ctx) -> Result<Self::State, String>;
    /// Run once between the untraced reference pass and the traced pass.
    fn prepare_trace(&self, _st: &mut Self::State, _ctx: &Ctx) -> Result<(), String> {
        Ok(())
    }
    /// Operation `i`, its layer calls timed into `led` when tracing.
    fn op(&self, st: &mut Self::State, ctx: &Ctx, i: u64, led: &mut Ledger) -> Op;
    /// Checks after the timed loop.
    fn finish(&self, st: &mut Self::State, ctx: &Ctx, led: &mut Ledger, checks: &mut Checks);
    /// The workload's per-layer metrics, from its traced pass.
    fn layer_metrics(&self, st: &Self::State, pass: &TracedPass) -> Vec<Metric>;
    /// Run facts worth recording with the result (sizes, ratios to L3).
    fn context(&self, _st: &Self::State) -> Vec<(&'static str, String)> {
        Vec::new()
    }
}

/// The outcome of one benchmark run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub context: Vec<(&'static str, String)>,
}

struct Loop {
    ops: u64,
    work: u64,
    /// Per operation: its latency (seconds) and work.
    samples: Vec<(f64, u64)>,
    wall: f64,
    checked: u64,
    failed: u64,
}

/// Run operations `first..` until `limit`, each `repeat` times.
fn run_loop<W: Workload>(
    w: &W,
    st: &mut W::State,
    ctx: &Ctx,
    first: u64,
    limit: Limit,
    repeat: u64,
    led: &mut Ledger,
) -> Loop {
    let start = Instant::now();
    let mut l = Loop {
        ops: 0,
        work: 0,
        samples: Vec::new(),
        wall: 0.0,
        checked: 0,
        failed: 0,
    };
    loop {
        let more = match limit {
            Limit::Seconds(s) => start.elapsed().as_secs_f64() < s,
            Limit::Ops(n) => l.ops < n,
        };
        if !more {
            break;
        }
        let mut latency = f64::INFINITY;
        let mut work = 0;
        for _ in 0..repeat {
            let op = w.op(st, ctx, first + l.ops, led);
            latency = latency.min(op.latency.as_secs_f64());
            work = op.work;
            l.checked += op.checked;
            l.failed += op.failed;
        }
        l.ops += 1;
        l.work += work;
        l.samples.push((latency, work));
    }
    l.wall = start.elapsed().as_secs_f64();
    l
}

#[derive(Clone, Copy)]
enum Limit {
    Seconds(f64),
    Ops(u64),
}

/// Nearest-rank percentile of `v` (sorted in place).
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Run a workload: set up (repeatedly), then either the untraced timed
/// loop (end-to-end metrics) or the traced run (per-layer metrics).
pub fn run<W: Workload>(w: &W, opts: &Opts, scratch: &Path) -> Result<Outcome, String> {
    let ctx = Ctx {
        seed: opts.seed,
        scratch: scratch.to_path_buf(),
    };
    let reference_ms = reference_kernel_ms();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(w.setup(&ctx)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut st = state.ok_or("no set-up ran")?;
    let setup_s = median(&mut setups);

    let mut off = Ledger::new(false);
    let mut checks = Checks::default();
    let metrics = if !opts.trace {
        let limit = Limit::Seconds(opts.seconds);
        let l = run_loop(w, &mut st, &ctx, 0, limit, W::REPEAT, &mut off);
        // Peak memory of set-up and the timed operations, before the
        // after-loop checks allocate their own.
        let peak_rss = peak_rss_bytes();
        w.finish(&mut st, &ctx, &mut off, &mut checks);
        checks.checked += l.checked;
        checks.failed += l.failed;
        let mut rates: Vec<f64> = l
            .samples
            .chunks(W::BLOCK as usize)
            .filter(|b| b.len() as u64 == W::BLOCK || l.ops < W::BLOCK)
            .map(|b| {
                let (t, n) = b.iter().fold((0.0, 0), |(t, n), s| (t + s.0, n + s.1));
                n as f64 / t
            })
            .collect();
        let work_per_s = median(&mut rates);
        let mut latencies: Vec<f64> = l.samples.iter().map(|s| s.0).collect();
        let busy: f64 = latencies.iter().sum();
        let p50 = percentile(&mut latencies, 50.0);
        let p90 = percentile(&mut latencies, 90.0);
        eprintln!(
            "{}: {} ops, {} {} in {:.3} s busy ({:.3} s wall); p50 {:.3} ms, p90 {:.3} ms \
             ({} samples beyond p90)",
            opts.workload,
            l.ops,
            l.work,
            W::WORK_UNIT,
            busy,
            l.wall,
            1e3 * p50,
            1e3 * p90,
            l.ops - (0.9 * l.ops as f64).ceil() as u64,
        );
        vec![
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss as f64 / (1u64 << 20) as f64, "MiB"),
            ("work_per_s", work_per_s, "1/s"),
            ("op_p50_ms", 1e3 * p50, "ms"),
            ("op_p90_ms", 1e3 * p90, "ms"),
        ]
    } else {
        // Untraced reference pass, then as many operations traced: the
        // same ones when operations can run twice, fresh ones otherwise
        // (a repeated live miss would be an overlay hit). Their wall per
        // work unit gives the overhead.
        let reference = run_loop(
            w,
            &mut st,
            &ctx,
            0,
            Limit::Seconds(opts.seconds * TRACE_REFERENCE_SHARE),
            1,
            &mut off,
        );
        w.prepare_trace(&mut st, &ctx)?;
        let mut led = Ledger::new(true);
        obs::set_enabled(true);
        let before = obs::snapshot();
        let traced = run_loop(
            w,
            &mut st,
            &ctx,
            if W::REPEAT > 1 { 0 } else { reference.ops },
            Limit::Ops(reference.ops),
            1,
            &mut led,
        );
        let after = obs::snapshot();
        obs::set_enabled(false);
        let counters = counter_deltas(&before, &after);
        checks.checked += reference.checked + traced.checked;
        checks.failed += reference.failed + traced.failed;
        let mut fin = Ledger::new(true);
        w.finish(&mut st, &ctx, &mut fin, &mut checks);
        let pass = TracedPass {
            ledger: &led,
            ops: traced.ops,
            counters: &counters,
            finish: &fin,
        };
        let mut metrics = w.layer_metrics(&st, &pass);
        let layers = led.total(Kind::Layer);
        let overhead = led.total(Kind::Overhead);
        let remainder = traced.wall - layers - overhead;
        print_sum_check(&opts.workload, &led, traced.wall, remainder);
        let per_unit = |l: &Loop| l.wall / l.work.max(1) as f64;
        metrics.push((
            "unattributed_share",
            remainder / traced.wall.max(1e-9),
            "ratio",
        ));
        metrics.push((
            "trace_overhead_ratio",
            per_unit(&traced) / per_unit(&reference).max(1e-12),
            "ratio",
        ));
        metrics.push((
            "error_rate",
            checks.failed as f64 / checks.checked.max(1) as f64,
            "ratio",
        ));
        metrics
    };
    let mut context = w.context(&st);
    context.push(("host_reference_ms", format!("{reference_ms:.4}")));
    drop(st);
    Ok(Outcome {
        correct: checks.failed == 0 && checks.checked > 0,
        attempted: checks.checked.max(1),
        failed: checks.failed,
        metrics,
        context,
    })
}

fn counter_deltas(before: &obs::Snapshot, after: &obs::Snapshot) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for name in [
        "pool.regions",
        "pool.tasks",
        "pool.steals",
        "planner.memo.hit",
        "planner.memo.miss",
        "service.lookup.db",
        "service.lookup.overlay",
        "service.lookup.live",
        "plandb.get.hit",
        "replay.messages",
    ] {
        let b = before.counter(name).unwrap_or(0);
        let a = after.counter(name).unwrap_or(0);
        out.insert(name.to_owned(), a.saturating_sub(b));
    }
    out
}

/// Show that the traced pass's wall time is the sum of its layer
/// timers, the benchmark's own overhead, and the unattributed remainder.
fn print_sum_check(workload: &str, led: &Ledger, wall: f64, remainder: f64) {
    let mut s = String::new();
    let _ = writeln!(s, "{workload}: traced pass wall {:.6} s =", wall);
    for kind in [Kind::Layer, Kind::Overhead] {
        for (name, e) in led.entries.iter().filter(|(_, e)| e.0 == kind) {
            let secs = e.1.as_secs_f64();
            let _ = writeln!(
                s,
                "  {:<8} {:<28} {:>12.6} s {:>6.2} %",
                if kind == Kind::Layer {
                    "layer"
                } else {
                    "overhead"
                },
                name,
                secs,
                100.0 * secs / wall
            );
        }
    }
    let _ = writeln!(
        s,
        "  {:<8} {:<28} {:>12.6} s {:>6.2} %",
        "",
        "unattributed remainder",
        remainder,
        100.0 * remainder / wall
    );
    for (name, e) in led.entries.iter().filter(|(_, e)| e.0 == Kind::Detail) {
        let _ = writeln!(s, "  (detail) {:<26} {:>12.6} s", name, e.1.as_secs_f64());
    }
    eprint!("{s}");
}

/// Median time of a fixed single-threaded integer kernel, recorded with
/// every result: a host (or a moment) that runs it slower will run the
/// workloads slower too.
fn reference_kernel_ms() -> f64 {
    let mut times: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let mut r = Rng::new(7);
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(r.next() >> 60);
            }
            std::hint::black_box(acc);
            1e3 * t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_bytes() -> u64 {
    proc_status_kb("VmHWM:") * 1024
}

/// Current resident set of this process.
pub fn rss_bytes() -> u64 {
    proc_status_kb("VmRSS:") * 1024
}

fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Size of the last-level cache, from sysfs (0 when unknown).
pub fn l3_bytes() -> u64 {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best = (0u32, 0u64);
    for i in 0..8 {
        let idx = dir.join(format!("index{i}"));
        let level = std::fs::read_to_string(idx.join("level"))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        let size = std::fs::read_to_string(idx.join("size"))
            .ok()
            .and_then(|s| parse_cache_size(s.trim()));
        if let (Some(level), Some(size)) = (level, size) {
            if level >= best.0 {
                best = (level, size);
            }
        }
    }
    best.1
}

fn parse_cache_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// The run context recorded with every result, so results from
/// different hosts or executors are not compared by mistake.
pub fn host_context(opts: &Opts) -> Vec<(&'static str, String)> {
    vec![
        ("workload", format!("\"{}\"", opts.workload)),
        ("seed", opts.seed.to_string()),
        ("traced", opts.trace.to_string()),
        ("threads", cubemesh_pool::effective_threads().to_string()),
        (
            "host_cores",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "pool_backend",
            format!("\"{}\"", cubemesh_pool::backend_name()),
        ),
        ("l3_bytes", l3_bytes().to_string()),
        (
            "stats_in_end_to_end",
            format!("\"{}\"", if opts.trace { "n/a" } else { "off" }),
        ),
    ]
}
