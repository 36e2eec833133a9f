//! The replay engine: drive a trace through an embedding and report
//! windowed queueing transients.
//!
//! Windowing rules (also documented in DESIGN.md §7):
//!
//! * time is split into fixed windows `w = [w·W, (w+1)·W)` of `W` cycles;
//! * **injections** (message and flit counts, and the per-link load used
//!   by the certificate-slack join) are attributed to the window of the
//!   message's *injection* cycle — so a window's offered load is closed
//!   the moment the window ends, whatever the network later does with it;
//! * **deliveries, latencies and queue depths** are attributed to the
//!   window of the cycle they *happen* in — so transients show up where
//!   they occur, not where they were caused;
//! * **link occupancy** spreads each link reservation `[begin, end)` over
//!   the windows it overlaps.
//!
//! Warm-up detection is a deterministic MSER-style rule: the warm-up
//! boundary is the window index `w*` (at most half the run) that
//! minimizes the standard error of the per-window mean latencies from
//! `w*` to the end — the classical "minimum standard error rule" for
//! truncating initialization bias in discrete-event series.

use crate::trace::{Trace, TraceError};
use cubemesh_embedding::Embedding;
use cubemesh_netsim::{simulate_trace, Message, SimError, SimObserver, SimResult, Switching};
use cubemesh_obs as obs;
use std::collections::HashMap;
use std::fmt;

/// Replay parameters.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Switching discipline for the underlying DES.
    pub switching: Switching,
    /// Window size in cycles; `0` picks `max(1, horizon / 32)`.
    pub window: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            switching: Switching::StoreAndForward,
            window: 0,
        }
    }
}

/// Most windows a replay reports. The window axis runs dense from 0 to
/// the makespan, at ~150 B per window between the observer and the
/// report: `cubemesh replay 2 2 --phases 2 --period 1048500 --window 1`
/// (1,048,509 windows) peaks at 155 MiB, 262 MiB with `--json` (x86-64
/// release build). [`replay`] refuses a trace whose horizon alone spans
/// more windows before simulating it, and a run whose drain carries the
/// makespan past them once it ends; in between the observer drops what
/// falls beyond the last window.
pub const MAX_REPLAY_WINDOWS: u64 = 1 << 20;

/// Why a replay failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayError {
    /// The trace does not resolve against the embedding.
    Trace(TraceError),
    /// The simulator rejected the injection stream.
    Sim(SimError),
    /// The run spans more than [`MAX_REPLAY_WINDOWS`] windows.
    TooManyWindows {
        /// The window size in cycles.
        window: u64,
        /// Cycles the window axis would have to cover.
        cycles: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "{e}"),
            ReplayError::Sim(e) => write!(f, "{e}"),
            ReplayError::TooManyWindows { window, cycles } => write!(
                f,
                "{cycles} cycles in windows of {window} need more than \
                 {MAX_REPLAY_WINDOWS} windows"
            ),
        }
    }
}

/// The windows of `window` cycles that cover cycles `0..cycles`
/// (at least one), or the error when they are more than
/// [`MAX_REPLAY_WINDOWS`].
pub fn replay_windows(cycles: u64, window: u64) -> Result<u64, ReplayError> {
    let windows = cycles.saturating_sub(1) / window.max(1) + 1;
    if windows > MAX_REPLAY_WINDOWS {
        return Err(ReplayError::TooManyWindows { window, cycles });
    }
    Ok(windows)
}

impl std::error::Error for ReplayError {}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

impl From<SimError> for ReplayError {
    fn from(e: SimError) -> Self {
        ReplayError::Sim(e)
    }
}

/// Per-window transient statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Window index (covers cycles `[index·W, (index+1)·W)`).
    pub index: u64,
    /// Messages injected in this window.
    pub injected: u64,
    /// Flits injected in this window.
    pub injected_flits: u64,
    /// Messages delivered in this window.
    pub delivered: u64,
    /// Flits delivered in this window.
    pub delivered_flits: u64,
    /// Median latency of the messages delivered in this window.
    pub p50_latency: u64,
    /// 99th-percentile latency of the messages delivered in this window.
    pub p99_latency: u64,
    /// Worst latency of the messages delivered in this window.
    pub max_latency: u64,
    /// Deepest link queue observed during this window.
    pub max_queue_depth: u64,
    /// Link-cycles of transmission that fell inside this window.
    pub busy_cycles: u64,
    /// `busy_cycles / (directed links · W)` — mean link utilization.
    pub occupancy: f64,
}

/// Everything one replay run measured.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Aggregate results of the underlying simulation.
    pub result: SimResult,
    /// Window size in cycles.
    pub window: u64,
    /// Per-window trajectories, dense from window 0 to the makespan.
    pub windows: Vec<WindowStats>,
    /// Windows `0..warmup_windows` are initialization transient under the
    /// MSER rule; steady-state summaries should skip them.
    pub warmup_windows: usize,
    /// One cycle past the last injection.
    pub horizon: u64,
    /// Total flits offered (injected).
    pub offered_flits: u64,
    /// Total flits delivered (equals offered at completion; kept separate
    /// so partial accounting bugs are visible).
    pub delivered_flits: u64,
    /// Flits delivered no later than the injection horizon.
    pub delivered_by_horizon_flits: u64,
    /// `offered_flits / horizon` — offered throughput in flits/cycle.
    pub offered_rate: f64,
    /// `delivered_by_horizon_flits / horizon` — what the network actually
    /// sustained while sources were active.
    pub delivered_rate: f64,
    /// Max over links and injection windows of the flits injected in that
    /// window that cross that directed link — the measured dynamic
    /// counterpart of `flits × congestion certificate`.
    pub peak_link_flits_per_window: u64,
    /// Number of directed host links.
    pub directed_links: u64,
}

impl ReplayReport {
    /// Serialize as a JSON object with stable field order (byte-identical
    /// across runs of the same trace — the determinism contract).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push('{');
        let _ = write!(
            out,
            "\"window\":{},\"warmup_windows\":{},\"horizon\":{},\
             \"offered_flits\":{},\"delivered_flits\":{},\
             \"delivered_by_horizon_flits\":{},\
             \"offered_rate\":{:.6},\"delivered_rate\":{:.6},\
             \"peak_link_flits_per_window\":{},\"directed_links\":{},\
             \"result\":{},\"windows\":[",
            self.window,
            self.warmup_windows,
            self.horizon,
            self.offered_flits,
            self.delivered_flits,
            self.delivered_by_horizon_flits,
            self.offered_rate,
            self.delivered_rate,
            self.peak_link_flits_per_window,
            self.directed_links,
            self.result.to_json(),
        );
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"w\":{},\"injected\":{},\"injected_flits\":{},\
                 \"delivered\":{},\"delivered_flits\":{},\"p50\":{},\
                 \"p99\":{},\"max_latency\":{},\"max_queue\":{},\
                 \"busy\":{},\"occupancy\":{:.6}}}",
                w.index,
                w.injected,
                w.injected_flits,
                w.delivered,
                w.delivered_flits,
                w.p50_latency,
                w.p99_latency,
                w.max_latency,
                w.max_queue_depth,
                w.busy_cycles,
                w.occupancy,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Windows the observer keeps: one past the last, everything is
/// dropped, and [`replay`] refuses such a run once it ends.
const KEPT_WINDOWS: usize = MAX_REPLAY_WINDOWS as usize;

/// Grow-on-demand accumulator indexed by window.
fn bump(v: &mut Vec<u64>, i: usize, by: u64) {
    if i >= KEPT_WINDOWS {
        return;
    }
    if v.len() <= i {
        v.resize(i + 1, 0);
    }
    v[i] += by;
}

fn raise(v: &mut Vec<u64>, i: usize, to: u64) {
    if i >= KEPT_WINDOWS {
        return;
    }
    if v.len() <= i {
        v.resize(i + 1, 0);
    }
    v[i] = v[i].max(to);
}

/// The windowed [`SimObserver`] behind [`replay`].
struct WindowObserver {
    window: u64,
    injected: Vec<u64>,
    injected_flits: Vec<u64>,
    delivered: Vec<u64>,
    delivered_flits: Vec<u64>,
    latencies: Vec<Vec<u64>>,
    max_queue: Vec<u64>,
    busy: Vec<u64>,
    link_window_flits: HashMap<(u64, u64), u64>,
    peak_link_flits: u64,
}

impl WindowObserver {
    fn new(window: u64) -> Self {
        WindowObserver {
            window,
            injected: Vec::new(),
            injected_flits: Vec::new(),
            delivered: Vec::new(),
            delivered_flits: Vec::new(),
            latencies: Vec::new(),
            max_queue: Vec::new(),
            busy: Vec::new(),
            link_window_flits: HashMap::new(),
            peak_link_flits: 0,
        }
    }

    #[inline]
    fn win(&self, t: u64) -> usize {
        (t / self.window) as usize
    }
}

impl SimObserver for WindowObserver {
    fn on_inject(&mut self, _id: usize, msg: &Message) {
        let w = self.win(msg.start);
        bump(&mut self.injected, w, 1);
        bump(&mut self.injected_flits, w, msg.size as u64);
    }

    fn on_wait(&mut self, _link: u64, at: u64, depth: u64) {
        let w = self.win(at);
        raise(&mut self.max_queue, w, depth);
    }

    fn on_acquire(&mut self, _id: usize, msg: &Message, link: u64, begin: u64, end: u64) {
        // Occupancy: spread [begin, end) over the windows it overlaps.
        let mut t = begin;
        while t < end {
            let w = self.win(t);
            let boundary = (w as u64 + 1) * self.window;
            let upto = boundary.min(end);
            bump(&mut self.busy, w, upto - t);
            t = upto;
        }
        // Per-link load, attributed to the *injection* window: the slack
        // join compares this against `flits × congestion certificate`.
        let inj_w = self.win(msg.start) as u64;
        let e = self.link_window_flits.entry((link, inj_w)).or_insert(0);
        *e += msg.size as u64;
        self.peak_link_flits = self.peak_link_flits.max(*e);
    }

    fn on_deliver(&mut self, _id: usize, msg: &Message, arrival: u64) {
        let w = self.win(arrival);
        bump(&mut self.delivered, w, 1);
        bump(&mut self.delivered_flits, w, msg.size as u64);
        if w >= KEPT_WINDOWS {
            return;
        }
        if self.latencies.len() <= w {
            self.latencies.resize_with(w + 1, Vec::new);
        }
        self.latencies[w].push(arrival - msg.start);
    }
}

/// Nearest-rank percentile of an unsorted latency sample (sorted here).
fn percentile(sample: &mut [u64], p: u64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    let rank = (p * sample.len() as u64).div_ceil(100).max(1) as usize - 1;
    sample[rank.min(sample.len() - 1)]
}

/// MSER warm-up boundary over per-window mean latencies: the candidate
/// truncation point (at most half the windows) minimizing the standard
/// error of what remains. Windows with no deliveries are skipped.
fn mser_warmup(means: &[(usize, f64)], total_windows: usize) -> usize {
    if means.len() < 4 {
        return 0;
    }
    let mut best = (f64::INFINITY, 0usize);
    for cut in 0..means.len() {
        let (window_idx, _) = means[cut];
        if window_idx > total_windows / 2 {
            break;
        }
        let tail = &means[cut..];
        let n = tail.len() as f64;
        let mean = tail.iter().map(|&(_, m)| m).sum::<f64>() / n;
        let var = tail
            .iter()
            .map(|&(_, m)| (m - mean) * (m - mean))
            .sum::<f64>()
            / n;
        let stderr = (var / n).sqrt();
        if stderr < best.0 {
            best = (stderr, window_idx);
        }
    }
    best.1
}

/// Replay `trace` through `emb` and report windowed transient analytics.
///
/// The trace is validated up front and then *streamed* into the DES
/// ([`simulate_trace`]): messages materialize at their injection times,
/// and delivered paths are freed, so long traces never hold more than
/// their in-flight window.
pub fn replay(
    emb: &Embedding,
    trace: &Trace,
    cfg: &ReplayConfig,
) -> Result<ReplayReport, ReplayError> {
    obs::span!("replay.run");
    trace.validate(emb)?;
    let horizon = trace.horizon();
    let window = if cfg.window == 0 {
        (horizon / 32).max(1)
    } else {
        cfg.window
    };
    // The makespan is at least the horizon.
    replay_windows(horizon, window)?;
    let mut observer = WindowObserver::new(window);
    let result = simulate_trace(
        emb.host(),
        trace.messages_iter(emb),
        cfg.switching,
        &mut observer,
    )?;
    obs::counter!("replay.messages").add(trace.len() as u64);
    obs::histogram!("replay.window.cycles").record(window);

    // Dense window axis out to the makespan (so trajectories have no
    // holes even when nothing happened in a window).
    let count = replay_windows(result.makespan.saturating_add(1), window)? as usize;
    let n_links = emb.host().edge_count() * 2;
    let mut windows = Vec::with_capacity(count);
    let mut mean_latencies: Vec<(usize, f64)> = Vec::new();
    for w in 0..count {
        // Per-window trace span: a traced replay shows one `replay.window`
        // child per simulated window under `replay.run`, with the window's
        // queue/occupancy shape as gauge tracks.
        obs::span!("replay.window");
        let pick = |v: &Vec<u64>| v.get(w).copied().unwrap_or(0);
        let mut sample = observer
            .latencies
            .get_mut(w)
            .map(std::mem::take)
            .unwrap_or_default();
        let delivered = pick(&observer.delivered);
        if delivered > 0 {
            let sum: u64 = sample.iter().sum();
            mean_latencies.push((w, sum as f64 / delivered as f64));
        }
        let busy = pick(&observer.busy);
        let max_queue_depth = pick(&observer.max_queue);
        let occupancy = busy as f64 / n_links.saturating_mul(window).max(1) as f64;
        obs::trace::gauge("replay.window.max_queue_depth", max_queue_depth);
        // Occupancy is a [0,1] ratio; gauges carry u64, so export permille.
        obs::trace::gauge(
            "replay.window.occupancy_permille",
            (occupancy * 1000.0) as u64,
        );
        windows.push(WindowStats {
            index: w as u64,
            injected: pick(&observer.injected),
            injected_flits: pick(&observer.injected_flits),
            delivered,
            delivered_flits: pick(&observer.delivered_flits),
            p50_latency: percentile(&mut sample, 50),
            p99_latency: percentile(&mut sample, 99),
            max_latency: sample.last().copied().unwrap_or(0),
            max_queue_depth,
            busy_cycles: busy,
            occupancy,
        });
    }
    let warmup_windows = mser_warmup(&mean_latencies, count);

    let offered_flits = trace.offered_flits();
    let delivered_flits: u64 = windows.iter().map(|w| w.delivered_flits).sum();
    // Flits that arrived while sources were still offering (windows whose
    // start is inside the horizon count whole — a window-granular cut).
    let delivered_by_horizon_flits: u64 = windows
        .iter()
        .filter(|w| w.index.saturating_mul(window) < horizon)
        .map(|w| w.delivered_flits)
        .sum();
    let h = horizon.max(1) as f64;
    Ok(ReplayReport {
        result,
        window,
        windows,
        warmup_windows,
        horizon,
        offered_flits,
        delivered_flits,
        delivered_by_horizon_flits,
        offered_rate: offered_flits as f64 / h,
        delivered_rate: delivered_by_horizon_flits as f64 / h,
        peak_link_flits_per_window: observer.peak_link_flits,
        directed_links: n_links,
    })
}

/// One rung of a rate sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Injection probability numerator (per node per cycle).
    pub rate_num: u64,
    /// Injection probability denominator.
    pub rate_den: u64,
    /// Offered throughput actually generated, flits/cycle.
    pub offered_rate: f64,
    /// Steady-state delivered throughput: flits arriving in the back
    /// three-quarters of the source horizon, over that interval's length.
    /// Dropping the cold-start ramp and the post-horizon drain makes this
    /// track the offered rate under subcritical load (instead of being
    /// biased low by messages still in flight at the horizon) and plateau
    /// at capacity past saturation.
    pub delivered_rate: f64,
    /// Mean latency over the whole run.
    pub avg_latency: f64,
    /// Worst latency over the whole run.
    pub max_latency: u64,
    /// Completion time of the run (drain included).
    pub makespan: u64,
}

impl SweepPoint {
    /// Single-line JSON form with stable field order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rate\":\"{}/{}\",\"offered_rate\":{:.6},\"delivered_rate\":{:.6},\
             \"avg_latency\":{:.3},\"max_latency\":{},\"makespan\":{}}}",
            self.rate_num,
            self.rate_den,
            self.offered_rate,
            self.delivered_rate,
            self.avg_latency,
            self.max_latency,
            self.makespan
        )
    }
}

/// Open-loop rate sweep: replay a [`crate::synth::rate_trace`] at each
/// rate and collect offered-vs-delivered throughput. As offered load
/// passes the network's capacity, delivered throughput plateaus while
/// offered keeps growing — the saturation knee.
pub fn rate_sweep(
    emb: &Embedding,
    rates: &[(u64, u64)],
    flits: u32,
    horizon: u64,
    seed: u64,
    switching: Switching,
) -> Result<Vec<SweepPoint>, ReplayError> {
    obs::span!("replay.sweep");
    // Each rate's replay is independent and seeded identically whether it
    // runs on the caller or a pool worker; the order-preserving results
    // plus first-error-in-rate-order reporting keep the parallel sweep
    // byte-identical to the sequential loop.
    let results = cubemesh_pool::run_tasks(rates.len(), |i| {
        let (num, den) = rates[i];
        sweep_point(emb, num, den, flits, horizon, seed, switching)
    });
    results.into_iter().collect()
}

/// Replay one sweep rung: synthesize the rate trace, replay it, and
/// reduce the windowed delivery series to the steady-state measurement.
fn sweep_point(
    emb: &Embedding,
    rate_num: u64,
    rate_den: u64,
    flits: u32,
    horizon: u64,
    seed: u64,
    switching: Switching,
) -> Result<SweepPoint, ReplayError> {
    let trace =
        crate::synth::rate_trace(emb.guest_nodes(), flits, rate_num, rate_den, horizon, seed);
    let cfg = ReplayConfig {
        switching,
        window: (horizon / 16).max(1),
    };
    let report = replay(emb, &trace, &cfg)?;
    // Steady-state measurement interval: windows starting in
    // [horizon/4, horizon).
    let sw = (horizon / 4).div_ceil(cfg.window);
    let measured: u64 = report
        .windows
        .iter()
        .filter(|x| x.index >= sw && x.index * cfg.window < horizon)
        .map(|x| x.delivered_flits)
        .sum();
    let interval = horizon.saturating_sub(sw * cfg.window).max(1);
    Ok(SweepPoint {
        rate_num,
        rate_den,
        offered_rate: report.offered_rate,
        delivered_rate: measured as f64 / interval as f64,
        avg_latency: report.result.avg_latency,
        max_latency: report.result.max_latency,
        makespan: report.result.makespan,
    })
}

/// Index of the first sweep point past the saturation knee: delivered
/// throughput has fallen below 92% of offered (queues are growing without
/// bound). `None` if the network kept up at every rate.
pub fn saturation_knee(points: &[SweepPoint]) -> Option<usize> {
    points
        .iter()
        .position(|p| p.offered_rate > 0.0 && p.delivered_rate < 0.92 * p.offered_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{rate_trace, stencil_trace};
    use cubemesh_embedding::gray_mesh_embedding;
    use cubemesh_netsim::{simulate_with, stencil_exchange};
    use cubemesh_topology::Shape;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![4, 1, 3, 2];
        assert_eq!(percentile(&mut v, 50), 2);
        assert_eq!(percentile(&mut v, 99), 4);
        assert_eq!(percentile(&mut v, 100), 4);
        assert_eq!(percentile(&mut [], 50), 0);
        assert_eq!(percentile(&mut [7], 1), 7);
    }

    #[test]
    fn batch_trace_reproduces_simulate_with() {
        let shape = Shape::new(&[4, 4]);
        let emb = gray_mesh_embedding(&shape);
        let trace = stencil_trace(emb.edge_count(), 16, 0, 1);
        let report = replay(&emb, &trace, &ReplayConfig::default()).expect("replay");
        let batch = simulate_with(
            emb.host(),
            &stencil_exchange(&emb, 16),
            Switching::StoreAndForward,
        );
        assert_eq!(report.result, batch);
        assert_eq!(report.offered_flits, report.delivered_flits);
    }

    #[test]
    fn windows_tile_the_run_and_conserve_counts() {
        let shape = Shape::new(&[3, 5]);
        let emb = gray_mesh_embedding(&shape);
        let trace = stencil_trace(emb.edge_count(), 8, 40, 4);
        let cfg = ReplayConfig {
            switching: Switching::StoreAndForward,
            window: 40,
        };
        let report = replay(&emb, &trace, &cfg).expect("replay");
        let injected: u64 = report.windows.iter().map(|w| w.injected).sum();
        let delivered: u64 = report.windows.iter().map(|w| w.delivered).sum();
        assert_eq!(injected as usize, trace.len());
        assert_eq!(delivered as usize, report.result.delivered);
        // Busy cycles across windows = total link cycles.
        let busy: u64 = report.windows.iter().map(|w| w.busy_cycles).sum();
        assert_eq!(busy, report.result.total_link_cycles);
        // Each phase injects in its own window.
        for w in &report.windows {
            if w.index < 4 {
                assert_eq!(w.injected as usize, emb.edge_count() * 2);
            }
        }
    }

    #[test]
    fn the_window_axis_is_bounded() {
        let max = MAX_REPLAY_WINDOWS;
        assert_eq!(replay_windows(0, 1), Ok(1));
        assert_eq!(replay_windows(max, 1), Ok(max));
        assert_eq!(replay_windows(u64::MAX, u64::MAX), Ok(1));
        let too_many = ReplayError::TooManyWindows {
            window: 1,
            cycles: max + 1,
        };
        assert_eq!(replay_windows(max + 1, 1), Err(too_many.clone()));

        let emb = gray_mesh_embedding(&Shape::new(&[2, 2]));
        let cfg = ReplayConfig {
            switching: Switching::StoreAndForward,
            window: 1,
        };
        // The horizon alone spans too many windows: refused before the
        // simulation runs.
        let trace = stencil_trace(emb.edge_count(), 8, max, 2);
        assert_eq!(trace.horizon(), max + 1);
        assert_eq!(replay(&emb, &trace, &cfg).err(), Some(too_many));
        // The horizon fits, but the last phase drains past the last
        // window: refused once the run ends.
        let trace = stencil_trace(emb.edge_count(), 8, max - 2, 2);
        assert!(replay_windows(trace.horizon(), 1).is_ok());
        match replay(&emb, &trace, &cfg) {
            Err(ReplayError::TooManyWindows { window: 1, cycles }) => assert!(cycles > max),
            other => panic!("{:?}", other.map(|r| r.windows.len())),
        }
    }

    #[test]
    fn replay_json_is_deterministic() {
        let shape = Shape::new(&[3, 4]);
        let emb = gray_mesh_embedding(&shape);
        let trace = rate_trace(emb.guest_nodes(), 4, 1, 4, 64, 11);
        let cfg = ReplayConfig::default();
        let a = replay(&emb, &trace, &cfg).expect("a").to_json();
        let b = replay(&emb, &trace, &cfg).expect("b").to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn rate_sweep_finds_a_saturation_knee() {
        // 4×4×4 Gray in Q6 with 8-flit messages: capacity per node is
        // well below 1 message/cycle, so the ladder must saturate.
        let shape = Shape::new(&[4, 4, 4]);
        let emb = gray_mesh_embedding(&shape);
        let rates = [(1, 64), (1, 16), (1, 4), (1, 2), (1, 1)];
        let points =
            rate_sweep(&emb, &rates, 8, 128, 3, Switching::StoreAndForward).expect("sweep");
        assert_eq!(points.len(), rates.len());
        // Offered grows monotonically along the ladder…
        assert!(points
            .windows(2)
            .all(|p| p[0].offered_rate <= p[1].offered_rate));
        let knee = saturation_knee(&points).expect("must saturate by rate 1");
        // …and past the knee the delivered curve plateaus: pushing offered
        // load further buys almost nothing.
        let sat = &points[knee..];
        assert!(
            sat.last().unwrap().delivered_rate <= sat.first().unwrap().delivered_rate * 1.5,
            "delivered should plateau past the knee"
        );
        // Below the knee the network kept up.
        if knee > 0 {
            let pre = &points[knee - 1];
            assert!(pre.delivered_rate >= 0.92 * pre.offered_rate);
        }
    }

    #[test]
    fn mser_skips_a_cold_start() {
        // Mean latencies: wild transient then flat — warm-up cuts the head.
        let means: Vec<(usize, f64)> = [50.0, 30.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
            .iter()
            .copied()
            .enumerate()
            .collect();
        let w = mser_warmup(&means, 16);
        assert!(w >= 2, "warm-up boundary {w} should skip the transient");
    }
}
