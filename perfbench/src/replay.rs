//! `replay-sweep`: the `cubemesh replay` path — synthesize a seeded
//! trace (Bernoulli rate sources at rates straddling the saturation
//! knee, or on/off bursty sources) and replay it through the network
//! simulator on an embedded mesh — checked by delivered == injected,
//! plus a stencil certificate-slack run that must show no violation.

use crate::harness::{Checks, Ctx, Kind, Ledger, Metric, Op, TracedPass, Workload};
use cubemesh_core::{construct, Planner};
use cubemesh_embedding::Embedding;
use cubemesh_netsim::{simulate_trace, NullObserver, Switching};
use cubemesh_replay::{
    bursty_trace, certificate_slack, rate_sweep, rate_trace, replay, saturation_knee, ReplayConfig,
    Trace,
};
use cubemesh_topology::Shape;
use std::time::Instant;

/// The replayed mesh (embedded by the planner). Small enough that the
/// simulator's state stays in the core's own caches: on an 8×8×8 mesh
/// the same trace's replay time swung by a fifth between runs with the
/// shared cache's load, on this one by a fortieth.
const MESH: [usize; 3] = [4, 4, 4];
/// The stencil mesh of the certificate-slack check (dilation-2 routes).
const SLACK_MESH: [usize; 3] = [36, 36, 33];
const FLITS: u32 = 8;
const HORIZON: u64 = 256;
const SWITCHING: Switching = Switching::StoreAndForward;
/// The operation mix: Bernoulli rates below the knee and at it (1/4 on
/// this mesh at this horizon is the first rate whose delivered rate
/// falls behind the offered), and bursty sources that send every
/// second (gap 1) or fourth (gap 3) cycle during a burst — above and at
/// the knee — and stay below it on average.
const MIX: [Source; 5] = [
    Source::Rate(1, 16),
    Source::Rate(1, 8),
    Source::Rate(1, 4),
    Source::Bursty(1),
    Source::Bursty(3),
];
/// The `cubemesh replay --pattern sweep` ladder the knee is read from.
const LADDER: [(u64, u64); 7] = [(1, 64), (1, 32), (1, 16), (1, 8), (1, 4), (1, 2), (1, 1)];
const SALT: u64 = 0x2E9A7;

#[derive(Clone, Copy)]
enum Source {
    Rate(u64, u64),
    Bursty(u64),
}

pub struct ReplaySweep;

pub struct State {
    emb: Embedding,
    knee_rate: f64,
}

fn trace_for(emb: &Embedding, source: Source, seed: u64) -> Trace {
    match source {
        Source::Rate(num, den) => rate_trace(emb.guest_nodes(), FLITS, num, den, HORIZON, seed),
        Source::Bursty(gap) => bursty_trace(emb.guest_nodes(), FLITS, HORIZON, 16, 32, gap, seed),
    }
}

/// Replay `trace` and check that every injected message arrived.
fn run_replay(emb: &Embedding, trace: &Trace) -> Result<(), String> {
    let cfg = ReplayConfig {
        switching: SWITCHING,
        window: 0,
    };
    let report = replay(emb, trace, &cfg).map_err(|e| format!("replay: {e}"))?;
    if report.delivered_flits == report.offered_flits
        && report.offered_flits == trace.offered_flits()
        && report.result.delivered == trace.len()
    {
        Ok(())
    } else {
        Err(format!(
            "delivered {} of {} messages ({} of {} flits)",
            report.result.delivered,
            trace.len(),
            report.delivered_flits,
            report.offered_flits
        ))
    }
}

impl Workload for ReplaySweep {
    type State = State;
    const WORK_UNIT: &'static str = "events";
    const BLOCK: u64 = MIX.len() as u64 * 2;
    const REPEAT: u64 = 2;

    fn setup(&self, _ctx: &Ctx) -> Result<State, String> {
        let shape = Shape::new(&MESH);
        let plan = Planner::new()
            .plan(&shape)
            .ok_or_else(|| format!("no plan for {shape}"))?;
        let emb = construct(&shape, &plan).map_err(|e| format!("construct {shape}: {e}"))?;
        // Warm-up: one replay of each source in the mix.
        for (k, &source) in MIX.iter().enumerate() {
            run_replay(&emb, &trace_for(&emb, source, k as u64))?;
        }
        Ok(State {
            emb,
            knee_rate: 0.0,
        })
    }

    fn op(&self, st: &mut State, ctx: &Ctx, i: u64, led: &mut Ledger) -> Op {
        let source = MIX[crate::harness::stratum(ctx.seed, SALT, i, MIX.len() as u64) as usize];
        let trace_seed = crate::harness::Rng::stream(ctx.seed, SALT + 1, i).next();
        let t = Instant::now();
        let trace = led.time("replay.trace_gen", || {
            trace_for(&st.emb, source, trace_seed)
        });
        let r = Instant::now();
        let result = run_replay(&st.emb, &trace);
        let replayed = r.elapsed();
        let latency = t.elapsed();
        if led.on() {
            // Split the replay into the bare simulation (timed again on
            // its own) and the windowed observer, validation and
            // reductions around it.
            let t = Instant::now();
            drop(std::hint::black_box(simulate_trace(
                st.emb.host(),
                trace.messages_iter(&st.emb),
                SWITCHING,
                &mut NullObserver,
            )));
            let sim = t.elapsed();
            led.add("netsim.simulate", Kind::Layer, sim.min(replayed));
            led.add(
                "replay.window_stats",
                Kind::Layer,
                replayed.saturating_sub(sim),
            );
            led.add("probe.simulate", Kind::Overhead, sim);
        }
        if let Err(e) = &result {
            eprintln!("replay-sweep: {e}");
        }
        Op {
            latency,
            work: trace.len() as u64,
            checked: 1,
            failed: u64::from(result.is_err()),
        }
    }

    fn finish(&self, st: &mut State, ctx: &Ctx, led: &mut Ledger, checks: &mut Checks) {
        let shape = Shape::new(&SLACK_MESH);
        match led.time("replay.slack", || {
            certificate_slack(&shape, FLITS, 4, SWITCHING)
        }) {
            Ok(e) => checks.record(
                !e.violation && e.certificate.dilation_bound == 2,
                &format!(
                    "{shape}: measured {} flits over certified {}",
                    e.dynamic_peak_flits, e.static_peak_flits
                ),
            ),
            Err(e) => checks.record(false, &format!("{shape}: slack: {e}")),
        }
        if led.on() {
            match led.time("replay.sweep", || {
                rate_sweep(&st.emb, &LADDER, FLITS, HORIZON, ctx.seed, SWITCHING)
            }) {
                Ok(points) => {
                    st.knee_rate = saturation_knee(&points).map_or(0.0, |k| {
                        points[k].rate_num as f64 / points[k].rate_den as f64
                    });
                    checks.record(points.len() == LADDER.len(), "sweep returned every rate");
                }
                Err(e) => checks.record(false, &format!("sweep: {e}")),
            }
        }
    }

    fn layer_metrics(&self, st: &State, p: &TracedPass) -> Vec<Metric> {
        vec![
            ("replay.trace_gen_ms", p.ms_per_op("replay.trace_gen"), "ms"),
            ("netsim.simulate_ms", p.ms_per_op("netsim.simulate"), "ms"),
            (
                "replay.window_stats_ms",
                p.ms_per_op("replay.window_stats"),
                "ms",
            ),
            (
                "replay.messages",
                p.counter("replay.messages") as f64 / p.ops.max(1) as f64,
                "count",
            ),
            ("replay.knee_rate", st.knee_rate, "ratio"),
            ("replay.slack_ms", 1e3 * p.finish.secs("replay.slack"), "ms"),
            ("replay.sweep_ms", 1e3 * p.finish.secs("replay.sweep"), "ms"),
        ]
    }

    fn context(&self, st: &State) -> Vec<(&'static str, String)> {
        vec![
            ("mesh", format!("\"{}x{}x{}\"", MESH[0], MESH[1], MESH[2])),
            ("host_dim", st.emb.host().dim().to_string()),
            ("horizon", HORIZON.to_string()),
        ]
    }
}
