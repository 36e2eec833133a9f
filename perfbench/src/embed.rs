//! `embed-mix`: the `cubemesh embed` path over a seeded mix of 3-D
//! shapes — plan, certify, construct (Gray fallback when unplanned, as
//! `embed_mesh` does), metrics, verify — each embedding checked against
//! its certificate and its floors.

use crate::harness::{Checks, Ctx, Ledger, Metric, Op, Rng, TracedPass, Workload};
use cubemesh_audit::{check_plan, mesh_floors, Certificate};
use cubemesh_core::{construct, Plan, Planner};
use cubemesh_embedding::{gray_mesh_embedding, Embedding, Metrics};
use cubemesh_topology::Shape;
use std::time::Instant;

const MIN_AXIS: u64 = 24;
const MAX_AXIS: u64 = 160;
const MAX_NODES: usize = 1 << 21;
/// Strata: every block of this many shapes draws one shape from each
/// equal-probability cell of the shape distribution, where cells split
/// the shapes by planner outcome, then by node count.
const STRATA: u64 = 20;
/// Shapes drawn (with a fixed seed) to place the cell edges.
const QUANTILE_SAMPLES: u64 = 2000;
const SALT: u64 = 0xE3BED;

pub struct EmbedMix;

pub struct State {
    /// Cell edges in `(outcome, nodes)` order; cell `k` holds the keys
    /// from `edges[k]` up to, not including, `edges[k + 1]`.
    edges: Vec<(u8, usize)>,
    decomposed: u64,
    planned_gray: u64,
    fallback: u64,
}

/// A shape from the unstratified distribution: axes uniform in
/// `MIN_AXIS..=MAX_AXIS`, redrawn while the node count exceeds the cap.
fn natural_shape(rng: &mut Rng) -> Shape {
    loop {
        let d = [0; 3].map(|_| rng.range(MIN_AXIS, MAX_AXIS) as usize);
        if d.iter().product::<usize>() <= MAX_NODES {
            return Shape::new(&d);
        }
    }
}

/// The stratification key: planner outcome (0 Gray fallback, 1 planned
/// Gray, 2 decomposition), then node count.
fn key(shape: &Shape) -> (u8, usize) {
    let outcome = match Planner::new().plan(shape) {
        None => 0,
        Some(Plan::Gray) => 1,
        Some(_) => 2,
    };
    (outcome, shape.nodes())
}

impl State {
    /// The shape of operation `i`: a natural shape whose key lies in the
    /// cell `stratum(i)`.
    fn shape(&self, seed: u64, i: u64) -> Shape {
        let k = crate::harness::stratum(seed, SALT, i, STRATA) as usize;
        let mut rng = Rng::stream(seed, SALT + 1, i);
        loop {
            let shape = natural_shape(&mut rng);
            let key = key(&shape);
            if key >= self.edges[k] && key < self.edges[k + 1] {
                return shape;
            }
        }
    }
}

/// What one embedding produced, for the checks.
struct Embedded {
    cert: Certificate,
    metrics: Metrics,
    verified: bool,
    planned: bool,
    minimal_cube: u32,
}

fn embed(shape: &Shape, led: &mut Ledger) -> Result<(Embedded, Plan), String> {
    let plan = led.time("core.plan", || Planner::new().plan(shape));
    let planned = plan.is_some();
    let plan = plan.unwrap_or(Plan::Gray);
    let cert = led
        .time("audit.check_plan", || check_plan(shape, &plan))
        .map_err(|e| format!("{shape}: no certificate: {e}"))?;
    let emb: Embedding = led
        .time("core.construct", || {
            if planned {
                construct(shape, &plan)
            } else {
                Ok(gray_mesh_embedding(shape))
            }
        })
        .map_err(|e| format!("{shape}: planned but does not construct: {e}"))?;
    let metrics = led.time("embedding.metrics", || emb.metrics());
    let verified = led.time("embedding.verify", || emb.verify().is_ok());
    led.time("embedding.drop", || drop(emb));
    Ok((
        Embedded {
            cert,
            metrics,
            verified,
            planned,
            minimal_cube: shape.minimal_cube_dim(),
        },
        plan,
    ))
}

/// Measured figures within the certificate, and no better than the
/// floors say any embedding can be.
fn check(shape: &Shape, e: &Embedded) -> Result<(), String> {
    let m = &e.metrics;
    let floors = mesh_floors(shape, m.host_dim);
    let ok = e.verified
        && m.host_dim == e.cert.host_dim
        && m.dilation <= e.cert.dilation_bound
        && m.congestion <= e.cert.congestion_bound
        && (!e.planned || m.host_dim == e.minimal_cube)
        && m.host_dim >= e.minimal_cube
        && m.dilation >= floors.dilation
        && m.congestion >= floors.congestion;
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{shape}: verified {} measured Q{} d{} c{} vs certificate Q{} d{} c{}, floors d{} c{}",
            e.verified,
            m.host_dim,
            m.dilation,
            m.congestion,
            e.cert.host_dim,
            e.cert.dilation_bound,
            e.cert.congestion_bound,
            floors.dilation,
            floors.congestion
        ))
    }
}

impl Workload for EmbedMix {
    type State = State;
    const WORK_UNIT: &'static str = "nodes";
    const BLOCK: u64 = STRATA;
    const REPEAT: u64 = 2;

    fn setup(&self, _ctx: &Ctx) -> Result<State, String> {
        // Cell edges come from a fixed sample, so every seed draws from
        // the same cells.
        let mut rng = Rng::new(0xBA5E);
        let mut keys: Vec<(u8, usize)> = (0..QUANTILE_SAMPLES)
            .map(|_| key(&natural_shape(&mut rng)))
            .collect();
        keys.sort_unstable();
        let mut edges: Vec<(u8, usize)> = (0..STRATA)
            .map(|k| keys[(k * QUANTILE_SAMPLES / STRATA) as usize])
            .collect();
        edges[0] = (0, 0);
        edges.push((u8::MAX, 0));
        // Warm-up: start the pool's workers and grow the heap with one of
        // the mix's most memory-hungry shapes (a near-cap decomposition),
        // so the peak resident set depends little on which shapes a seed
        // draws.
        let warm = Shape::new(&[146, 91, 139]);
        let (e, _) = embed(&warm, &mut Ledger::new(false))?;
        check(&warm, &e)?;
        Ok(State {
            edges,
            decomposed: 0,
            planned_gray: 0,
            fallback: 0,
        })
    }

    fn prepare_trace(&self, st: &mut State, _ctx: &Ctx) -> Result<(), String> {
        st.decomposed = 0;
        st.planned_gray = 0;
        st.fallback = 0;
        Ok(())
    }

    fn op(&self, st: &mut State, ctx: &Ctx, i: u64, led: &mut Ledger) -> Op {
        let shape = st.shape(ctx.seed, i);
        let t = Instant::now();
        let result = embed(&shape, led);
        let latency = t.elapsed();
        let outcome = result.and_then(|(e, plan)| {
            match (e.planned, &plan) {
                (false, _) => st.fallback += 1,
                (true, Plan::Gray) => st.planned_gray += 1,
                (true, _) => st.decomposed += 1,
            }
            led.overhead("bench.check", || check(&shape, &e))
        });
        if let Err(e) = &outcome {
            eprintln!("embed-mix: {e}");
        }
        Op {
            latency,
            work: shape.nodes() as u64,
            checked: 1,
            failed: u64::from(outcome.is_err()),
        }
    }

    fn finish(&self, _st: &mut State, _ctx: &Ctx, _led: &mut Ledger, _checks: &mut Checks) {}

    fn layer_metrics(&self, st: &State, p: &TracedPass) -> Vec<Metric> {
        let per_op = |c: &str| p.counter(c) as f64 / p.ops.max(1) as f64;
        vec![
            ("core.plan_ms", p.ms_per_op("core.plan"), "ms"),
            ("audit.check_plan_ms", p.ms_per_op("audit.check_plan"), "ms"),
            ("core.construct_ms", p.ms_per_op("core.construct"), "ms"),
            (
                "embedding.metrics_ms",
                p.ms_per_op("embedding.metrics"),
                "ms",
            ),
            ("embedding.verify_ms", p.ms_per_op("embedding.verify"), "ms"),
            ("embedding.drop_ms", p.ms_per_op("embedding.drop"), "ms"),
            ("core.decomposed_shapes", st.decomposed as f64, "count"),
            ("core.planned_gray_shapes", st.planned_gray as f64, "count"),
            ("core.gray_fallback_shapes", st.fallback as f64, "count"),
            ("pool.regions", per_op("pool.regions"), "count"),
            ("pool.tasks", per_op("pool.tasks"), "count"),
            ("pool.steals", per_op("pool.steals"), "count"),
        ]
    }
}
