//! Cost of the tracing layer on the hot 64³ construct: disabled tracing
//! must stay within 1% of the uninstrumented baseline and enabled
//! tracing within 5%. These are hard assertions —
//! `cargo bench -p cubemesh-bench --bench obs_overhead` fails if the
//! trace guard stops being cheap.

use cubemesh_core::{construct, plan_shape, Planner};
use cubemesh_obs as obs;
use cubemesh_topology::Shape;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds per call of `f` over `samples` runs (one warmup).
fn median_secs<O>(samples: usize, mut f: impl FnMut() -> O) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let shape = Shape::new(&[64, 64, 64]);
    let plan = plan_shape(&mut Planner::new(), &shape)
        .expect("64^3 is plannable")
        .plan;
    let samples = 9;

    obs::set_enabled(false);
    obs::trace::set_enabled(false);
    let baseline = median_secs(samples, || construct(&shape, &plan).expect("plan lowers"));
    let disabled = median_secs(samples, || construct(&shape, &plan).expect("plan lowers"));

    obs::trace::set_enabled(true);
    let enabled = median_secs(samples, || {
        let e = construct(&shape, &plan).expect("plan lowers");
        // Keep the per-thread buffers bounded across samples.
        let _ = obs::trace::drain();
        e
    });
    obs::trace::set_enabled(false);
    let _ = obs::trace::drain();
    obs::trace::reset();

    let disabled_pct = 100.0 * (disabled / baseline - 1.0);
    let enabled_pct = 100.0 * (enabled / baseline - 1.0);
    println!(
        "bench obs_overhead/trace_construct_64 ... baseline {:.1} ms, trace-off {:+.2}%, \
         trace-on {:+.2}% ({samples} samples)",
        baseline * 1e3,
        disabled_pct,
        enabled_pct
    );
    assert!(
        disabled_pct <= 1.0,
        "disabled tracing costs {disabled_pct:.2}% on 64^3 construct (budget 1%)"
    );
    assert!(
        enabled_pct <= 5.0,
        "enabled tracing costs {enabled_pct:.2}% on 64^3 construct (budget 5%)"
    );
}
