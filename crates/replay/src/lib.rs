//! Trace-driven traffic replay over embedded meshes.
//!
//! The netsim crate answers "what does one all-at-once workload cost?";
//! this crate answers the *transient* questions real mesh computations
//! raise: how deep do queues get mid-run, where is the warm-up boundary,
//! at what offered load does the network saturate, and — crucially — do
//! the dynamics ever exceed what the static certificates promised?
//!
//! Three layers:
//!
//! * [`trace`] — the [`trace::Trace`] model: a time-ordered stream of
//!   injection events, recordable to and loadable from a line-oriented
//!   JSONL format, resolvable against any [`cubemesh_embedding::Embedding`]
//!   (guest-edge routes or e-cube pair routes);
//! * [`synth`] — deterministic generators: periodic stencil and shift
//!   phases, on/off bursty sources, and open-loop Bernoulli rate sources
//!   for saturation sweeps;
//! * [`engine`] — [`engine::replay`] streams a trace through the DES with
//!   a windowed observer and reports per-window latency percentiles,
//!   queue-depth and link-occupancy trajectories, an MSER warm-up
//!   boundary, and offered-vs-delivered throughput ([`engine::rate_sweep`]
//!   / [`engine::saturation_knee`] locate the capacity knee);
//! * [`slack`] — [`slack::certificate_slack`] joins a replay against
//!   [`cubemesh_audit::check_plan`]: measured peak per-link flits per
//!   phase vs the certified `flits × congestion` ceiling.
//!
//! Determinism is a contract: the same trace and configuration produce
//! byte-identical JSON reports, and a trace with every event at cycle 0
//! reproduces [`cubemesh_netsim::simulate_with`] exactly.

#![forbid(unsafe_code)]

pub mod engine;
pub mod slack;
pub mod synth;
pub mod trace;

pub use engine::{
    rate_sweep, replay, replay_windows, saturation_knee, ReplayConfig, ReplayError, ReplayReport,
    SweepPoint, WindowStats, MAX_REPLAY_WINDOWS,
};
pub use slack::{certificate_slack, slack_report, slack_report_json, SlackEntry, SlackError};
pub use synth::{bursty_trace, rate_trace, shift_trace, stencil_trace};
pub use trace::{RouteSpec, Trace, TraceError, TraceEvent};
