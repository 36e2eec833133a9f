//! Zero-dependency instrumentation for the cubemesh workspace.
//!
//! audit: relaxed-domain(stat counters): monotonic counters/gauges, read
//! for reporting only after workers join.
//!
//! Everything here is built on `std` atomics only — no external crates —
//! so the instrumented hot paths (planner memoization, backtracking
//! search, congestion routing, the Figure-2 census, the network
//! simulator) pay a single relaxed atomic load when stats are disabled.
//!
//! # Model
//!
//! * [`Counter`] — a sharded monotonic `u64` (8 cache-padded shards,
//!   thread-indexed) so pool workers don't contend on one cache line.
//! * [`Histogram`] — log2-bucketed value/latency distribution with
//!   exact count, sum, min and max.
//! * [`SpanTimer`] — RAII wall-clock timer; nested spans build a
//!   `parent/child` path via a thread-local span stack and record
//!   nanoseconds into a histogram per path.
//! * [`Progress`] — rate-limited `\r`-style progress line with ETA,
//!   safe to tick from pool workers.
//! * a process-global named-metric registry behind the [`counter!`],
//!   [`histogram!`] and [`span!`] macros, snapshot-able at any point as
//!   human text or JSON ([`snapshot`], [`Snapshot`]).
//! * [`trace`] — hierarchical causal tracing: the same [`span!`] call
//!   sites additionally emit begin/end events with parent/child span
//!   ids into per-thread buffers, drained into Chrome `trace_event`
//!   JSON, folded flamegraph stacks and a stable-schema JSONL log.
//!   Independently gated by [`trace::set_enabled`] (the `--trace` CLI
//!   flags), so stats and tracing compose freely.
//!
//! # Enabling
//!
//! Collection is off by default. Turn it on programmatically with
//! [`set_enabled`] (what the `--stats` CLI flags do) or via the
//! `CUBEMESH_STATS` environment variable (`text`, `json`, or `off`),
//! applied by [`init_from_env`]. When disabled, `inc`/`record`/span
//! bodies short-circuit after one relaxed atomic load.
//!
//! ```
//! cubemesh_obs::set_enabled(true);
//! cubemesh_obs::counter!("demo.widgets").inc();
//! cubemesh_obs::histogram!("demo.sizes").record(37);
//! {
//!     let _t = cubemesh_obs::span!("demo.outer");
//!     // ... timed region ...
//! }
//! let snap = cubemesh_obs::snapshot();
//! assert_eq!(snap.counter("demo.widgets"), Some(1));
//! ```

mod json;
mod metrics;
mod progress;
mod registry;
mod snapshot;
mod span;
pub mod trace;

pub use json::{escape_into as json_escape_into, parse as parse_json, JsonValue};
pub use metrics::{Counter, Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use progress::Progress;
pub use registry::{counter_named, histogram_named, reset, snapshot, Registry};
pub use snapshot::Snapshot;
pub use span::{span_histogram_named, SpanTimer};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Output format chosen for the end-of-run snapshot dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsMode {
    /// Collection disabled (the default).
    Off,
    /// Human-readable text snapshot.
    Text,
    /// Single-line JSON snapshot.
    Json,
}

/// Global collection switch; hot paths check this with one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Requested output format (0 = off, 1 = text, 2 = json).
static MODE: AtomicU8 = AtomicU8::new(0);

/// Is stat collection currently enabled?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable stat collection process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    if on && MODE.load(Ordering::Relaxed) == 0 {
        MODE.store(1, Ordering::Relaxed);
    }
    if !on {
        MODE.store(0, Ordering::Relaxed);
    }
}

/// Set the snapshot output format (also enables/disables collection).
pub fn set_mode(mode: StatsMode) {
    match mode {
        StatsMode::Off => {
            MODE.store(0, Ordering::Relaxed);
            ENABLED.store(false, Ordering::Relaxed);
        }
        StatsMode::Text => {
            MODE.store(1, Ordering::Relaxed);
            ENABLED.store(true, Ordering::Relaxed);
        }
        StatsMode::Json => {
            MODE.store(2, Ordering::Relaxed);
            ENABLED.store(true, Ordering::Relaxed);
        }
    }
}

/// The currently-selected output format.
pub fn mode() -> StatsMode {
    match MODE.load(Ordering::Relaxed) {
        1 => StatsMode::Text,
        2 => StatsMode::Json,
        _ => StatsMode::Off,
    }
}

/// Apply the `CUBEMESH_STATS` environment variable (`text` | `json` |
/// `off`/unset). Returns the mode that ended up selected.
pub fn init_from_env() -> StatsMode {
    match std::env::var("CUBEMESH_STATS").ok().as_deref() {
        Some("text") | Some("TEXT") | Some("1") | Some("on") => set_mode(StatsMode::Text),
        Some("json") | Some("JSON") => set_mode(StatsMode::Json),
        _ => {}
    }
    mode()
}

/// If stats are enabled, print the current snapshot to stderr (text mode)
/// or stdout (json mode, one line). No-op when off.
pub fn report() {
    match mode() {
        StatsMode::Off => {}
        StatsMode::Text => eprint!("{}", snapshot().to_text()),
        StatsMode::Json => println!("{}", snapshot().to_json()),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serializes tests that toggle the process-global enabled flag or
    /// reset the registry, so parallel test threads don't interleave.
    pub fn guard() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_switching() {
        let _g = crate::testutil::guard();
        set_mode(StatsMode::Off);
        assert!(!enabled());
        set_mode(StatsMode::Json);
        assert!(enabled());
        assert_eq!(mode(), StatsMode::Json);
        set_enabled(false);
        assert_eq!(mode(), StatsMode::Off);
        set_enabled(true);
        assert_eq!(mode(), StatsMode::Text);
        set_mode(StatsMode::Off);
    }
}
