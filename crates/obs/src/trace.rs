//! Hierarchical causal tracing with per-thread buffers and three export
//! formats.
//!
//! audit: relaxed-domain(trace guards): enable flag and sequence counters
//! for per-thread buffers drained after workers join.
//!
//! Where the metric layer ([`Counter`](crate::Counter) /
//! [`Histogram`](crate::Histogram) / [`SpanTimer`](crate::SpanTimer))
//! aggregates, the trace layer *records*: every span open/close becomes
//! an event with a process-unique span id, the id of its parent span on
//! the same thread, the thread's trace id and a monotonic timestamp.
//! Gauges (queue depths, chunk sizes) and instants (planner rule
//! selections) interleave with the spans, so a drained trace is a full
//! causal timeline of one run.
//!
//! # Model
//!
//! * Collection is off by default; [`set_enabled`] turns it on (the
//!   `--trace FILE` CLI flags do this). Disabled call sites cost one
//!   relaxed atomic load — the same zero-cost discipline as the metric
//!   layer.
//! * Events append to a **per-thread** buffer: no locks and no shared
//!   cache lines on the hot path. A thread's buffer moves into the
//!   global store when the thread exits or when it exceeds a chunk cap.
//!   Pool workers live as long as the process, so their events reach
//!   the store through the cap only.
//! * [`drain`] merges the store with the calling thread's buffer into a
//!   [`TraceLog`]. Call it after parallel regions have joined — events
//!   still buffered on other *live* threads are not visible.
//!
//! # Exports
//!
//! * [`TraceLog::to_chrome_json`] — Chrome `trace_event` JSON, loadable
//!   in `about:tracing` and [Perfetto](https://ui.perfetto.dev).
//! * [`TraceLog::to_folded`] — folded stacks (`a;b;c self_ns`), the
//!   input format of `flamegraph.pl` / `inferno`.
//! * [`TraceLog::to_jsonl`] — one JSON object per event with a stable
//!   schema (see [`JSONL_SCHEMA_VERSION`]); `ts_ns` is always the last
//!   field, so stripping timestamps for determinism comparisons is a
//!   single-regex affair.
//!
//! Span ids are allocated in event order from a process-global counter,
//! so a single-threaded run produces an identical event sequence (modulo
//! `ts_ns`) on every execution — the determinism gate in
//! `scripts/check.sh` relies on this.

use crate::json::escape_into;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Version of the [`to_jsonl`](TraceLog::to_jsonl) event schema; bumped
/// on any field rename, reorder or removal. Emitted in the leading
/// `meta` line.
pub const JSONL_SCHEMA_VERSION: u32 = 1;

/// Flush a thread buffer into the global store past this many events.
const CHUNK_CAP: usize = 1 << 16;

/// One trace event. Timestamps are nanoseconds since the process trace
/// epoch (first trace activity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span opened. `parent == 0` marks a root span on its thread.
    Begin {
        /// Process-unique span id (never 0).
        id: u64,
        /// Enclosing span's id on the same thread, 0 for roots.
        parent: u64,
        /// Span name (the `span!` literal).
        name: &'static str,
        /// Open timestamp.
        ts_ns: u64,
    },
    /// The most recently opened span on this thread closed.
    End {
        /// Id issued by the matching [`TraceEvent::Begin`].
        id: u64,
        /// Close timestamp.
        ts_ns: u64,
    },
    /// A sampled value (rendered as a Chrome counter track).
    Gauge {
        /// Gauge name.
        name: &'static str,
        /// Sampled value.
        value: u64,
        /// Sample timestamp.
        ts_ns: u64,
    },
    /// A point event with a short detail payload.
    Instant {
        /// Event name.
        name: &'static str,
        /// Free-form detail (kept short; escaped on export).
        detail: String,
        /// Event timestamp.
        ts_ns: u64,
    },
}

impl TraceEvent {
    fn ts_ns(&self) -> u64 {
        match *self {
            TraceEvent::Begin { ts_ns, .. }
            | TraceEvent::End { ts_ns, .. }
            | TraceEvent::Gauge { ts_ns, .. }
            | TraceEvent::Instant { ts_ns, .. } => ts_ns,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Is trace collection currently enabled?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable trace collection process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Buffers handed over by exited (or overflowing) threads, in handover
/// order. Chunks from one thread stay in chronological order.
#[derive(Default)]
struct Store {
    finished: Vec<(u32, Vec<TraceEvent>)>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

/// This thread's event buffer. The `Drop` impl moves any remaining
/// events into the global store when the thread exits, which is what
/// makes an exited thread's events visible to a later [`drain`].
struct Local {
    tid: u32,
    events: Vec<TraceEvent>,
}

impl Local {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let chunk = std::mem::take(&mut self.events);
        store()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .finished
            .push((self.tid, chunk));
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local(f: impl FnOnce(&mut Local)) {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| Local {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Vec::new(),
        });
        f(local);
        if local.events.len() >= CHUNK_CAP {
            local.flush();
        }
    });
}

/// Allocate the next span id (begin events only; 0 is reserved for "no
/// parent").
#[inline]
pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Record a span-open event (called by [`SpanTimer`](crate::SpanTimer)).
pub(crate) fn record_begin(id: u64, parent: u64, name: &'static str) {
    with_local(|l| {
        l.events.push(TraceEvent::Begin {
            id,
            parent,
            name,
            ts_ns: now_ns(),
        })
    });
}

/// Record a span-close event (called by [`SpanTimer`](crate::SpanTimer)).
pub(crate) fn record_end(id: u64) {
    with_local(|l| {
        l.events.push(TraceEvent::End {
            id,
            ts_ns: now_ns(),
        })
    });
}

/// Record a gauge sample. No-op while tracing is disabled.
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_local(|l| {
        l.events.push(TraceEvent::Gauge {
            name,
            value,
            ts_ns: now_ns(),
        })
    });
}

/// Record an instant event with a short detail string. No-op while
/// tracing is disabled.
#[inline]
pub fn instant(name: &'static str, detail: &str) {
    if !enabled() {
        return;
    }
    with_local(|l| {
        l.events.push(TraceEvent::Instant {
            name,
            detail: detail.to_owned(),
            ts_ns: now_ns(),
        })
    });
}

/// Clear all buffered trace state (the calling thread's buffer and every
/// handed-over buffer) and restart span-id allocation, so two runs in
/// one process produce comparable event sequences. Test/bench support.
pub fn reset() {
    store()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .finished
        .clear();
    LOCAL.with(|cell| {
        if let Some(local) = cell.borrow_mut().as_mut() {
            local.events.clear();
        }
    });
    NEXT_SPAN_ID.store(1, Ordering::Relaxed);
}

/// Merge every handed-over thread buffer with the calling thread's
/// buffer into a [`TraceLog`]. Call after parallel regions have joined:
/// buffers still owned by other live threads are not visible. Draining
/// consumes the events; tracing stays in whatever enabled state it was.
pub fn drain() -> TraceLog {
    let mut chunks: Vec<(u32, Vec<TraceEvent>)> = {
        let mut s = store().lock().unwrap_or_else(|p| p.into_inner());
        std::mem::take(&mut s.finished)
    };
    LOCAL.with(|cell| {
        if let Some(local) = cell.borrow_mut().as_mut() {
            if !local.events.is_empty() {
                chunks.push((local.tid, std::mem::take(&mut local.events)));
            }
        }
    });
    // Per-thread chronological order: chunks from one tid were handed
    // over in order, and the sort is stable.
    chunks.sort_by_key(|&(tid, _)| tid);
    let mut events = Vec::with_capacity(chunks.iter().map(|(_, c)| c.len()).sum());
    for (tid, chunk) in chunks {
        events.extend(chunk.into_iter().map(|e| (tid, e)));
    }
    TraceLog { events }
}

/// A drained trace: `(tid, event)` pairs ordered by thread id, then by
/// per-thread emission order.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    events: Vec<(u32, TraceEvent)>,
}

impl TraceLog {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The `(tid, event)` pairs, for programmatic inspection.
    pub fn events(&self) -> &[(u32, TraceEvent)] {
        &self.events
    }

    /// Chrome `trace_event` JSON (the `about:tracing` / Perfetto format):
    /// spans as `B`/`E` duration events, gauges as `C` counter events,
    /// instants as thread-scoped `i` events. Timestamps are microseconds
    /// with nanosecond fractions.
    pub fn to_chrome_json(&self) -> String {
        // `E` events carry the name too (Perfetto matches by nesting, but
        // named ends survive truncated traces better).
        let mut names: BTreeMap<u64, &'static str> = BTreeMap::new();
        for (_, e) in &self.events {
            if let TraceEvent::Begin { id, name, .. } = e {
                names.insert(*id, name);
            }
        }
        let ts = |out: &mut String, ns: u64| {
            let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
        };
        let mut out = String::new();
        out.push_str("{\"traceEvents\":[\n");
        for (i, (tid, e)) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            match e {
                TraceEvent::Begin {
                    id,
                    parent,
                    name,
                    ts_ns,
                } => {
                    let _ = write!(out, "{{\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":");
                    ts(&mut out, *ts_ns);
                    out.push_str(",\"name\":");
                    escape_into(&mut out, name);
                    let _ = write!(out, ",\"args\":{{\"id\":{id},\"parent\":{parent}}}}}");
                }
                TraceEvent::End { id, ts_ns } => {
                    let _ = write!(out, "{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":");
                    ts(&mut out, *ts_ns);
                    out.push_str(",\"name\":");
                    escape_into(&mut out, names.get(id).copied().unwrap_or("?"));
                    out.push('}');
                }
                TraceEvent::Gauge { name, value, ts_ns } => {
                    let _ = write!(out, "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":");
                    ts(&mut out, *ts_ns);
                    out.push_str(",\"name\":");
                    escape_into(&mut out, name);
                    let _ = write!(out, ",\"args\":{{\"value\":{value}}}}}");
                }
                TraceEvent::Instant {
                    name,
                    detail,
                    ts_ns,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":"
                    );
                    ts(&mut out, *ts_ns);
                    out.push_str(",\"name\":");
                    escape_into(&mut out, name);
                    out.push_str(",\"args\":{\"detail\":");
                    escape_into(&mut out, detail);
                    out.push_str("}}");
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Folded stacks: one `frame;frame;frame self_ns` line per distinct
    /// span path, values in nanoseconds of *self* time (child time is
    /// attributed to the child's line). Lines are path-sorted, so the
    /// output is deterministic given identical event sequences. Feed to
    /// `flamegraph.pl` or `inferno-flamegraph` as-is.
    pub fn to_folded(&self) -> String {
        let mut self_ns: BTreeMap<String, u64> = BTreeMap::new();
        // Per-thread replay. Spans are RAII on their thread, so events
        // from one tid are properly nested in emission order.
        let mut tids: Vec<u32> = self.events.iter().map(|&(t, _)| t).collect();
        tids.dedup();
        for tid in tids {
            // Stack frames: (name, child_ns).
            let mut stack: Vec<(&str, u64)> = Vec::new();
            let mut path = String::new();
            let mut starts: Vec<u64> = Vec::new();
            let mut last_ts = 0u64;
            let events = self
                .events
                .iter()
                .filter(|&&(t, _)| t == tid)
                .map(|(_, e)| e);
            let mut close = |stack: &mut Vec<(&str, u64)>,
                             starts: &mut Vec<u64>,
                             path: &mut String,
                             ts: u64| {
                let (Some((name, child_ns)), Some(start)) = (stack.pop(), starts.pop()) else {
                    return;
                };
                let total = ts.saturating_sub(start);
                *self_ns.entry(path.clone()).or_insert(0) += total.saturating_sub(child_ns);
                path.truncate(path.len() - name.len());
                if path.ends_with(';') {
                    path.pop();
                }
                if let Some(top) = stack.last_mut() {
                    top.1 += total;
                }
            };
            for e in events {
                last_ts = e.ts_ns();
                match e {
                    TraceEvent::Begin { name, ts_ns, .. } => {
                        if !path.is_empty() {
                            path.push(';');
                        }
                        path.push_str(name);
                        stack.push((name, 0));
                        starts.push(*ts_ns);
                    }
                    TraceEvent::End { ts_ns, .. } => {
                        if !stack.is_empty() {
                            close(&mut stack, &mut starts, &mut path, *ts_ns);
                        }
                    }
                    TraceEvent::Gauge { .. } | TraceEvent::Instant { .. } => {}
                }
            }
            // Spans still open at the end of the thread's events close at
            // the thread's last timestamp.
            while !stack.is_empty() {
                close(&mut stack, &mut starts, &mut path, last_ts);
            }
        }
        let mut out = String::new();
        for (path, ns) in &self_ns {
            let _ = writeln!(out, "{path} {ns}");
        }
        out
    }

    /// Structured JSONL event log: a leading `meta` line, then one JSON
    /// object per event. Field names and order are stable (schema
    /// guarded by [`JSONL_SCHEMA_VERSION`]); `ts_ns` is always last, so
    /// `sed -E 's/,"ts_ns":[0-9]+//'` yields the timestamp-free event
    /// sequence the determinism gate compares.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"ev\":\"meta\",\"schema\":{JSONL_SCHEMA_VERSION},\"events\":{}}}",
            self.events.len()
        );
        for (tid, e) in &self.events {
            match e {
                TraceEvent::Begin {
                    id,
                    parent,
                    name,
                    ts_ns,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ev\":\"begin\",\"tid\":{tid},\"id\":{id},\"parent\":{parent},\
                         \"name\":"
                    );
                    escape_into(&mut out, name);
                    let _ = writeln!(out, ",\"ts_ns\":{ts_ns}}}");
                }
                TraceEvent::End { id, ts_ns } => {
                    let _ = writeln!(
                        out,
                        "{{\"ev\":\"end\",\"tid\":{tid},\"id\":{id},\"ts_ns\":{ts_ns}}}"
                    );
                }
                TraceEvent::Gauge { name, value, ts_ns } => {
                    let _ = write!(out, "{{\"ev\":\"gauge\",\"tid\":{tid},\"name\":");
                    escape_into(&mut out, name);
                    let _ = writeln!(out, ",\"value\":{value},\"ts_ns\":{ts_ns}}}");
                }
                TraceEvent::Instant {
                    name,
                    detail,
                    ts_ns,
                } => {
                    let _ = write!(out, "{{\"ev\":\"instant\",\"tid\":{tid},\"name\":");
                    escape_into(&mut out, name);
                    out.push_str(",\"detail\":");
                    escape_into(&mut out, detail);
                    let _ = writeln!(out, ",\"ts_ns\":{ts_ns}}}");
                }
            }
        }
        out
    }

    /// Write all three exports next to `path`: the Chrome JSON at `path`
    /// itself, folded stacks at `path` with extension `folded`, and the
    /// JSONL log at `path` with extension `jsonl`. Returns the paths
    /// written.
    pub fn write_files(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
        let folded = path.with_extension("folded");
        let jsonl = path.with_extension("jsonl");
        std::fs::write(path, self.to_chrome_json())?;
        std::fs::write(&folded, self.to_folded())?;
        std::fs::write(&jsonl, self.to_jsonl())?;
        Ok(vec![path.to_path_buf(), folded, jsonl])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strip `,"ts_ns":N` from a JSONL export — the determinism
    /// comparison the check.sh gate performs with sed.
    fn strip_ts(jsonl: &str) -> String {
        let mut out = String::new();
        for line in jsonl.lines() {
            match line.find(",\"ts_ns\":") {
                Some(i) => {
                    let tail = &line[i + 9..];
                    let end = tail
                        .find(|c: char| !c.is_ascii_digit())
                        .unwrap_or(tail.len());
                    out.push_str(&line[..i]);
                    out.push_str(&tail[end..]);
                }
                None => out.push_str(line),
            }
            out.push('\n');
        }
        out
    }

    fn run_workload() -> TraceLog {
        {
            let _outer = crate::span!("trace_test_outer");
            gauge("trace_test_gauge", 7);
            {
                let _inner = crate::span!("trace_test_inner");
                instant("trace_test_instant", "detail!");
            }
        }
        drain()
    }

    #[test]
    fn spans_record_parent_child_ids() {
        let _g = crate::testutil::guard();
        reset();
        set_enabled(true);
        let log = run_workload();
        set_enabled(false);
        assert_eq!(log.len(), 6, "{:?}", log.events());
        let begins: Vec<_> = log
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                TraceEvent::Begin {
                    id, parent, name, ..
                } => Some((*id, *parent, *name)),
                _ => None,
            })
            .collect();
        assert_eq!(begins.len(), 2);
        let (outer_id, outer_parent, outer_name) = begins[0];
        let (_, inner_parent, inner_name) = begins[1];
        assert_eq!(outer_name, "trace_test_outer");
        assert_eq!(inner_name, "trace_test_inner");
        assert_eq!(outer_parent, 0, "outer span is a root");
        assert_eq!(inner_parent, outer_id, "inner span's parent is outer");
        // Ends pair up in LIFO order.
        let ends: Vec<u64> = log
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                TraceEvent::End { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ends.len(), 2);
        assert_eq!(ends[1], outer_id);
    }

    #[test]
    fn exports_are_valid_and_deterministic_modulo_timestamps() {
        let _g = crate::testutil::guard();
        reset();
        set_enabled(true);
        let log_a = run_workload();
        reset();
        let log_b = run_workload();
        set_enabled(false);

        // Chrome export parses as JSON with one event object per record.
        let chrome = log_a.to_chrome_json();
        let parsed = crate::parse_json(&chrome).expect("chrome export is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        assert_eq!(events.len(), log_a.len());
        assert!(chrome.contains("\"ph\":\"C\""), "gauge became a counter");
        assert!(chrome.contains("\"ph\":\"i\""), "instant event present");

        // Folded stacks contain both paths with positive self time.
        let folded = log_a.to_folded();
        assert!(
            folded.lines().any(|l| l.starts_with("trace_test_outer ")),
            "{folded}"
        );
        assert!(
            folded
                .lines()
                .any(|l| l.starts_with("trace_test_outer;trace_test_inner ")),
            "{folded}"
        );

        // JSONL: stable schema, identical across runs once timestamps go.
        let a = log_a.to_jsonl();
        let b = log_b.to_jsonl();
        assert!(a.starts_with("{\"ev\":\"meta\",\"schema\":1,"));
        assert_eq!(strip_ts(&a), strip_ts(&b), "event sequences must match");
        assert_ne!(a, b, "wall-clock timestamps differ between runs");
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = crate::testutil::guard();
        reset();
        set_enabled(false);
        {
            let _s = crate::span!("trace_test_disabled");
            gauge("trace_test_disabled_gauge", 1);
            instant("trace_test_disabled_instant", "");
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn worker_thread_buffers_survive_thread_exit() {
        let _g = crate::testutil::guard();
        reset();
        set_enabled(true);
        // Join the handle explicitly: the scope's implicit join can
        // return before the worker's thread-local buffer is flushed by
        // its destructor, while `join` waits for the thread to exit.
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _w = crate::span!("trace_test_worker");
            });
            assert!(worker.join().is_ok(), "worker panicked");
        });
        let log = drain();
        set_enabled(false);
        let names: Vec<&str> = log
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                TraceEvent::Begin { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["trace_test_worker"]);
    }

    #[test]
    fn stats_and_trace_compose() {
        let _g = crate::testutil::guard();
        reset();
        crate::reset();
        crate::set_enabled(true);
        set_enabled(true);
        {
            let _s = crate::span!("trace_test_both");
        }
        set_enabled(false);
        crate::set_enabled(false);
        let log = drain();
        assert_eq!(log.len(), 2, "begin + end");
        assert!(
            crate::snapshot()
                .histogram("span.trace_test_both")
                .is_some(),
            "histogram recorded alongside the trace"
        );
        crate::reset();
    }
}
