//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request. Requests are
//! parsed with the workspace's own JSON parser
//! ([`cubemesh_obs::parse_json`]); responses are rendered by hand so
//! the service stays zero-dependency.
//!
//! ```text
//! → {"op":"plan","shapes":[[3,5,17],[5,5,5]]}
//! ← {"ok":true,"results":[{...certificate, floors, gap...}, ...]}
//! → {"op":"resolve","shape":[5,6,7]}
//! ← {"ok":true,"resolved":{...measured embedding figures...}}
//! → {"op":"stats"}            ← {"ok":true,"stats":{...}}
//! → {"op":"shutdown"}         ← {"ok":true,"shutting_down":true}
//! ```
//!
//! Batched `plan` queries answer per-shape: an inadmissible shape gets
//! an `{"shape":..,"error":..}` entry without failing its batch.
//! Fingerprints travel as `"0x…"` strings — JSON numbers are doubles
//! and would corrupt 64-bit hashes.

use crate::engine::{QueryEngine, Resolved, Source, StatsSnapshot};
use crate::ServiceError;
use cubemesh_obs::{json_escape_into, parse_json, JsonValue};
use cubemesh_plandb::{PlanRecord, RecordStatus};
use std::fmt::Write as _;

/// Bound on shapes per batched request, so one line cannot queue
/// unbounded work.
pub const MAX_BATCH: usize = 1 << 16;

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Batched shape → plan query.
    Plan {
        /// The queried extents, one entry per shape.
        shapes: Vec<Vec<usize>>,
    },
    /// Deferred construction of one shape's embedding.
    Resolve {
        /// The shape to resolve.
        dims: Vec<usize>,
    },
    /// Engine statistics.
    Stats,
    /// Graceful shutdown.
    Shutdown,
}

fn parse_dims(v: &JsonValue) -> Result<Vec<usize>, String> {
    let arr = v.as_arr().ok_or("shape must be an array of extents")?;
    let mut dims = Vec::with_capacity(arr.len().min(16));
    for d in arr {
        let n = d.as_u64().ok_or("extents must be non-negative integers")?;
        dims.push(usize::try_from(n).map_err(|_| "extent too large".to_owned())?);
    }
    Ok(dims)
}

/// Parse one request line. Errors are protocol-level (malformed JSON,
/// unknown op, oversized batch) — shape-level problems surface in the
/// per-shape results instead.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line).map_err(|(at, what)| format!("bad JSON at byte {at}: {what}"))?;
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"op\"")?;
    match op {
        "plan" => {
            let shapes = v
                .get("shapes")
                .and_then(JsonValue::as_arr)
                .ok_or("plan needs \"shapes\": [[extents], ...]")?;
            if shapes.len() > MAX_BATCH {
                return Err(format!("batch of {} exceeds {MAX_BATCH}", shapes.len()));
            }
            let mut out = Vec::with_capacity(shapes.len());
            for s in shapes {
                out.push(parse_dims(s)?);
            }
            Ok(Request::Plan { shapes: out })
        }
        "resolve" => {
            let dims = v
                .get("shape")
                .ok_or("resolve needs \"shape\": [extents]")
                .and_then(|s| parse_dims(s).map_err(|_| "resolve needs \"shape\": [extents]"))?;
            Ok(Request::Resolve { dims })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn push_dims(out: &mut String, dims: &[usize]) {
    out.push('[');
    for (i, d) in dims.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{d}");
    }
    out.push(']');
}

fn push_str_field(out: &mut String, key: &str, val: &str) {
    // `json_escape_into` emits the surrounding quotes itself.
    let _ = write!(out, "\"{key}\":");
    json_escape_into(out, val);
}

fn push_record(out: &mut String, rec: &PlanRecord, source: Source) {
    out.push_str("{\"shape\":");
    push_dims(out, &rec.key);
    let status = match rec.status {
        RecordStatus::Certified => "certified",
        RecordStatus::NoDilation2Plan => "no-dilation2-plan",
    };
    let _ = write!(
        out,
        ",\"status\":\"{status}\",\"source\":\"{}\",",
        source.as_str()
    );
    push_str_field(out, "strategy", &rec.strategy);
    let _ = write!(out, ",\"confidence\":{},", rec.confidence);
    push_str_field(out, "plan", &rec.plan_text);
    let _ = write!(
        out,
        ",\"fingerprint\":\"0x{:016x}\",\"certificate\":{{\"host_dim\":{},\"dilation\":{},\"congestion\":{},\"load\":{},\"expansion\":{},\"minimal\":{}}},\"floors\":{{\"host_dim\":{},\"dilation\":{},\"congestion\":{},\"load\":{}}},\"gap\":{{\"host_dim\":{},\"dilation\":{}}}}}",
        rec.fingerprint,
        rec.cert.host_dim,
        rec.cert.dilation,
        rec.cert.congestion,
        rec.cert.load,
        rec.cert.expansion,
        rec.cert.minimal,
        rec.floors.host_dim,
        rec.floors.dilation,
        rec.floors.congestion,
        rec.floors.load,
        rec.host_dim_gap(),
        rec.dilation_gap(),
    );
}

fn push_shape_error(out: &mut String, dims: &[usize], err: &ServiceError) {
    out.push_str("{\"shape\":");
    push_dims(out, dims);
    out.push(',');
    push_str_field(out, "error", &err.to_string());
    out.push('}');
}

fn render_resolved(r: &Resolved) -> String {
    let mut out = String::from("{\"ok\":true,\"resolved\":{\"shape\":");
    push_dims(&mut out, &r.key);
    let _ = write!(
        out,
        ",\"nodes\":{},\"host_dim\":{},\"dilation\":{},\"congestion\":{},\"expansion\":{},\"minimal\":{},\"within_certificate\":{}}}}}",
        r.nodes, r.host_dim, r.dilation, r.congestion, r.expansion, r.minimal, r.within_certificate,
    );
    out
}

fn render_stats(s: &StatsSnapshot) -> String {
    format!(
        "{{\"ok\":true,\"stats\":{{\"db_records\":{},\"overlay_records\":{},\"db_hits\":{},\"overlay_hits\":{},\"live_plans\":{},\"errors\":{}}}}}",
        s.db_records, s.overlay_records, s.db_hits, s.overlay_hits, s.live_plans, s.errors,
    )
}

/// Render a protocol-level error response.
pub fn render_error(detail: &str) -> String {
    let mut out = String::from("{\"ok\":false,");
    push_str_field(&mut out, "error", detail);
    out.push('}');
    out
}

/// Handle one request line against `engine`. Returns the response line
/// (without the trailing newline) and whether the server should shut
/// down after sending it.
pub fn handle_line(engine: &QueryEngine, line: &str) -> (String, bool) {
    cubemesh_obs::span!("service.request");
    let req = match parse_request(line) {
        Ok(req) => req,
        Err(detail) => {
            cubemesh_obs::counter!("service.request.bad").inc();
            return (render_error(&detail), false);
        }
    };
    match req {
        Request::Plan { shapes } => {
            let mut out = String::from("{\"ok\":true,\"results\":[");
            for (i, dims) in shapes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match engine.lookup(dims) {
                    Ok((rec, source)) => push_record(&mut out, &rec, source),
                    Err(e) => push_shape_error(&mut out, dims, &e),
                }
            }
            out.push_str("]}");
            cubemesh_obs::counter!("service.request.plan").inc();
            (out, false)
        }
        Request::Resolve { dims } => match engine.resolve(&dims) {
            Ok(r) => (render_resolved(&r), false),
            Err(e) => (render_error(&e.to_string()), false),
        },
        Request::Stats => (render_stats(&engine.stats()), false),
        Request::Shutdown => ("{\"ok\":true,\"shutting_down\":true}".to_owned(), true),
    }
}
