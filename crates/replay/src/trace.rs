//! The trace model: a time-ordered stream of injection events.
//!
//! A [`Trace`] is the dynamic counterpart of a static workload: every
//! event says *when* a message enters the network, *which route class* it
//! takes, and *how many flits* it carries. Routes are symbolic
//! ([`RouteSpec`]) so one trace replays against any embedding of the same
//! guest: a guest-edge event follows whatever route that embedding
//! assigned (the nearest-neighbor case the certificates bound), and a
//! node-pair event is routed e-cube between the mapped addresses (the
//! stress case they don't).
//!
//! Traces round-trip through a line-oriented JSONL format: one event per
//! line, `{"at":T,"flits":F,"edge":E,"rev":0|1}` for guest-edge events
//! and `{"at":T,"flits":F,"src":U,"dst":V}` for node-pair events. The
//! format is append-friendly (recording is a stream), order-insensitive
//! ([`Trace::load`] re-sorts), and dependency-free (parsed with the
//! workspace's own JSON parser).

use cubemesh_embedding::Embedding;
use cubemesh_netsim::{ecube_path, Message};
use cubemesh_obs as obs;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Which host-cube path an event's message follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteSpec {
    /// The embedding's route for guest edge `edge` (reversed when `reverse`
    /// is set) — nearest-neighbor traffic, the class the paper's congestion
    /// certificates bound.
    Edge {
        /// Guest edge id in the canonical enumeration order.
        edge: u32,
        /// Follow the route destination → source.
        reverse: bool,
    },
    /// An e-cube path between the images of two guest nodes — traffic the
    /// embedding did not optimize for.
    Pair {
        /// Source guest node index.
        src: u32,
        /// Destination guest node index.
        dst: u32,
    },
}

/// One injection: at cycle `at`, a message of `flits` flits enters on the
/// path named by `spec`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Injection cycle.
    pub at: u64,
    /// Route class.
    pub spec: RouteSpec,
    /// Payload size in flits.
    pub flits: u32,
}

/// Why a trace failed to parse or to resolve against an embedding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A JSONL line did not parse or lacked required fields.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An event names a guest edge the embedding does not have.
    EdgeOutOfRange {
        /// The offending edge id.
        edge: u32,
        /// The embedding's edge count.
        edges: usize,
    },
    /// An event names a guest node the embedding does not have.
    NodeOutOfRange {
        /// The offending node index.
        node: u32,
        /// The embedding's node count.
        nodes: usize,
    },
    /// An I/O failure while recording or loading.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse { line, message } => write!(f, "trace line {line}: {message}"),
            TraceError::EdgeOutOfRange { edge, edges } => {
                write!(f, "trace names guest edge {edge}, embedding has {edges}")
            }
            TraceError::NodeOutOfRange { node, nodes } => {
                write!(f, "trace names guest node {node}, embedding has {nodes}")
            }
            TraceError::Io(e) => write!(f, "trace i/o: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e.to_string())
    }
}

/// A time-ordered stream of injection events. The event list is kept
/// sorted by injection cycle (stably, so same-cycle events keep their
/// generation order — which makes replay deterministic and lets the
/// all-at-cycle-0 special case reproduce batch simulation exactly).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// The empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Build a trace from events in any order (stable-sorted by `at`).
    pub fn from_events(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Trace { events }
    }

    /// Append an event, restoring time order if it landed in the past.
    pub fn push(&mut self, ev: TraceEvent) {
        let out_of_order = self.events.last().is_some_and(|last| ev.at < last.at);
        self.events.push(ev);
        if out_of_order {
            self.events.sort_by_key(|e| e.at);
        }
    }

    /// The events, sorted by injection cycle.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// One cycle past the last injection (0 for an empty trace) — the
    /// open-loop horizon offered rates are measured against.
    pub fn horizon(&self) -> u64 {
        self.events.last().map_or(0, |e| e.at + 1)
    }

    /// Total offered payload, in flits.
    pub fn offered_flits(&self) -> u64 {
        self.events.iter().map(|e| e.flits as u64).sum()
    }

    /// Write the recorded JSONL form (one event per line).
    pub fn record<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for e in &self.events {
            match e.spec {
                RouteSpec::Edge { edge, reverse } => writeln!(
                    w,
                    "{{\"at\":{},\"flits\":{},\"edge\":{},\"rev\":{}}}",
                    e.at,
                    e.flits,
                    edge,
                    if reverse { 1 } else { 0 }
                )?,
                RouteSpec::Pair { src, dst } => writeln!(
                    w,
                    "{{\"at\":{},\"flits\":{},\"src\":{},\"dst\":{}}}",
                    e.at, e.flits, src, dst
                )?,
            }
        }
        Ok(())
    }

    /// Load a recorded trace. Lines are parsed with the workspace JSON
    /// parser; blank lines and `#` comments are skipped; events may be in
    /// any order (the result is re-sorted).
    pub fn load<R: BufRead>(r: R) -> Result<Trace, TraceError> {
        let mut events = Vec::new();
        for (i, line) in r.lines().enumerate() {
            let line = line?;
            let text = line.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            events.push(parse_event(i + 1, text)?);
        }
        Ok(Trace::from_events(events))
    }

    /// Resolve every event against `emb`, checking edge and node ranges.
    /// Returns the messages in injection order — the exact stream
    /// [`cubemesh_netsim::simulate_trace`] consumes.
    pub fn to_messages(&self, emb: &Embedding) -> Result<Vec<Message>, TraceError> {
        self.validate(emb)?;
        Ok(self.events.iter().map(|e| resolve(e, emb)).collect())
    }

    /// Range-check every event against `emb` without materializing
    /// messages — the precondition for [`Trace::messages_iter`].
    pub fn validate(&self, emb: &Embedding) -> Result<(), TraceError> {
        let edges = emb.edge_count();
        let nodes = emb.guest_nodes();
        for e in &self.events {
            match e.spec {
                RouteSpec::Edge { edge, .. } => {
                    if edge as usize >= edges {
                        return Err(TraceError::EdgeOutOfRange { edge, edges });
                    }
                }
                RouteSpec::Pair { src, dst } => {
                    for node in [src, dst] {
                        if node as usize >= nodes {
                            return Err(TraceError::NodeOutOfRange { node, nodes });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Stream the trace as messages without materializing the whole list —
    /// the incremental-injection path for long traces. Call
    /// [`Trace::validate`] first: events must be in range.
    pub fn messages_iter<'a>(&'a self, emb: &'a Embedding) -> impl Iterator<Item = Message> + 'a {
        self.events.iter().map(move |e| resolve(e, emb))
    }
}

/// Resolve one range-checked event to a concrete message.
fn resolve(e: &TraceEvent, emb: &Embedding) -> Message {
    match e.spec {
        RouteSpec::Edge { edge, reverse } => {
            let mut path = emb.route(edge as usize);
            if reverse {
                path.reverse();
            }
            Message::at(e.at, path, e.flits)
        }
        RouteSpec::Pair { src, dst } => Message::at(
            e.at,
            ecube_path(emb.image(src as usize), emb.image(dst as usize)),
            e.flits,
        ),
    }
}

// audit: taint-source(parse_event) — JSONL trace lines are untrusted;
// event fields must pass `Trace::validate` before indexing an embedding.
fn parse_event(line: usize, text: &str) -> Result<TraceEvent, TraceError> {
    let err = |message: String| TraceError::Parse { line, message };
    let v = obs::parse_json(text).map_err(|(pos, m)| err(format!("col {pos}: {m}")))?;
    let field = |name: &str| v.get(name).and_then(|x| x.as_u64());
    let at = field("at").ok_or_else(|| err("missing numeric 'at'".into()))?;
    let flits_raw = field("flits").ok_or_else(|| err("missing numeric 'flits'".into()))?;
    let flits =
        u32::try_from(flits_raw).map_err(|_| err(format!("flits {flits_raw} exceeds u32")))?;
    let narrow = |name: &str, raw: u64| {
        u32::try_from(raw).map_err(|_| err(format!("{name} {raw} exceeds u32")))
    };
    let spec = if let Some(edge) = field("edge") {
        RouteSpec::Edge {
            edge: narrow("edge", edge)?,
            reverse: field("rev").unwrap_or(0) != 0,
        }
    } else if let (Some(src), Some(dst)) = (field("src"), field("dst")) {
        RouteSpec::Pair {
            src: narrow("src", src)?,
            dst: narrow("dst", dst)?,
        }
    } else {
        return Err(err("event needs 'edge' or 'src'+'dst'".into()));
    };
    Ok(TraceEvent { at, spec, flits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_embedding::gray_mesh_embedding;
    use cubemesh_topology::Shape;

    fn sample() -> Trace {
        Trace::from_events(vec![
            TraceEvent {
                at: 4,
                spec: RouteSpec::Pair { src: 0, dst: 5 },
                flits: 8,
            },
            TraceEvent {
                at: 0,
                spec: RouteSpec::Edge {
                    edge: 2,
                    reverse: true,
                },
                flits: 16,
            },
            TraceEvent {
                at: 0,
                spec: RouteSpec::Edge {
                    edge: 1,
                    reverse: false,
                },
                flits: 16,
            },
        ])
    }

    #[test]
    fn from_events_sorts_stably() {
        let t = sample();
        assert_eq!(
            t.events()[0].spec,
            RouteSpec::Edge {
                edge: 2,
                reverse: true
            }
        );
        assert_eq!(
            t.events()[1].spec,
            RouteSpec::Edge {
                edge: 1,
                reverse: false
            }
        );
        assert_eq!(t.horizon(), 5);
        assert_eq!(t.offered_flits(), 40);
    }

    #[test]
    fn record_load_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        t.record(&mut buf).expect("write to vec");
        let back = Trace::load(&buf[..]).expect("parse own output");
        assert_eq!(t, back);
    }

    #[test]
    fn load_skips_comments_and_rejects_garbage() {
        let text = "# a comment\n\n{\"at\":1,\"flits\":2,\"edge\":0,\"rev\":0}\n";
        let t = Trace::load(text.as_bytes()).expect("comment + one event");
        assert_eq!(t.len(), 1);
        let bad = "{\"at\":1,\"flits\":2}\n";
        let err = Trace::load(bad.as_bytes()).expect_err("no route spec");
        assert!(matches!(err, TraceError::Parse { line: 1, .. }));
    }

    #[test]
    fn resolution_checks_ranges() {
        let shape = Shape::new(&[2, 3]);
        let emb = gray_mesh_embedding(&shape);
        let t = Trace::from_events(vec![TraceEvent {
            at: 0,
            spec: RouteSpec::Edge {
                edge: 999,
                reverse: false,
            },
            flits: 1,
        }]);
        assert!(matches!(
            t.to_messages(&emb),
            Err(TraceError::EdgeOutOfRange { edge: 999, .. })
        ));
        let t = Trace::from_events(vec![TraceEvent {
            at: 0,
            spec: RouteSpec::Pair { src: 0, dst: 6 },
            flits: 1,
        }]);
        assert!(matches!(
            t.to_messages(&emb),
            Err(TraceError::NodeOutOfRange { node: 6, .. })
        ));
    }

    #[test]
    fn push_restores_order() {
        let mut t = Trace::new();
        t.push(TraceEvent {
            at: 7,
            spec: RouteSpec::Pair { src: 0, dst: 1 },
            flits: 1,
        });
        t.push(TraceEvent {
            at: 3,
            spec: RouteSpec::Pair { src: 1, dst: 0 },
            flits: 1,
        });
        assert_eq!(t.events()[0].at, 3);
    }
}
