//! Certificate-slack reports: dynamic validation of the static bounds.
//!
//! The audit layer proves, per plan, that no undirected host edge carries
//! more than `congestion_bound` routes. Under a nearest-neighbor phase
//! (every guest edge exchanging `flits` both ways at once), the flits that
//! cross any *directed* link during that phase are therefore at most
//! `flits × congestion_bound`: each undirected edge's routes contribute
//! their flits to one direction each (a route traverses a directed link
//! once), and forward + reverse traversals of the same directed link are
//! counted by the same undirected congestion certificate.
//!
//! The slack report measures the dynamic side of that inequality with the
//! replay engine — peak per-link flits attributed by injection window,
//! with the window equal to the phase period so each window holds exactly
//! one phase — and joins it against [`cubemesh_audit::check_plan`]. A
//! violation (measured > certified) means either the certifier or the
//! router is wrong, and is reported as an error rather than a data point.

use crate::engine::{replay, ReplayConfig, ReplayError};
use crate::synth::stencil_trace;
use cubemesh_audit::{check_plan, AuditError, Certificate};
use cubemesh_core::{construct, plan_shape, ConstructError, Planner};
use cubemesh_netsim::Switching;
use cubemesh_obs as obs;
use cubemesh_topology::Shape;
use std::fmt;

/// Why a slack report could not be produced.
#[derive(Clone, Debug)]
pub enum SlackError {
    /// The planner found no minimal-expansion plan for the shape, so
    /// there is no certificate to validate against.
    NoPlan {
        /// The unplannable shape.
        shape: Shape,
    },
    /// The plan failed static certification (a planner bug).
    Audit(AuditError),
    /// The certified plan could not be lowered to an embedding.
    Construct(ConstructError),
    /// The replay itself failed.
    Replay(ReplayError),
    /// The measured dynamic peak exceeded the certified ceiling — the
    /// soundness bug the whole report exists to catch.
    Violation {
        /// The offending shape.
        shape: Shape,
        /// Measured peak flits per (link, phase).
        measured: u64,
        /// Certified ceiling `flits × congestion_bound`.
        certified: u64,
    },
}

impl fmt::Display for SlackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlackError::NoPlan { shape } => {
                write!(
                    f,
                    "no minimal-expansion plan for {shape}; nothing to certify"
                )
            }
            SlackError::Audit(e) => write!(f, "static certification failed: {e}"),
            SlackError::Construct(e) => write!(f, "plan lowering failed: {e}"),
            SlackError::Replay(e) => write!(f, "replay failed: {e}"),
            SlackError::Violation {
                shape,
                measured,
                certified,
            } => write!(
                f,
                "certificate violated for {shape}: measured {measured} flits per \
                 link-phase exceeds the certified {certified}"
            ),
        }
    }
}

impl std::error::Error for SlackError {}

impl From<AuditError> for SlackError {
    fn from(e: AuditError) -> Self {
        SlackError::Audit(e)
    }
}

impl From<ReplayError> for SlackError {
    fn from(e: ReplayError) -> Self {
        SlackError::Replay(e)
    }
}

/// One shape's static-vs-dynamic congestion comparison.
#[derive(Clone, Debug)]
pub struct SlackEntry {
    /// The measured shape.
    pub shape: Shape,
    /// Its static certificate.
    pub certificate: Certificate,
    /// Flits per message in the replayed stencil phases.
    pub flits: u32,
    /// Number of stencil phases replayed.
    pub phases: u64,
    /// Phase period = replay window, in cycles.
    pub period: u64,
    /// Total messages replayed (`2 × guest edges × phases`).
    pub messages: u64,
    /// The certified ceiling: `flits × congestion_bound` flits may cross
    /// any directed link per phase.
    pub static_peak_flits: u64,
    /// The measured peak: max over (link, phase) of flits injected in
    /// that phase crossing that link.
    pub dynamic_peak_flits: u64,
    /// `static − dynamic` (how much of the certified ceiling went unused).
    pub slack_flits: u64,
    /// `dynamic / static` — how tight the certificate is in practice.
    pub utilization: f64,
    /// `true` when the measurement exceeds the certificate — a soundness
    /// bug somewhere; reporting functions treat this as an error.
    pub violation: bool,
    /// Makespan of the whole replayed run, in cycles.
    pub makespan: u64,
    /// Number of replay windows (= phases, plus drain windows if the last
    /// phase outlived its period).
    pub windows: u64,
}

impl SlackEntry {
    /// Single-line JSON with stable field order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shape\":\"{}\",\"host_dim\":{},\"dilation_bound\":{},\
             \"congestion_bound\":{},\"expansion\":{:.4},\"minimal\":{},\
             \"flits\":{},\"phases\":{},\"period\":{},\"messages\":{},\
             \"static_peak_flits\":{},\"dynamic_peak_flits\":{},\
             \"slack_flits\":{},\"utilization\":{:.6},\"violation\":{},\
             \"makespan\":{},\"windows\":{}}}",
            dims_of(&self.shape),
            self.certificate.host_dim,
            self.certificate.dilation_bound,
            self.certificate.congestion_bound,
            self.certificate.expansion,
            self.certificate.minimal,
            self.flits,
            self.phases,
            self.period,
            self.messages,
            self.static_peak_flits,
            self.dynamic_peak_flits,
            self.slack_flits,
            self.utilization,
            self.violation,
            self.makespan,
            self.windows,
        )
    }
}

/// `lᵢ x lⱼ x …` rendering used in JSON and tables.
fn dims_of(shape: &Shape) -> String {
    (0..shape.rank())
        .map(|axis| shape.len(axis).to_string())
        .collect::<Vec<_>>()
        .join("x")
}

/// Measure one shape: plan → certify → construct → replay a periodic
/// stencil exchange with window = period → join.
///
/// The period is `4 × dilation_bound × flits` cycles (comfortably past a
/// phase's uncontended service time), so phases drain before the next one
/// lands and every injection window holds exactly one phase.
pub fn certificate_slack(
    shape: &Shape,
    flits: u32,
    phases: u64,
    switching: Switching,
) -> Result<SlackEntry, SlackError> {
    let _span = obs::span!("replay.slack");
    let plan = plan_shape(&mut Planner::new(), shape)
        .ok_or_else(|| SlackError::NoPlan {
            shape: shape.clone(),
        })?
        .plan;
    let cert = check_plan(shape, &plan)?;
    let emb = construct(shape, &plan).map_err(SlackError::Construct)?;
    let period = (4 * cert.dilation_bound as u64 * flits as u64).max(1);
    let trace = stencil_trace(emb.edge_count(), flits, period, phases);
    let messages = trace.len() as u64;
    let cfg = ReplayConfig {
        switching,
        window: period,
    };
    let report = replay(&emb, &trace, &cfg)?;
    let static_peak_flits = flits as u64 * cert.congestion_bound as u64;
    let dynamic_peak_flits = report.peak_link_flits_per_window;
    obs::counter!("replay.slack.shapes").add(1);
    Ok(SlackEntry {
        shape: shape.clone(),
        certificate: cert,
        flits,
        phases,
        period,
        messages,
        static_peak_flits,
        dynamic_peak_flits,
        slack_flits: static_peak_flits.saturating_sub(dynamic_peak_flits),
        utilization: dynamic_peak_flits as f64 / static_peak_flits.max(1) as f64,
        violation: dynamic_peak_flits > static_peak_flits,
        makespan: report.result.makespan,
        windows: report.windows.len() as u64,
    })
}

/// [`certificate_slack`] over a catalog of shapes. Shapes the planner
/// cannot handle are skipped (they have no certificate to validate);
/// any *violation* — a measurement above the certified ceiling — is
/// returned as an error naming the first offending shape.
pub fn slack_report(
    shapes: &[Shape],
    flits: u32,
    phases: u64,
    switching: Switching,
) -> Result<Vec<SlackEntry>, SlackError> {
    let mut entries = Vec::with_capacity(shapes.len());
    for shape in shapes {
        let entry = match certificate_slack(shape, flits, phases, switching) {
            Ok(e) => e,
            Err(SlackError::NoPlan { .. }) => continue,
            Err(e) => return Err(e),
        };
        if entry.violation {
            return Err(SlackError::Violation {
                shape: shape.clone(),
                measured: entry.dynamic_peak_flits,
                certified: entry.static_peak_flits,
            });
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// Render a slack report as one JSON object (stable order, one entry per
/// measured shape).
pub fn slack_report_json(entries: &[SlackEntry]) -> String {
    let mut out = String::from("{\"report\":\"certificate-slack\",\"entries\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e.to_json());
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_shape_has_unit_congestion_and_no_violation() {
        let entry = certificate_slack(&Shape::new(&[4, 4, 4]), 8, 3, Switching::StoreAndForward)
            .expect("4x4x4 is plannable");
        assert_eq!(entry.certificate.congestion_bound, 1);
        assert_eq!(entry.static_peak_flits, 8);
        assert!(!entry.violation);
        // A Gray embedding routes every guest edge over its own host edge,
        // so each direction carries exactly one message per phase.
        assert_eq!(entry.dynamic_peak_flits, 8);
        assert_eq!(entry.utilization, 1.0);
    }

    #[test]
    fn direct_shape_stays_within_its_certificate() {
        let entry = certificate_slack(&Shape::new(&[3, 5]), 8, 2, Switching::StoreAndForward)
            .expect("3x5 is in the catalog");
        assert_eq!(entry.certificate.congestion_bound, 2);
        assert!(!entry.violation);
        assert!(entry.dynamic_peak_flits <= entry.static_peak_flits);
        assert!(entry.dynamic_peak_flits >= entry.flits as u64);
    }

    #[test]
    fn report_covers_plannable_shapes_and_skips_open_ones() {
        let shapes = [
            Shape::new(&[3, 3, 3]),
            Shape::new(&[5, 5, 5]), // planner returns None — skipped
            Shape::new(&[3, 5]),
        ];
        let entries =
            slack_report(&shapes, 4, 2, Switching::StoreAndForward).expect("no violations");
        assert_eq!(entries.len(), 2);
        let json = slack_report_json(&entries);
        assert!(json.contains("\"shape\":\"3x3x3\""));
        assert!(json.contains("\"violation\":false"));
        let parsed = cubemesh_obs::parse_json(&json).expect("valid json");
        assert_eq!(
            parsed
                .get("entries")
                .and_then(|e| e.as_arr())
                .map(|a| a.len()),
            Some(2)
        );
    }
}
