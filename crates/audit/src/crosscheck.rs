//! Certificate-vs-construction cross-checks.
//!
//! The static [`Certificate`](crate::Certificate) claims bounds a plan's
//! constructed embedding must satisfy; this module builds the real
//! embedding and compares. Any disagreement — measured dilation or
//! congestion above the certified bound, or a host-cube mismatch — is a
//! planner or constructor bug and surfaces as a [`CrosscheckError`]
//! naming the shape, without anyone having to stare at route dumps.

use crate::bounds::{manytoone_floors, mesh_floors, torus_floors, Floors};
use crate::certificate::{check_plan, AuditError, Certificate};
use crate::manytoone::{certify_contract, certify_fold};
use crate::torus::certify_torus;
use cubemesh_core::{construct, plan_shape, Planner};
use cubemesh_embedding::{load_factor, verify_many_to_one, VerifyError};
use cubemesh_manytoone::{build_corollary5, contract, plan_corollary5};
use cubemesh_obs as obs;
use cubemesh_topology::{cube_dim, Shape};
use cubemesh_torus::embed_torus_with;
use std::fmt;

/// A certificate cross-check failure for one shape.
#[derive(Clone, Debug, PartialEq)]
pub enum CrosscheckError {
    /// Static certification itself failed.
    Audit {
        /// The top-level shape whose plan failed to certify (the
        /// [`AuditError`] names the offending sub-shape).
        shape: Shape,
        /// The certification failure.
        error: AuditError,
    },
    /// The certified plan could not be lowered to an embedding.
    Construct {
        /// The failing shape.
        shape: Shape,
        /// The lowering failure.
        error: cubemesh_core::ConstructError,
    },
    /// The constructed embedding failed semantic verification.
    Verify {
        /// The failing shape.
        shape: Shape,
        /// The verifier's diagnosis.
        error: VerifyError,
    },
    /// Constructed host cube differs from the certified one.
    HostDimMismatch {
        /// The failing shape.
        shape: Shape,
        /// Host dimension the certificate derived.
        certified: u32,
        /// Host dimension the construction produced.
        constructed: u32,
    },
    /// Measured dilation exceeds the certified bound.
    DilationExceeded {
        /// The failing shape.
        shape: Shape,
        /// Certified upper bound.
        certified: u32,
        /// Measured value.
        measured: u32,
    },
    /// Measured congestion exceeds the certified bound.
    CongestionExceeded {
        /// The failing shape.
        shape: Shape,
        /// Certified upper bound.
        certified: u32,
        /// Measured value.
        measured: u32,
    },
    /// Measured load-factor exceeds the certified bound.
    LoadExceeded {
        /// The failing shape.
        shape: Shape,
        /// Certified upper bound.
        certified: u64,
        /// Measured value.
        measured: u64,
    },
    /// A certificate claims a figure strictly below a proven lower-bound
    /// floor — an internal error in the certifier or the floor oracle.
    CertBelowFloor {
        /// The failing shape.
        shape: Shape,
        /// Which figure of merit broke (`"dilation"`, `"congestion"`,
        /// `"load"`).
        metric: &'static str,
        /// The certified value.
        certified: u64,
        /// The proven floor it undercuts.
        floor: u64,
    },
    /// The certifier and the constructor disagree on coverage: one
    /// produced a plan where the other reported none.
    CoverageDisagreement {
        /// The failing shape.
        shape: Shape,
        /// `true` when the certifier covered the shape.
        certified: bool,
    },
}

impl fmt::Display for CrosscheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrosscheckError::Audit { shape, error } => {
                write!(f, "{shape}: static audit failed: {error}")
            }
            CrosscheckError::Construct { shape, error } => {
                write!(f, "{shape}: plan lowering failed: {error}")
            }
            CrosscheckError::Verify { shape, error } => {
                write!(f, "{shape}: constructed embedding invalid: {error}")
            }
            CrosscheckError::HostDimMismatch {
                shape,
                certified,
                constructed,
            } => write!(
                f,
                "{shape}: certificate says Q_{certified}, construction landed in Q_{constructed}"
            ),
            CrosscheckError::DilationExceeded {
                shape,
                certified,
                measured,
            } => write!(
                f,
                "{shape}: measured dilation {measured} exceeds certified {certified}"
            ),
            CrosscheckError::CongestionExceeded {
                shape,
                certified,
                measured,
            } => write!(
                f,
                "{shape}: measured congestion {measured} exceeds certified {certified}"
            ),
            CrosscheckError::LoadExceeded {
                shape,
                certified,
                measured,
            } => write!(
                f,
                "{shape}: measured load-factor {measured} exceeds certified {certified}"
            ),
            CrosscheckError::CertBelowFloor {
                shape,
                metric,
                certified,
                floor,
            } => write!(
                f,
                "{shape}: certified {metric} {certified} beats the proven floor {floor} \
                 (internal error)"
            ),
            CrosscheckError::CoverageDisagreement { shape, certified } => write!(
                f,
                "{shape}: certifier says {}, constructor says {}",
                if *certified { "feasible" } else { "infeasible" },
                if *certified { "infeasible" } else { "feasible" },
            ),
        }
    }
}

impl std::error::Error for CrosscheckError {}

/// Tallies from a [`sweep`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Canonical shapes enumerated.
    pub shapes: usize,
    /// Shapes the planner covered (and that were statically certified).
    pub certified: usize,
    /// Certified shapes whose embedding was also constructed and
    /// measured against the certificate.
    pub constructed: usize,
    /// Shapes the planner declined (the paper's open cases).
    pub unplanned: usize,
}

impl SweepReport {
    /// Count one checked case: certified (and, if `constructed`, built
    /// and measured) when it yields a certificate, open when it yields
    /// none. A failed check is passed on.
    fn tally(
        &mut self,
        case: Result<Option<Certificate>, CrosscheckError>,
        constructed: bool,
    ) -> Result<(), CrosscheckError> {
        let cert = case?;
        self.shapes += 1;
        if cert.is_some() {
            self.certified += 1;
            self.constructed += usize::from(constructed);
        } else {
            self.unplanned += 1;
        }
        Ok(())
    }
}

/// Certify the plan [`plan_shape`] picks for one shape and, if
/// `construct_it`, build the embedding and compare measured metrics
/// against the certificate.
///
/// Returns `Ok(None)` when the planner has no plan for the shape.
pub fn crosscheck_shape(
    planner: &mut Planner,
    shape: &Shape,
    construct_it: bool,
) -> Result<Option<Certificate>, CrosscheckError> {
    let Some(plan) = plan_shape(planner, shape).map(|hit| hit.plan) else {
        return Ok(None);
    };
    let cert = check_plan(shape, &plan).map_err(|error| CrosscheckError::Audit {
        shape: shape.clone(),
        error,
    })?;
    check_floors(shape, &cert, &mesh_floors(shape, cert.host_dim))?;
    if construct_it {
        let emb = construct(shape, &plan).map_err(|error| CrosscheckError::Construct {
            shape: shape.clone(),
            error,
        })?;
        emb.verify().map_err(|error| CrosscheckError::Verify {
            shape: shape.clone(),
            error,
        })?;
        check_measured(shape, &cert, &emb)?;
    }
    Ok(Some(cert))
}

/// Assert a certificate never undercuts the proven floors; any hit is an
/// internal error in either the certifier or the floor oracle.
fn check_floors(shape: &Shape, cert: &Certificate, floors: &Floors) -> Result<(), CrosscheckError> {
    if shape.nodes() <= 1 {
        return Ok(()); // a point has no edges; floors are vacuous
    }
    let below = |metric, certified: u64, floor: u64| {
        if certified < floor {
            Err(CrosscheckError::CertBelowFloor {
                shape: shape.clone(),
                metric,
                certified,
                floor,
            })
        } else {
            Ok(())
        }
    };
    below(
        "dilation",
        cert.dilation_bound as u64,
        floors.dilation as u64,
    )?;
    below(
        "congestion",
        cert.congestion_bound as u64,
        floors.congestion as u64,
    )?;
    below("load", cert.load_factor, floors.load)
}

/// Assert the constructed embedding's measured figures stay within the
/// certificate.
fn check_measured(
    shape: &Shape,
    cert: &Certificate,
    emb: &cubemesh_embedding::Embedding,
) -> Result<(), CrosscheckError> {
    if emb.host().dim() != cert.host_dim {
        return Err(CrosscheckError::HostDimMismatch {
            shape: shape.clone(),
            certified: cert.host_dim,
            constructed: emb.host().dim(),
        });
    }
    let m = emb.metrics();
    if m.dilation > cert.dilation_bound {
        return Err(CrosscheckError::DilationExceeded {
            shape: shape.clone(),
            certified: cert.dilation_bound,
            measured: m.dilation,
        });
    }
    if m.congestion > cert.congestion_bound {
        return Err(CrosscheckError::CongestionExceeded {
            shape: shape.clone(),
            certified: cert.congestion_bound,
            measured: m.congestion,
        });
    }
    let measured_load = load_factor(emb.map(), emb.host()) as u64;
    if measured_load > cert.load_factor {
        return Err(CrosscheckError::LoadExceeded {
            shape: shape.clone(),
            certified: cert.load_factor,
            measured: measured_load,
        });
    }
    Ok(())
}

/// Certify the torus driver's output for a wraparound `shape` and, if
/// `construct_it`, build the embedding and compare. `Ok(None)` when no
/// halving/quartering combination is feasible (and the driver agrees).
pub fn crosscheck_torus_shape(
    planner: &mut Planner,
    shape: &Shape,
    construct_it: bool,
) -> Result<Option<Certificate>, CrosscheckError> {
    let cert = certify_torus(shape, planner).map_err(|error| CrosscheckError::Audit {
        shape: shape.clone(),
        error,
    })?;
    let Some(cert) = cert else {
        if construct_it {
            if let Some(_out) = embed_torus_with(shape, planner) {
                return Err(CrosscheckError::CoverageDisagreement {
                    shape: shape.clone(),
                    certified: false,
                });
            }
        }
        return Ok(None);
    };
    check_floors(shape, &cert, &torus_floors(shape, cert.host_dim))?;
    if construct_it {
        let Some(out) = embed_torus_with(shape, planner) else {
            return Err(CrosscheckError::CoverageDisagreement {
                shape: shape.clone(),
                certified: true,
            });
        };
        out.embedding
            .verify()
            .map_err(|error| CrosscheckError::Verify {
                shape: shape.clone(),
                error,
            })?;
        check_measured(shape, &cert, &out.embedding)?;
    }
    Ok(Some(cert))
}

/// Certify a Corollary 5 fold of `shape` into `Q_n` and, if
/// `construct_it`, build and compare. `Ok(None)` when no cover exists.
pub fn crosscheck_fold_shape(
    shape: &Shape,
    n: u32,
    construct_it: bool,
) -> Result<Option<Certificate>, CrosscheckError> {
    let Some(plan) = plan_corollary5(shape, n) else {
        return Ok(None);
    };
    let cert = certify_fold(shape, &plan).map_err(|error| CrosscheckError::Audit {
        shape: shape.clone(),
        error,
    })?;
    check_floors(shape, &cert, &manytoone_floors(shape, n))?;
    if construct_it {
        let emb = build_corollary5(shape, &plan);
        verify_many_to_one(&emb).map_err(|error| CrosscheckError::Verify {
            shape: shape.clone(),
            error,
        })?;
        check_measured(shape, &cert, &emb)?;
    }
    Ok(Some(cert))
}

/// Certify a Lemma 5 contraction of the [`plan_shape`] embedding of
/// `base_shape` by `factors` and compare against the constructed
/// contraction. Returns `Ok(None)` when the base shape has no plan.
pub fn crosscheck_contract_shape(
    planner: &mut Planner,
    base_shape: &Shape,
    factors: &[usize],
) -> Result<Option<Certificate>, CrosscheckError> {
    let Some(plan) = plan_shape(planner, base_shape).map(|hit| hit.plan) else {
        return Ok(None);
    };
    let base_cert = check_plan(base_shape, &plan).map_err(|error| CrosscheckError::Audit {
        shape: base_shape.clone(),
        error,
    })?;
    let cert = certify_contract(base_shape, &base_cert, factors);
    let big_dims: Vec<usize> = base_shape
        .dims()
        .iter()
        .zip(factors)
        .map(|(&l, &f)| l * f)
        .collect();
    let big = Shape::new(&big_dims);
    let base_emb = construct(base_shape, &plan).map_err(|error| CrosscheckError::Construct {
        shape: base_shape.clone(),
        error,
    })?;
    let emb = contract(base_shape, &base_emb, factors);
    verify_many_to_one(&emb).map_err(|error| CrosscheckError::Verify {
        shape: big.clone(),
        error,
    })?;
    check_floors(&big, &cert, &manytoone_floors(&big, cert.host_dim))?;
    check_measured(&big, &cert, &emb)?;
    Ok(Some(cert))
}

/// Walk every canonical shape `a ≤ b ≤ c ≤ max_axis` under the span
/// `name`, letting `check` tally each one into the report, and publish
/// the tallies as the `<name>.shapes` / `.certified` / `.constructed` /
/// `.unplanned` counters. The first failing check ends the walk.
fn walk(
    name: &'static str,
    max_axis: usize,
    mut check: impl FnMut(&Shape, &mut SweepReport) -> Result<(), CrosscheckError>,
) -> Result<SweepReport, CrosscheckError> {
    let _span = obs::span!(name);
    let mut report = SweepReport::default();
    for a in 1..=max_axis {
        for b in a..=max_axis {
            for c in b..=max_axis {
                check(&Shape::new(&[a, b, c]), &mut report)?;
            }
        }
    }
    if obs::enabled() {
        for (field, n) in [
            ("shapes", report.shapes),
            ("certified", report.certified),
            ("constructed", report.constructed),
            ("unplanned", report.unplanned),
        ] {
            obs::counter_named(&format!("{name}.{field}")).add(n as u64);
        }
    }
    Ok(report)
}

/// Sweep every canonical 3-D shape `a ≤ b ≤ c ≤ max_axis` (rank-1/2 cases
/// arise through length-1 axes), statically certifying each
/// [`plan_shape`] answer; shapes with at most `construct_cap` nodes are
/// additionally constructed and measured against their certificate. The
/// whole sweep is timed under the `audit.crosscheck` span and tallied in
/// `audit.crosscheck.*` counters.
pub fn sweep(max_axis: usize, construct_cap: usize) -> Result<SweepReport, CrosscheckError> {
    let mut planner = Planner::new();
    walk("audit.crosscheck", max_axis, |shape, report| {
        let construct_it = shape.nodes() <= construct_cap;
        let case = crosscheck_shape(&mut planner, shape, construct_it);
        report.tally(case, construct_it)
    })
}

/// Sweep every canonical wraparound shape `a ≤ b ≤ c ≤ max_axis`,
/// certifying the torus driver's combination space for each; shapes with
/// at most `construct_cap` nodes are also constructed and measured.
/// Counters land under `audit.crosscheck.torus.*`.
pub fn sweep_torus(max_axis: usize, construct_cap: usize) -> Result<SweepReport, CrosscheckError> {
    let mut planner = Planner::new();
    walk("audit.crosscheck.torus", max_axis, |shape, report| {
        let construct_it = shape.nodes() <= construct_cap;
        let case = crosscheck_torus_shape(&mut planner, shape, construct_it);
        report.tally(case, construct_it)
    })
}

/// Sweep every canonical shape `a ≤ b ≤ c ≤ max_axis`, folding each into
/// cubes one and two dimensions below its minimal cube (Corollary 5) and
/// certifying + cross-checking whichever covers exist; shapes with at
/// most `construct_cap` nodes are also constructed and measured.
/// Counters land under `audit.crosscheck.fold.*`.
pub fn sweep_fold(max_axis: usize, construct_cap: usize) -> Result<SweepReport, CrosscheckError> {
    walk("audit.crosscheck.fold", max_axis, |shape, report| {
        let construct_it = shape.nodes() <= construct_cap;
        let minimal = cube_dim(shape.nodes() as u64);
        for n in (1..=2u32).filter_map(|drop| minimal.checked_sub(drop).filter(|&n| n >= 1)) {
            report.tally(crosscheck_fold_shape(shape, n, construct_it), construct_it)?;
        }
        Ok(())
    })
}

/// Sweep Lemma 5 contractions: every canonical base shape
/// `a ≤ b ≤ c ≤ max_axis` with at most `construct_cap` nodes, contracted
/// by a fixed spread of factor vectors, certified and cross-checked
/// against the constructed contraction. Counters land under
/// `audit.crosscheck.contract.*`.
pub fn sweep_contract(
    max_axis: usize,
    construct_cap: usize,
) -> Result<SweepReport, CrosscheckError> {
    const FACTORS: [[usize; 3]; 3] = [[2, 1, 1], [2, 2, 1], [3, 2, 2]];
    let mut planner = Planner::new();
    walk("audit.crosscheck.contract", max_axis, |shape, report| {
        if shape.nodes() <= construct_cap {
            for factors in &FACTORS {
                report.tally(
                    crosscheck_contract_shape(&mut planner, shape, factors),
                    true,
                )?;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples_crosscheck() {
        let mut planner = Planner::new();
        for dims in [
            vec![12usize, 20],
            vec![3, 25, 3],
            vec![5, 6, 7],
            vec![6, 6, 6],
            vec![10, 11],
        ] {
            let cert = crosscheck_shape(&mut planner, &Shape::new(&dims), true)
                .unwrap_or_else(|e| panic!("{:?}: {}", dims, e))
                .expect("planner covers the paper examples");
            assert!(cert.minimal, "{:?}", dims);
        }
    }

    #[test]
    fn open_case_reports_none() {
        let mut planner = Planner::new();
        let r = crosscheck_shape(&mut planner, &Shape::new(&[5, 5, 5]), true).unwrap();
        assert_eq!(r, None);
    }

    #[test]
    fn small_sweep_is_clean() {
        let report = sweep(8, 128).expect("sweep must be clean");
        assert_eq!(report.shapes, 120); // C(8+2,3) triples a<=b<=c<=8
        assert_eq!(report.certified + report.unplanned, report.shapes);
        assert!(report.certified > 100, "{report:?}");
    }

    #[test]
    fn small_torus_sweep_is_clean() {
        let report = sweep_torus(8, 128).expect("torus sweep must be clean");
        assert_eq!(report.shapes, 120);
        assert_eq!(report.certified + report.unplanned, report.shapes);
        assert!(report.certified > 0, "{report:?}");
    }

    #[test]
    fn small_fold_sweep_is_clean() {
        let report = sweep_fold(6, 128).expect("fold sweep must be clean");
        assert_eq!(report.certified + report.unplanned, report.shapes);
        assert!(report.certified > 0, "{report:?}");
    }

    #[test]
    fn small_contract_sweep_is_clean() {
        let report = sweep_contract(4, 64).expect("contract sweep must be clean");
        assert_eq!(report.certified + report.unplanned, report.shapes);
        assert!(report.certified > 0, "{report:?}");
    }

    #[test]
    fn torus_paper_examples_crosscheck() {
        let mut planner = Planner::new();
        for dims in [vec![6usize, 10], vec![5, 9], vec![4, 6, 10], vec![9, 17]] {
            crosscheck_torus_shape(&mut planner, &Shape::new(&dims), true)
                .unwrap_or_else(|e| panic!("{:?}: {}", dims, e))
                .unwrap_or_else(|| panic!("{:?} feasible", dims));
        }
    }

    #[test]
    fn fold_paper_example_crosschecks() {
        let cert = crosscheck_fold_shape(&Shape::new(&[19, 19]), 5, true)
            .expect("clean")
            .expect("19x19 covers into Q5");
        assert_eq!(cert.load_factor, 15);
    }
}
