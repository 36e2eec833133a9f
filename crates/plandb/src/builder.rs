//! The census-sweep builder: every canonical 3-D shape up to
//! `max_axis`, planned through the strategy ladder, certified, floored,
//! and written as one deterministic database file.
//!
//! Parallelism is block-structured: the canonical key list is cut into
//! fixed-size blocks, each block is one [`cubemesh_pool::run_tasks`]
//! task with its own [`Planner`] and strategy ladder, and results come
//! back in task-index order — so the produced records, the checkpoint
//! stream, and the final file bytes are identical at any pool width.
//! (Per-shape answers depend only on the shape: a planner memo is
//! shared *within* a block for speed, never across blocks.)
//!
//! Resumption is by checkpoint log: each chunk of finished records is
//! appended (CRC-framed, fdatasync'd) before the next chunk starts, so
//! an interrupted build loses at most one chunk of work and a re-run
//! with the same config picks up where the log ends.

use crate::format::{db_bytes, load_checkpoint, Checkpoint};
use crate::record::{CertSummary, FloorSummary, PlanRecord, RecordStatus};
use crate::{validate_key, DbError};
use cubemesh_audit::{check_plan, fnv1a, mesh_floors};
use cubemesh_core::{default_strategies, plan_with_strategies, Plan, PlanStrategy, Planner};
use cubemesh_obs as obs;
use cubemesh_topology::Shape;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Shapes per pool task. Fixed (not derived from the thread count) so
/// the block partition — and with it every produced byte — is the same
/// at any pool width.
const BLOCK_SHAPES: usize = 32;

/// Largest `max_axis` a build accepts: the paper's 512³ census, about
/// 2.25×10⁷ canonical keys. [`enumerate_keys`] holds every key in
/// memory, so the [`Shape::MAX_AXIS`] universe (~5.9×10¹² keys) would
/// grow the process until it is killed.
pub const MAX_BUILD_AXIS: usize = 512;

/// Census-sweep configuration.
#[derive(Clone, Debug)]
pub struct BuildConfig {
    /// Largest axis extent: the sweep covers every canonical shape
    /// `a ≤ b ≤ c ≤ max_axis`.
    pub max_axis: usize,
    /// Shapes planned between checkpoint appends.
    pub chunk_shapes: usize,
    /// Where to stream the resumable checkpoint log; `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
}

impl BuildConfig {
    /// A config sweeping up to `max_axis` with the default chunk size
    /// and no checkpoint.
    pub fn new(max_axis: usize) -> BuildConfig {
        BuildConfig {
            max_axis,
            chunk_shapes: 512,
            checkpoint: None,
        }
    }
}

/// What a build did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildReport {
    /// Canonical shapes in the swept universe (= records written).
    pub shapes: usize,
    /// Records with a certified minimal-expansion dilation-≤2 plan.
    pub certified: usize,
    /// Records in the exception set (Gray fallback).
    pub uncovered: usize,
    /// Shapes recovered from the checkpoint instead of re-planned.
    pub resumed: usize,
}

/// Enumerate the canonical keys of the 3-D census universe up to
/// `max_axis`: one key per sorted triple `1 ≤ a ≤ b ≤ c ≤ max_axis`,
/// in lexicographic triple order. Distinct triples canonicalize to
/// distinct keys (unit axes drop, order is already sorted), so the
/// list is duplicate-free.
pub fn enumerate_keys(max_axis: usize) -> Vec<Vec<usize>> {
    let mut keys = Vec::new();
    for a in 1..=max_axis {
        for b in a..=max_axis {
            for c in b..=max_axis {
                let key: Vec<usize> = [a, b, c].into_iter().filter(|&d| d > 1).collect();
                keys.push(if key.is_empty() { vec![1] } else { key });
            }
        }
    }
    keys
}

/// Plan, certify and floor one shape: the record the database stores
/// and the service's cold-miss path computes. `dims` may be any
/// admissible extents; the record is keyed by their canonical form.
pub fn plan_record(
    planner: &mut Planner,
    strategies: &[Box<dyn PlanStrategy + Send + Sync>],
    dims: &[usize],
) -> Result<PlanRecord, DbError> {
    let key = validate_key(dims)?;
    let shape = Shape::new(&key);
    let floors_at = shape.minimal_cube_dim();
    let floors = mesh_floors(&shape, floors_at);
    let (status, strategy, confidence, plan) =
        match plan_with_strategies(planner, &shape, strategies) {
            Some(hit) => (
                RecordStatus::Certified,
                hit.strategy.to_owned(),
                hit.confidence,
                hit.plan,
            ),
            // Exception set: record the best-known fallback explicitly.
            None => (
                RecordStatus::NoDilation2Plan,
                "gray-fallback".to_owned(),
                0,
                Plan::Gray,
            ),
        };
    let cert = check_plan(&shape, &plan).map_err(|e| DbError::Certify {
        shape: shape.to_string(),
        detail: e.to_string(),
    })?;
    // Rendered once: the fingerprint is FNV-1a of exactly this text
    // (`cubemesh_audit::fingerprint`'s definition).
    let plan_text = plan.to_canonical_string();
    Ok(PlanRecord {
        key,
        status,
        strategy,
        confidence,
        fingerprint: fnv1a(plan_text.as_bytes()),
        plan_text,
        cert: CertSummary {
            host_dim: cert.host_dim,
            dilation: cert.dilation_bound,
            congestion: cert.congestion_bound,
            load: cert.load_factor,
            expansion: cert.expansion,
            minimal: cert.minimal,
        },
        floors: FloorSummary {
            host_dim: floors.host_dim,
            dilation: floors.dilation,
            congestion: floors.congestion,
            load: floors.load,
        },
    })
}

/// Plan `pending` on the pool, one task with its own [`Planner`] per
/// block of [`BLOCK_SHAPES`] keys; the records come back in `pending`
/// order.
fn plan_blocks(pending: &[&Vec<usize>]) -> Result<Vec<PlanRecord>, DbError> {
    let blocks: Vec<&[&Vec<usize>]> = pending.chunks(BLOCK_SHAPES).collect();
    let results: Vec<Result<Vec<PlanRecord>, DbError>> =
        cubemesh_pool::run_tasks(blocks.len(), |b| {
            let mut planner = Planner::new();
            let strategies = default_strategies();
            let mut records = Vec::with_capacity(blocks[b].len());
            for key in blocks[b] {
                records.push(plan_record(&mut planner, &strategies, key)?);
            }
            Ok(records)
        });
    let mut fresh = Vec::with_capacity(pending.len());
    for block in results {
        fresh.extend(block?);
    }
    Ok(fresh)
}

/// Run the census sweep and write the database to `out`. Resumes from
/// `cfg.checkpoint` when the log exists; the final file is byte-
/// identical across pool widths and across fresh-vs-resumed runs.
pub fn build(cfg: &BuildConfig, out: &Path) -> Result<BuildReport, DbError> {
    obs::span!("plandb.build");
    if cfg.max_axis == 0 || cfg.max_axis > MAX_BUILD_AXIS {
        return Err(DbError::BadKey {
            reason: format!("max_axis {} out of 1..={MAX_BUILD_AXIS}", cfg.max_axis),
        });
    }
    let keys = enumerate_keys(cfg.max_axis);

    // Checkpointed records, by canonical key; fresh records never enter
    // this map.
    let mut done: HashMap<Vec<usize>, PlanRecord> = HashMap::new();
    if let Some(ck) = &cfg.checkpoint {
        for rec in load_checkpoint(ck)? {
            done.insert(rec.key.clone(), rec);
        }
    }
    // Only checkpoint entries inside this sweep's universe count as
    // resumed work (a log from a different max_axis partially applies).
    let resumed = keys.iter().filter(|k| done.contains_key(*k)).count();
    obs::counter!("plandb.build.resumed").add(resumed as u64);

    let mut log = match &cfg.checkpoint {
        Some(ck) => Some(Checkpoint::append_to(ck)?),
        None => None,
    };

    let mut records = Vec::with_capacity(keys.len());
    let chunk_shapes = cfg.chunk_shapes.max(1);
    for chunk in keys.chunks(chunk_shapes) {
        let pending: Vec<&Vec<usize>> = chunk.iter().filter(|k| !done.contains_key(*k)).collect();
        let fresh = plan_blocks(&pending)?;
        if let Some(log) = &mut log {
            // A fully resumed chunk appends (and syncs) nothing.
            if !fresh.is_empty() {
                log.append(&fresh)?;
            }
        }
        // Fresh records come back in `pending` order, which is the
        // chunk's key order with the resumed keys left out: walking the
        // chunk interleaves the two and keeps `records` in key order.
        let mut fresh = fresh.into_iter();
        for key in chunk {
            match done.remove(key).or_else(|| fresh.next()) {
                Some(rec) => records.push(rec),
                None => {
                    return Err(DbError::Corrupt {
                        offset: 0,
                        what: format!("sweep produced no record for key {key:?}"),
                    })
                }
            }
        }
    }
    let certified = records
        .iter()
        .filter(|r| r.status == RecordStatus::Certified)
        .count();
    let uncovered = records.len() - certified;
    obs::counter!("plandb.build.certified").add(certified as u64);
    obs::counter!("plandb.build.uncovered").add(uncovered as u64);

    let max_axis_wire = u32::try_from(cfg.max_axis).map_err(|_| DbError::BadKey {
        reason: format!("max_axis {} does not fit the wire format", cfg.max_axis),
    })?;
    let bytes = db_bytes(max_axis_wire, &records)?;
    std::fs::write(out, &bytes)?;
    Ok(BuildReport {
        shapes: records.len(),
        certified,
        uncovered,
        resumed,
    })
}
