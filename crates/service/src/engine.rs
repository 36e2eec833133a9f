//! The query engine: database hits, an in-memory overlay of previously
//! answered cold misses, and a live planning path that certifies on the
//! fly and streams new records to a write-behind overflow log.
//!
//! The engine is the protocol-agnostic core — the TCP server, the
//! loopback tests and the benchmark rungs all drive it through
//! [`QueryEngine::lookup`] / [`QueryEngine::resolve`]. Lookup order is
//! database → overlay → live plan; only the miss path takes the planner
//! lock, so a warm database serves concurrent batches with no write
//! contention at all.
//!
//! Cold-miss persistence is *write-behind*: the answer returns as soon
//! as the record exists, and a dedicated writer thread appends it to
//! the overflow log (same CRC-framed format as the builder checkpoint,
//! so `plandb::load_checkpoint` merges it back into the next build).

use crate::ServiceError;
use cubemesh_core::{construct, default_strategies, PlanStrategy, Planner};
use cubemesh_embedding::metrics::metrics;
use cubemesh_obs as obs;
use cubemesh_plandb::{plan_record, validate_key, Checkpoint, PlanDb, PlanRecord};
use cubemesh_topology::Shape;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;

/// Most cold-miss records the overlay holds, like
/// [`Planner::MEMO_LIMIT`] for the live planner's memo: the overlay
/// starts over (counted in `service.overlay.reset`) before the insert
/// that would pass it, so a server fed distinct misses stays bounded. A
/// miss that was dropped is planned live again.
pub const MAX_OVERLAY: usize = 1 << 14;

/// Where an answer came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Persisted census record, one `pread` away.
    Db,
    /// A cold miss answered earlier in this process.
    Overlay,
    /// Planned, certified and floored on this request.
    Live,
}

impl Source {
    /// Protocol name of the source.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Db => "db",
            Source::Overlay => "overlay",
            Source::Live => "live",
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Plan database to serve from; `None` serves everything live.
    pub db: Option<PathBuf>,
    /// Overflow log for cold-miss records; `None` disables persistence.
    pub overflow: Option<PathBuf>,
}

/// Point-in-time engine statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Records in the opened database (0 without one).
    pub db_records: usize,
    /// Cold-miss records currently held in the overlay.
    pub overlay_records: usize,
    /// Lookups answered from the database.
    pub db_hits: u64,
    /// Lookups answered from the overlay.
    pub overlay_hits: u64,
    /// Lookups planned live.
    pub live_plans: u64,
    /// Lookups rejected (bad keys, corrupt frames).
    pub errors: u64,
}

/// The measured result of resolving a plan to a concrete embedding.
#[derive(Clone, Debug, PartialEq)]
pub struct Resolved {
    /// Canonical key of the resolved shape.
    pub key: Vec<usize>,
    /// Guest node count.
    pub nodes: usize,
    /// Measured host dimension.
    pub host_dim: u32,
    /// Measured worst-case dilation.
    pub dilation: u32,
    /// Measured worst-case congestion.
    pub congestion: u32,
    /// Measured expansion.
    pub expansion: f64,
    /// Whether the embedding lands in the minimal cube.
    pub minimal: bool,
    /// Whether every measured figure is within its certified bound.
    pub within_certificate: bool,
}

struct Overflow {
    tx: Option<Sender<PlanRecord>>,
    writer: Option<JoinHandle<()>>,
}

/// The shared query core. Cheap reads under concurrency: the database
/// index is immutable, the overlay is a short-critical-section map, and
/// only cold misses serialize on the planner.
pub struct QueryEngine {
    db: Option<PlanDb>,
    overlay: Mutex<HashMap<Vec<usize>, PlanRecord>>,
    planner: Mutex<(Planner, Vec<Box<dyn PlanStrategy + Send + Sync>>)>,
    /// The live planner's memo bound, [`Planner::MEMO_LIMIT`]; lowered
    /// by tests.
    memo_limit: usize,
    /// The overlay's bound, [`MAX_OVERLAY`]; lowered by tests.
    overlay_limit: usize,
    overflow: Mutex<Overflow>,
    db_hits: AtomicU64,
    overlay_hits: AtomicU64,
    live_plans: AtomicU64,
    errors: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl QueryEngine {
    /// Open the database (when configured), start the overflow writer
    /// (when configured), and return a ready engine.
    pub fn new(cfg: &EngineConfig) -> Result<QueryEngine, ServiceError> {
        let db = match &cfg.db {
            Some(path) => Some(PlanDb::open(path)?),
            None => None,
        };
        let overflow = match &cfg.overflow {
            Some(path) => {
                let mut log = Checkpoint::append_to(path)?;
                let (tx, rx) = channel::<PlanRecord>();
                let writer = std::thread::spawn(move || {
                    let mut batch: Vec<PlanRecord> = Vec::new();
                    while let Ok(rec) = rx.recv() {
                        batch.clear();
                        batch.push(rec);
                        // Drain whatever else is already queued into the
                        // same durable append.
                        while let Ok(more) = rx.try_recv() {
                            batch.push(more);
                        }
                        if log.append(&batch).is_err() {
                            obs::counter!("service.overflow.write_error").inc();
                        }
                    }
                });
                Overflow {
                    tx: Some(tx),
                    writer: Some(writer),
                }
            }
            None => Overflow {
                tx: None,
                writer: None,
            },
        };
        Ok(QueryEngine {
            db,
            overlay: Mutex::new(HashMap::new()),
            planner: Mutex::new((Planner::new(), default_strategies())),
            memo_limit: Planner::MEMO_LIMIT,
            overlay_limit: MAX_OVERLAY,
            overflow: Mutex::new(overflow),
            db_hits: AtomicU64::new(0),
            overlay_hits: AtomicU64::new(0),
            live_plans: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// Answer one shape: database, then overlay, then live planning.
    /// Every error is typed; bad keys are the caller's data, everything
    /// else is an internal condition worth surfacing.
    pub fn lookup(&self, dims: &[usize]) -> Result<(PlanRecord, Source), ServiceError> {
        let key = validate_key(dims).inspect_err(|_| {
            self.errors.fetch_add(1, SeqCst);
        })?;
        if let Some(db) = &self.db {
            match db.get(&key) {
                Ok(Some(rec)) => {
                    self.db_hits.fetch_add(1, SeqCst);
                    obs::counter!("service.lookup.db").inc();
                    return Ok((rec, Source::Db));
                }
                Ok(None) => {}
                Err(e) => {
                    self.errors.fetch_add(1, SeqCst);
                    return Err(ServiceError::Db(e));
                }
            }
        }
        if let Some(rec) = lock(&self.overlay).get(&key).cloned() {
            self.overlay_hits.fetch_add(1, SeqCst);
            obs::counter!("service.lookup.overlay").inc();
            return Ok((rec, Source::Overlay));
        }
        let rec = {
            let mut guard = lock(&self.planner);
            let (planner, strategies) = &mut *guard;
            let rec = plan_record(planner, strategies, &key);
            // Each distinct cold miss would otherwise grow the memo
            // for the life of the engine.
            planner.bound_memo(self.memo_limit);
            rec.inspect_err(|_| {
                self.errors.fetch_add(1, SeqCst);
            })?
        };
        {
            let mut overlay = lock(&self.overlay);
            if overlay.len() >= self.overlay_limit && !overlay.contains_key(&key) {
                overlay.clear();
                obs::counter!("service.overlay.reset").inc();
            }
            overlay.insert(key, rec.clone());
        }
        self.live_plans.fetch_add(1, SeqCst);
        obs::counter!("service.lookup.live").inc();
        if let Some(tx) = &lock(&self.overflow).tx {
            if tx.send(rec.clone()).is_err() {
                obs::counter!("service.overflow.dropped").inc();
            }
        }
        Ok((rec, Source::Live))
    }

    /// Resolve a shape's plan to a concrete embedding and measure it —
    /// the deferred "construction" half of the decomposition/resolution
    /// split. Verifies the measured figures against the record's
    /// certificate.
    pub fn resolve(&self, dims: &[usize]) -> Result<Resolved, ServiceError> {
        obs::span!("service.resolve");
        let (rec, _) = self.lookup(dims)?;
        let plan = rec.plan().map_err(ServiceError::Db)?;
        let shape = Shape::new(&rec.key);
        let emb = construct(&shape, &plan).map_err(|e| ServiceError::Resolve {
            shape: shape.to_string(),
            detail: e.to_string(),
        })?;
        let m = metrics(&emb);
        let within_certificate = m.host_dim == rec.cert.host_dim
            && m.dilation <= rec.cert.dilation
            && m.congestion <= rec.cert.congestion;
        obs::counter!("service.resolve").inc();
        Ok(Resolved {
            key: rec.key.clone(),
            nodes: m.guest_nodes,
            host_dim: m.host_dim,
            dilation: m.dilation,
            congestion: m.congestion,
            expansion: m.expansion,
            minimal: m.is_minimal_expansion(),
            within_certificate,
        })
    }

    /// Current statistics.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            db_records: self.db.as_ref().map(PlanDb::len).unwrap_or(0),
            overlay_records: lock(&self.overlay).len(),
            db_hits: self.db_hits.load(SeqCst),
            overlay_hits: self.overlay_hits.load(SeqCst),
            live_plans: self.live_plans.load(SeqCst),
            errors: self.errors.load(SeqCst),
        }
    }

    /// Flush and stop the overflow writer, waiting until every queued
    /// record is durably appended. Idempotent; also runs on drop.
    pub fn flush_overflow(&self) {
        let (tx, writer) = {
            let mut guard = lock(&self.overflow);
            (guard.tx.take(), guard.writer.take())
        };
        drop(tx);
        if let Some(writer) = writer {
            if writer.join().is_err() {
                obs::counter!("service.overflow.writer_panic").inc();
            }
        }
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.flush_overflow();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubemesh_plandb::enumerate_keys;

    #[test]
    fn live_memo_stays_bounded_and_answers_do_not_change() {
        let mut engine = QueryEngine::new(&EngineConfig::default()).expect("engine");
        engine.memo_limit = 64;
        let mut unbounded = Planner::new();
        let strategies = default_strategies();
        let keys = enumerate_keys(9);
        assert!(keys.len() >= 100);
        let mut resets = 0;
        let mut last = 0;
        for key in &keys {
            let (rec, source) = engine.lookup(key).expect("lookup");
            assert_eq!(source, Source::Live, "{key:?}");
            let want = plan_record(&mut unbounded, &strategies, key).expect("plan");
            assert_eq!(rec, want, "{key:?}");
            let memo = lock(&engine.planner).0.memo_len();
            assert!(memo <= engine.memo_limit, "{key:?}: memo {memo}");
            resets += usize::from(memo < last);
            last = memo;
        }
        assert!(resets > 0 && unbounded.memo_len() > engine.memo_limit);
    }

    /// With the overlay bound lowered, every answer still equals an
    /// unbounded engine's; the overlay never holds more than the bound;
    /// and a miss dropped by a reset is planned live (and logged) again.
    #[test]
    fn overlay_stays_bounded_and_answers_do_not_change() {
        let dir = std::env::temp_dir().join(format!("cubemesh-overlay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let log = dir.join("cold.ck");
        let mut engine = QueryEngine::new(&EngineConfig {
            db: None,
            overflow: Some(log.clone()),
        })
        .expect("engine");
        engine.overlay_limit = 16;
        let unbounded = QueryEngine::new(&EngineConfig::default()).expect("engine");
        let keys = enumerate_keys(6);
        assert!(keys.len() > 3 * engine.overlay_limit);
        let check = |key: &Vec<usize>, want_source: Source| {
            let (rec, source) = engine.lookup(key).expect("lookup");
            assert_eq!(source, want_source, "{key:?}");
            let (want, _) = unbounded.lookup(key).expect("lookup");
            assert_eq!(rec, want, "{key:?}");
            let held = engine.stats().overlay_records;
            assert!(held <= engine.overlay_limit, "{key:?}: overlay {held}");
        };
        for key in &keys {
            check(key, Source::Live);
        }
        // The keys since the last reset are held; walking back, every
        // older key was dropped by a reset and is planned live again.
        let held = engine.stats().overlay_records;
        assert!(held > 0);
        for (i, key) in keys.iter().rev().enumerate() {
            check(
                key,
                if i < held {
                    Source::Overlay
                } else {
                    Source::Live
                },
            );
        }
        let lives = 2 * keys.len() - held;
        assert_eq!(engine.stats().live_plans, lives as u64);
        engine.flush_overflow();
        let logged = cubemesh_plandb::load_checkpoint(&log).expect("overflow log");
        assert_eq!(logged.len(), lives);
        std::fs::remove_dir_all(&dir).ok();
    }
}
