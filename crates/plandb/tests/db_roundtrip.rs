//! End-to-end database properties: build → open → query round-trips,
//! byte-determinism across pool widths, corruption detection, and
//! checkpoint-based resumption.

use cubemesh_plandb::{
    build, enumerate_keys, load_checkpoint, BuildConfig, DbError, PlanDb, RecordStatus,
    MAX_BUILD_AXIS,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("cubemesh-plandb-{}-{n}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn build_open_query_round_trip() {
    let dir = scratch("roundtrip");
    let out = dir.join("plans.db");
    let report = build(&BuildConfig::new(8), &out).expect("build");
    assert_eq!(report.shapes, enumerate_keys(8).len());
    assert_eq!(report.shapes, report.certified + report.uncovered);
    assert_eq!(report.resumed, 0);

    let db = PlanDb::open(&out).expect("open");
    assert_eq!(db.len(), report.shapes);
    assert_eq!(db.max_axis(), 8);

    // Axis order and unit axes are canonicalized away on lookup.
    let rec = db.get(&[7, 1, 5]).expect("get").expect("present");
    assert_eq!(rec.key, vec![5, 7]);
    let same = db.get(&[5, 7]).expect("get").expect("present");
    assert_eq!(rec, same);

    // Outside the swept universe: a miss, not an error.
    assert!(db.get(&[9, 9, 9]).expect("get").is_none());
    assert!(!db.contains(&[9, 9, 9]));

    // Every record's stored plan parses, re-fingerprints to the stored
    // fingerprint, and matches its key's canonical form.
    for key in db.keys() {
        let rec = db.get(&key).expect("get").expect("present");
        let plan = rec.plan().expect("stored plan parses");
        assert_eq!(
            cubemesh_audit::fingerprint(&plan),
            rec.fingerprint,
            "{key:?}"
        );
        assert!(rec.cert.host_dim >= rec.floors.host_dim);
        match rec.status {
            RecordStatus::Certified => {
                assert!(rec.cert.minimal, "{key:?}");
                assert!(rec.cert.dilation <= 2, "{key:?}");
                assert_eq!(rec.host_dim_gap(), 0, "{key:?}");
            }
            RecordStatus::NoDilation2Plan => {
                assert_eq!(rec.strategy, "gray-fallback", "{key:?}");
                assert!(rec.host_dim_gap() >= 1, "{key:?}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bytes_are_identical_across_pool_widths() {
    let dir = scratch("widths");
    let a = dir.join("w1.db");
    let b = dir.join("w8.db");
    cubemesh_pool::with_threads(1, || build(&BuildConfig::new(9), &a)).expect("build w1");
    cubemesh_pool::with_threads(8, || build(&BuildConfig::new(9), &b)).expect("build w8");
    let bytes_a = std::fs::read(&a).expect("read w1");
    let bytes_b = std::fs::read(&b).expect("read w8");
    assert_eq!(
        bytes_a, bytes_b,
        "database must be byte-identical across pool widths"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_is_detected() {
    let dir = scratch("corrupt");
    let out = dir.join("plans.db");
    build(&BuildConfig::new(5), &out).expect("build");
    let clean = std::fs::read(&out).expect("read");

    // Flip one byte inside the record heap: the frame CRC catches it on get.
    let mut bytes = clean.clone();
    bytes[60] ^= 0x01;
    let broken = dir.join("broken.db");
    std::fs::write(&broken, &bytes).expect("write");
    let db = PlanDb::open(&broken).expect("index still intact");
    let hit_err = db.keys().iter().any(|k| db.get(k).is_err());
    assert!(hit_err, "some lookup must report the corrupt frame");

    // Flip one byte inside the index: open itself fails.
    let mut bytes = clean.clone();
    let at = bytes.len() - 10;
    bytes[at] ^= 0x40;
    std::fs::write(&broken, &bytes).expect("write");
    assert!(PlanDb::open(&broken).is_err());

    // Wrong magic.
    let mut bytes = clean;
    bytes[0] ^= 0xFF;
    std::fs::write(&broken, &bytes).expect("write");
    assert!(PlanDb::open(&broken).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_build_resumes_from_the_checkpoint() {
    let dir = scratch("resume");
    let fresh = dir.join("fresh.db");
    let resumed = dir.join("resumed.db");
    let ck = dir.join("sweep.ck");

    build(&BuildConfig::new(8), &fresh).expect("fresh build");

    // First pass with a checkpoint, small chunks so the log has many
    // batches.
    let cfg = BuildConfig {
        max_axis: 8,
        chunk_shapes: 16,
        checkpoint: Some(ck.clone()),
    };
    build(&cfg, &resumed).expect("checkpointed build");
    let full_log = load_checkpoint(&ck).expect("load log");
    assert_eq!(full_log.len(), enumerate_keys(8).len());

    // Simulate an interrupt: keep the header and roughly half the log,
    // tearing the final frame in the middle.
    let bytes = std::fs::read(&ck).expect("read log");
    let cut = 16 + (bytes.len() - 16) / 2;
    std::fs::write(&ck, &bytes[..cut]).expect("truncate log");
    let partial = load_checkpoint(&ck).expect("torn log still loads");
    assert!(!partial.is_empty() && partial.len() < full_log.len());
    assert_eq!(
        partial,
        full_log[..partial.len()],
        "prefix survives the tear"
    );

    // Resume: the surviving prefix is not re-planned, and the final file
    // is byte-identical to the fresh build.
    std::fs::remove_file(&resumed).expect("drop stale db");
    let report = build(&cfg, &resumed).expect("resumed build");
    assert_eq!(report.resumed, partial.len());
    assert_eq!(
        std::fs::read(&fresh).expect("read fresh"),
        std::fs::read(&resumed).expect("read resumed"),
        "resumed build must reproduce the fresh bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_interleaves_checkpointed_and_fresh_keys() {
    // A max-axis-6 checkpoint covers a subset of the max-axis-8 keys
    // spread through the whole key order, so with 7-key chunks most
    // chunks mix resumed and freshly planned records.
    let dir = scratch("interleave");
    let fresh = dir.join("fresh.db");
    let small = dir.join("small.db");
    let resumed = dir.join("resumed.db");
    let ck = dir.join("sweep.ck");
    build(&BuildConfig::new(8), &fresh).expect("fresh build");
    let small_cfg = BuildConfig {
        max_axis: 6,
        chunk_shapes: 7,
        checkpoint: Some(ck.clone()),
    };
    build(&small_cfg, &small).expect("max-axis-6 build");
    let cfg = BuildConfig {
        max_axis: 8,
        ..small_cfg
    };
    let report = build(&cfg, &resumed).expect("resumed build");
    assert_eq!(report.resumed, enumerate_keys(6).len());
    assert_eq!(report.shapes, enumerate_keys(8).len());
    assert_eq!(
        std::fs::read(&fresh).expect("read fresh"),
        std::fs::read(&resumed).expect("read resumed"),
        "interleaved resume must reproduce the fresh bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_rejects_a_universe_beyond_the_paper_census() {
    let dir = scratch("too-wide");
    let out = dir.join("plans.db");
    for max_axis in [0, MAX_BUILD_AXIS + 1, 30_000] {
        let err = build(&BuildConfig::new(max_axis), &out).expect_err("must reject");
        assert!(matches!(err, DbError::BadKey { .. }), "{max_axis}: {err}");
    }
    assert!(!out.exists());
    std::fs::remove_dir_all(&dir).ok();
}
