//! Fault injection on the plan database and its checkpoint, at max axis
//! 4 (20 records): every truncation, a seeded sample of single-bit
//! flips, and hand-made indexes that each break one invariant `open`
//! checks. A damaged database answers every lookup with the exact
//! record or a typed error — never a panic, never another record — and
//! a damaged checkpoint loads as a prefix of its records.

use cubemesh_plandb::format::db_bytes;
use cubemesh_plandb::{build, crc32, load_checkpoint, BuildConfig, DbError, PlanDb, PlanRecord};
use std::path::{Path, PathBuf};

const HEADER_BYTES: usize = 40;

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cubemesh-plandb-faults-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The max-axis-4 database, its checkpoint, and the records both hold.
struct Fixture {
    db: Vec<u8>,
    ck: Vec<u8>,
    records: Vec<PlanRecord>,
}

fn fixture(dir: &Path) -> Fixture {
    let (db, ck) = (dir.join("clean.db"), dir.join("clean.ck"));
    let cfg = BuildConfig {
        max_axis: 4,
        chunk_shapes: 4,
        checkpoint: Some(ck.clone()),
    };
    build(&cfg, &db).expect("build");
    let records = load_checkpoint(&ck).expect("load checkpoint");
    assert_eq!(records.len(), 20);
    Fixture {
        db: std::fs::read(&db).expect("read db"),
        ck: std::fs::read(&ck).expect("read checkpoint"),
        records,
    }
}

/// Write `bytes` to `path`, open it and look every record up: each
/// lookup must give that record or an error. Returns whether it opened.
fn opens_with_exact_records(path: &Path, bytes: &[u8], records: &[PlanRecord]) -> bool {
    std::fs::write(path, bytes).expect("write db");
    let Ok(db) = PlanDb::open(path) else {
        return false;
    };
    for rec in records {
        match db.get(&rec.key) {
            Ok(Some(got)) => assert_eq!(&got, rec, "{:?}", rec.key),
            Ok(None) => panic!("{:?} went missing", rec.key),
            Err(_) => {}
        }
    }
    true
}

/// Write `bytes` to `path` and load it as a checkpoint: the records
/// must be a prefix of `records`. Returns how many loaded, or `None` on
/// an error.
fn loads_a_prefix(path: &Path, bytes: &[u8], records: &[PlanRecord]) -> Option<usize> {
    std::fs::write(path, bytes).expect("write checkpoint");
    let loaded = load_checkpoint(path).ok()?;
    assert!(loaded.len() <= records.len());
    assert_eq!(loaded[..], records[..loaded.len()]);
    Some(loaded.len())
}

/// Seeded xorshift positions in `0..n`.
fn sample(n: usize, count: usize, mut seed: u64) -> Vec<usize> {
    (0..count)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        })
        .collect()
}

fn flip(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[bit / 8] ^= 1 << (bit % 8);
    out
}

#[test]
fn truncated_databases_never_open() {
    let dir = scratch("truncate-db");
    let f = fixture(&dir);
    let path = dir.join("cut.db");
    for cut in 0..f.db.len() {
        assert!(
            !opens_with_exact_records(&path, &f.db[..cut], &f.records),
            "the first {cut} bytes opened"
        );
    }
    assert!(opens_with_exact_records(&path, &f.db, &f.records));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_database_bits_give_the_record_or_an_error() {
    let dir = scratch("flip-db");
    let f = fixture(&dir);
    let path = dir.join("flip.db");
    let bits = sample(8 * f.db.len(), 3000, 0x5eed_0001);
    let opened = bits
        .iter()
        .filter(|&&bit| opens_with_exact_records(&path, &flip(&f.db, bit), &f.records))
        .count();
    // Flips in the record heap open (the damaged frame's lookup fails);
    // flips in the index or its CRC do not.
    assert!(
        0 < opened && opened < bits.len(),
        "{opened} of {}",
        bits.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_checkpoints_load_a_prefix() {
    let dir = scratch("checkpoint");
    let f = fixture(&dir);
    let path = dir.join("damaged.ck");
    for cut in 0..=f.ck.len() {
        let loaded = loads_a_prefix(&path, &f.ck[..cut], &f.records);
        assert!(loaded.is_some(), "the first {cut} bytes failed to load");
    }
    assert_eq!(loads_a_prefix(&path, &f.ck, &f.records), Some(20));
    for bit in sample(8 * f.ck.len(), 3000, 0x5eed_0002) {
        // Only the magic and the version fail the whole load.
        let loaded = loads_a_prefix(&path, &flip(&f.ck, bit), &f.records);
        assert!(loaded.is_some() || bit < 8 * 12, "bit {bit} failed to load");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One index entry, as the file lays it out.
#[derive(Clone, Debug)]
struct Entry {
    key: Vec<u32>,
    at: u64,
    len: u32,
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// The clean file's index entries.
fn entries(db: &[u8]) -> Vec<Entry> {
    let count = u64_at(db, 16) as usize;
    let mut at = u64_at(db, 24) as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let rank = usize::from(db[at]);
        let word = |p: usize| u32::from_le_bytes(db[p..p + 4].try_into().expect("4 bytes"));
        let key = (0..rank).map(|i| word(at + 1 + 4 * i)).collect();
        let p = at + 1 + 4 * rank;
        out.push(Entry {
            key,
            at: u64_at(db, p),
            len: word(p + 8),
        });
        at = p + 12;
    }
    out
}

/// The clean file with its header count replaced by `count` and its
/// index by `entries`, under a freshly computed index CRC.
fn crafted(db: &[u8], count: u64, entries: &[Entry]) -> Vec<u8> {
    let index_offset = u64_at(db, 24) as usize;
    let mut index = Vec::new();
    for e in entries {
        index.push(u8::try_from(e.key.len()).expect("rank"));
        for d in &e.key {
            index.extend_from_slice(&d.to_le_bytes());
        }
        index.extend_from_slice(&e.at.to_le_bytes());
        index.extend_from_slice(&e.len.to_le_bytes());
    }
    let mut out = db[..index_offset].to_vec();
    out[16..24].copy_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&index);
    out.extend_from_slice(&crc32(&index).to_le_bytes());
    out
}

/// Each hand-made index breaks one invariant and opens as
/// `DbError::Corrupt` naming it.
#[test]
fn crafted_indexes_open_as_corrupt() {
    let dir = scratch("crafted");
    let f = fixture(&dir);
    let clean = entries(&f.db);
    let n = clean.len();
    assert_eq!(n, 20);
    assert_eq!(clean[0].at, HEADER_BYTES as u64);
    assert_eq!(crafted(&f.db, n as u64, &clean), f.db);
    let last = n - 1;
    assert_eq!(
        (&clean[last - 1].key, &clean[last].key),
        (&vec![3, 4, 4], &vec![4, 4, 4])
    );

    let with = |edit: &dyn Fn(&mut Vec<Entry>)| {
        let mut e = clean.clone();
        edit(&mut e);
        e
    };
    let cases: Vec<(&str, u64, Vec<Entry>, &str)> = vec![
        (
            "keys out of order",
            n as u64,
            with(&|e| {
                let k = e[1].key.clone();
                e[1].key = e[2].key.clone();
                e[2].key = k;
            }),
            "out of order",
        ),
        (
            "a duplicate key",
            n as u64,
            with(&|e| e[2].key = e[1].key.clone()),
            "duplicate index key",
        ),
        (
            "a gap between frames",
            n as u64,
            with(&|e| {
                e[5].at += 1;
                e[5].len -= 1;
            }),
            "does not start where the last one ends",
        ),
        (
            "an overlap between frames",
            n as u64,
            with(&|e| {
                e[5].at -= 1;
                e[5].len += 1;
            }),
            "does not start where the last one ends",
        ),
        (
            "a heap the frames leave short",
            n as u64,
            with(&|e| e[last].len -= 1),
            "the frames end at",
        ),
        (
            "a frame past the heap",
            n as u64,
            with(&|e| e[last].len += 1),
            "outside the record heap",
        ),
        (
            "an unsorted key",
            n as u64,
            with(&|e| e[last].key = vec![4, 4, 3]),
            "not canonical",
        ),
        (
            "a unit axis",
            n as u64,
            with(&|e| e[last].key = vec![1, 4, 4, 4]),
            "not canonical",
        ),
        (
            "a zero extent",
            n as u64,
            with(&|e| e[0].key = vec![0]),
            "not canonical",
        ),
        (
            "an extent above Shape::MAX_AXIS",
            n as u64,
            with(&|e| e[last].key = vec![4, 4, 32_769]),
            "not canonical",
        ),
        (
            "an extent that wraps to a held key as u16",
            n as u64,
            with(&|e| e[last].key = vec![4, 4, 65_540]),
            "not canonical",
        ),
        (
            "a rank of 0",
            n as u64,
            with(&|e| e[last].key = vec![]),
            "index key rank 0",
        ),
        (
            "a header count one past the index",
            n as u64 + 1,
            clean.clone(),
            "truncated index entry",
        ),
        (
            "a header count no index can hold",
            u64::MAX,
            clean.clone(),
            "exceeds what",
        ),
        (
            "a header count one short of the index",
            n as u64 - 1,
            clean.clone(),
            "trailing bytes after index",
        ),
    ];
    let path = dir.join("crafted.db");
    for (case, count, entries, want) in cases {
        std::fs::write(&path, crafted(&f.db, count, &entries)).expect("write");
        match PlanDb::open(&path) {
            Err(DbError::Corrupt { what, .. }) => {
                assert!(what.contains(want), "{case}: {what}")
            }
            Err(other) => panic!("{case}: {other}"),
            Ok(_) => panic!("{case}: opened"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `db_bytes` writes only what `open` accepts: the records in index
/// order under canonical keys.
#[test]
fn db_bytes_refuses_what_open_would() {
    let dir = scratch("db-bytes");
    let f = fixture(&dir);
    let r = &f.records;
    assert_eq!(db_bytes(4, r).expect("in order"), f.db);
    let mut swapped = r.clone();
    swapped.swap(3, 4);
    let mut dup = r.clone();
    dup[4] = dup[3].clone();
    let mut unsorted = r.clone();
    unsorted[19].key = vec![4, 4, 3];
    let mut unit = r.clone();
    unit[19].key = vec![1, 4, 4, 4];
    for (case, records) in [
        ("swapped", swapped),
        ("duplicate", dup),
        ("unsorted key", unsorted),
        ("unit axis", unit),
    ] {
        match db_bytes(4, &records) {
            Err(DbError::BadKey { .. }) => {}
            other => panic!("{case}: {:?}", other.map(|b| b.len())),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
