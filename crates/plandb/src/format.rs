//! The single-file container and its readers.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (40 B): magic "CMPDB\x01\0\0" · version u32 ·         │
//! │   max_axis u32 · record count u64 · index offset u64 ·       │
//! │   reserved u64                                               │
//! ├──────────────────────────────────────────────────────────────┤
//! │ frames, one per record, in canonical key order:              │
//! │   payload len u32 · crc32(payload) u32 · payload             │
//! ├──────────────────────────────────────────────────────────────┤
//! │ index, one entry per record, same order:                     │
//! │   rank u8 · rank × extent u32 · frame offset u64 ·           │
//! │   frame len u32                                              │
//! ├──────────────────────────────────────────────────────────────┤
//! │ crc32(index bytes) u32                                       │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers little-endian. Two invariants tie the index to the
//! heap, and [`db_bytes`] refuses records that would break them:
//!
//! * **order** — the entries list canonical keys ([`crate::validate_key`]'s
//!   form) in strictly increasing (rank, extents) order, the order
//!   [`crate::enumerate_keys`] walks the census in;
//! * **contiguity** — the frames tile the heap: the first starts at byte
//!   40, each next one where the last ends, and the last ends where the
//!   index begins.
//!
//! [`PlanDb::open`] streams the index once through a buffered reader
//! with a running CRC and checks both invariants entry by entry, so it
//! never sorts, never holds the raw index, and sizes its tables from the
//! index's byte length rather than the header's count. It keeps one
//! sorted table per key rank: each row the key's `u16` extents (every
//! admissible extent is at most [`cubemesh_topology::Shape::MAX_AXIS`]
//! = 2¹⁵) and its frame's `u64` end, whose start is the previous row's
//! end — 14 B per rank-3 record. A lookup canonicalizes the query into
//! a stack key, binary-searches its rank's table, and reads the record
//! with one `pread` — no mmap, no seeks, safe for concurrent readers
//! over one handle.
//!
//! The checkpoint sibling format is the same framing without the index:
//! magic "CMPCK\x01\0\0", then frames appended chunk by chunk. A
//! checkpoint is *tolerant*: a torn tail (partial frame from an
//! interrupted build) loads as "everything before the tear".

use crate::crc::{crc32, Crc32};
use crate::record::PlanRecord;
use crate::{DbError, StackKey, MAX_KEY_RANK};
use std::cmp::Ordering;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Database file magic.
pub const DB_MAGIC: [u8; 8] = *b"CMPDB\x01\0\0";
/// Checkpoint file magic.
pub const CK_MAGIC: [u8; 8] = *b"CMPCK\x01\0\0";
/// Format version. Bumps whenever the record layout, the canonical plan
/// grammar, or the fingerprint hash changes.
pub const VERSION: u32 = 1;

const HEADER_BYTES: usize = 40;
/// A frame never exceeds payload bound + framing.
const MAX_FRAME: u32 = (crate::record::MAX_PLAN_TEXT as u32) + (1 << 12);

fn frame_into(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), DbError> {
    let payload_bytes = u32::try_from(payload.len()).map_err(|_| DbError::TooLarge {
        what: "frame payload",
        len: payload.len() as u64,
        max: u64::from(u32::MAX),
    })?;
    if payload_bytes > MAX_FRAME {
        return Err(DbError::TooLarge {
            what: "frame payload",
            len: u64::from(payload_bytes),
            max: u64::from(MAX_FRAME),
        });
    }
    out.extend_from_slice(&payload_bytes.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Parse one frame starting at `at`; returns the payload slice and the
/// offset just past the frame.
fn parse_frame(bytes: &[u8], at: usize) -> Result<(&[u8], usize), DbError> {
    let corrupt = |what: String| DbError::Corrupt {
        offset: at as u64,
        what,
    };
    if at.checked_add(8).is_none_or(|h| h > bytes.len()) {
        return Err(corrupt("truncated frame header".to_owned()));
    }
    let payload_bytes =
        u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    if payload_bytes > MAX_FRAME {
        return Err(corrupt(format!(
            "frame length {payload_bytes} exceeds {MAX_FRAME}"
        )));
    }
    let want = u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
    let start = at + 8;
    let end = start.checked_add(payload_bytes as usize);
    match end {
        Some(end) if end <= bytes.len() => {
            let payload = &bytes[start..end];
            if crc32(payload) != want {
                return Err(corrupt("frame CRC mismatch".to_owned()));
            }
            Ok((payload, end))
        }
        _ => Err(corrupt("truncated frame payload".to_owned())),
    }
}

/// Serialize `records` into the full database byte image. The records
/// must be in index order — by key rank, then extents, strictly
/// increasing, as [`crate::enumerate_keys`] lists them — and each key
/// canonical ([`crate::validate_key`]'s form); anything else is refused,
/// so every image this writes opens. Pure function of its inputs — the
/// determinism guarantee reduces to "same records in, same bytes out".
pub fn db_bytes(max_axis: u32, records: &[PlanRecord]) -> Result<Vec<u8>, DbError> {
    let mut frames = Vec::new();
    let mut index = Vec::new();
    let mut payload = Vec::new();
    let mut prev: Option<&[usize]> = None;
    for rec in records {
        if !crate::is_canonical(&rec.key) {
            return Err(DbError::BadKey {
                reason: format!("record key {:?} is not canonical", rec.key),
            });
        }
        if let Some(prev) = prev.filter(|&p| index_order(p, &rec.key) != Ordering::Less) {
            return Err(DbError::BadKey {
                reason: format!("record key {:?} does not follow {prev:?}", rec.key),
            });
        }
        prev = Some(&rec.key);
        payload.clear();
        rec.encode_into(&mut payload)?;
        let frame_at = (HEADER_BYTES + frames.len()) as u64;
        let before = frames.len();
        frame_into(&mut frames, &payload)?;
        let frame_bytes = u32::try_from(frames.len() - before).map_err(|_| DbError::TooLarge {
            what: "frame",
            len: (frames.len() - before) as u64,
            max: u64::from(u32::MAX),
        })?;
        index.push(u8::try_from(rec.key.len()).unwrap_or(u8::MAX));
        for &d in &rec.key {
            let extent = u32::try_from(d).map_err(|_| DbError::BadKey {
                reason: format!("extent {d} does not fit the wire format"),
            })?;
            index.extend_from_slice(&extent.to_le_bytes());
        }
        index.extend_from_slice(&frame_at.to_le_bytes());
        index.extend_from_slice(&frame_bytes.to_le_bytes());
    }
    let index_offset = (HEADER_BYTES + frames.len()) as u64;
    let mut out = Vec::with_capacity(HEADER_BYTES + frames.len() + index.len() + 4);
    out.extend_from_slice(&DB_MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&max_axis.to_le_bytes());
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&frames);
    out.extend_from_slice(&index);
    out.extend_from_slice(&crc32(&index).to_le_bytes());
    Ok(out)
}

/// The index order: by rank, then extents.
fn index_order<T: Ord>(a: &[T], b: &[T]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// The bytes of the shortest index entry (rank 1).
const MIN_ENTRY_BYTES: u64 = 1 + 4 + 8 + 4;

/// Where one rank's rows sit in [`PlanDb`]'s columns.
#[derive(Clone, Copy, Debug, Default)]
struct RankRows {
    /// The rank's first row; rows are numbered in index order.
    first: usize,
    /// Where the rows' extents start and end in [`PlanDb`]'s `extents`.
    start: usize,
    end: usize,
}

/// An open plan database: the index in memory as one sorted table per
/// key rank, the records on disk, one `pread` per lookup.
pub struct PlanDb {
    file: File,
    /// Every row's extents, concatenated in index order: rank `r`'s rows
    /// are a sorted run of `r`-extent keys, so a lookup binary-searches
    /// the run its rank names.
    extents: Vec<u16>,
    /// Every row's frame end, in index order. Frames are contiguous from
    /// the header on, so row `i`'s frame starts where row `i - 1`'s ends.
    ends: Vec<u64>,
    /// Rank `r`'s rows are `ranks[r - 1]`.
    ranks: [RankRows; MAX_KEY_RANK],
    max_axis: u32,
}

impl PlanDb {
    /// Open and validate a database file: the magic, the version, the
    /// index CRC, and that the index lists canonical keys in strictly
    /// increasing order over frames that tile the record heap. The index
    /// is streamed once and never held whole; record payloads are
    /// CRC-checked lazily on [`get`](PlanDb::get).
    pub fn open(path: &Path) -> Result<PlanDb, DbError> {
        cubemesh_obs::span!("plandb.open");
        let mut file = File::open(path)?;
        let mut header = [0u8; HEADER_BYTES];
        file.read_exact(&mut header).map_err(|_| DbError::Corrupt {
            offset: 0,
            what: "file shorter than the header".to_owned(),
        })?;
        if header[..8] != DB_MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&header[..8]);
            return Err(DbError::BadMagic { found });
        }
        let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if version != VERSION {
            return Err(DbError::BadVersion { found: version });
        }
        let max_axis = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let count = u64::from_le_bytes([
            header[16], header[17], header[18], header[19], header[20], header[21], header[22],
            header[23],
        ]);
        let index_offset = u64::from_le_bytes([
            header[24], header[25], header[26], header[27], header[28], header[29], header[30],
            header[31],
        ]);
        let file_bytes = file.metadata()?.len();
        if index_offset < HEADER_BYTES as u64 || index_offset.saturating_add(4) > file_bytes {
            return Err(DbError::Corrupt {
                offset: 24,
                what: format!("index offset {index_offset} outside file of {file_bytes} bytes"),
            });
        }
        let index_bytes = file_bytes - index_offset - 4;
        let rows = usize::try_from(count)
            .ok()
            .filter(|_| count <= index_bytes / MIN_ENTRY_BYTES)
            .ok_or_else(|| DbError::Corrupt {
                offset: 16,
                what: format!("record count {count} exceeds what {index_bytes} index bytes hold"),
            })?;
        // Every entry holds one frame end and at least one extent, and
        // the entries' bytes sum to `index_bytes`, so both reservations
        // are bounded by the file itself.
        let extents_held = (index_bytes - (MIN_ENTRY_BYTES - 4) * count) / 4;
        let mut extents = Vec::with_capacity(usize::try_from(extents_held).unwrap_or(0));
        let mut ends = Vec::with_capacity(rows);
        let mut ranks = [RankRows::default(); MAX_KEY_RANK];
        file.seek(SeekFrom::Start(index_offset))?;
        let mut index = IndexStream {
            reader: BufReader::with_capacity(1 << 16, &file),
            crc: Crc32::new(),
            at: index_offset,
            end: index_offset + index_bytes,
        };
        // The previous row's key (rank 0 before the first row), and
        // where the next frame must start.
        let (mut prev, mut prev_rank) = ([0usize; MAX_KEY_RANK], 0);
        let mut frame_end = HEADER_BYTES as u64;
        for row in 0..rows {
            let entry_at = index.at;
            let corrupt = |what: String| DbError::Corrupt {
                offset: entry_at,
                what,
            };
            let mut rank = [0u8; 1];
            index.read(&mut rank)?;
            let rank = usize::from(rank[0]);
            if rank == 0 || rank > MAX_KEY_RANK {
                return Err(corrupt(format!("index key rank {rank}")));
            }
            let mut entry = [0u8; 4 * MAX_KEY_RANK + 12];
            let entry = &mut entry[..4 * rank + 12];
            index.read(entry)?;
            let (key_bytes, frame) = entry.split_at(4 * rank);
            let mut key = [0usize; MAX_KEY_RANK];
            for (k, b) in key.iter_mut().zip(key_bytes.chunks_exact(4)) {
                *k = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
            }
            let key = &key[..rank];
            if !crate::is_canonical(key) {
                return Err(corrupt(format!("index key {key:?} is not canonical")));
            }
            let prev_key = &prev[..prev_rank];
            match index_order(prev_key, key) {
                Ordering::Less => {}
                Ordering::Equal => return Err(corrupt(format!("duplicate index key {key:?}"))),
                Ordering::Greater => {
                    return Err(corrupt(format!(
                        "index key {key:?} out of order after {prev_key:?}"
                    )))
                }
            }
            let frame_at = u64::from_le_bytes([
                frame[0], frame[1], frame[2], frame[3], frame[4], frame[5], frame[6], frame[7],
            ]);
            let frame_bytes = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]);
            if frame_at != frame_end {
                return Err(corrupt(format!(
                    "frame at {frame_at} does not start where the last one ends ({frame_end})"
                )));
            }
            if !(8..=MAX_FRAME + 8).contains(&frame_bytes) {
                return Err(corrupt(format!("frame length {frame_bytes}")));
            }
            frame_end = frame_at + u64::from(frame_bytes);
            if frame_end > index_offset {
                return Err(corrupt(format!(
                    "index entry points outside the record heap ({frame_at}+{frame_bytes}, file {file_bytes})"
                )));
            }
            if rank != prev_rank {
                ranks[rank - 1].first = row;
                ranks[rank - 1].start = extents.len();
            }
            // `is_canonical` held every extent to `Shape::MAX_AXIS`.
            extents.extend(key.iter().map(|&d| u16::try_from(d).unwrap_or(u16::MAX)));
            ranks[rank - 1].end = extents.len();
            ends.push(frame_end);
            prev[..rank].copy_from_slice(key);
            prev_rank = rank;
        }
        if index.at != index.end {
            return Err(DbError::Corrupt {
                offset: index.at,
                what: "trailing bytes after index".to_owned(),
            });
        }
        if frame_end != index_offset {
            return Err(DbError::Corrupt {
                offset: frame_end,
                what: format!("the frames end at {frame_end}, the index starts at {index_offset}"),
            });
        }
        let crc = index.crc.value();
        let mut want = [0u8; 4];
        index.reader.read_exact(&mut want)?;
        if crc != u32::from_le_bytes(want) {
            return Err(DbError::Corrupt {
                offset: index_offset,
                what: "index CRC mismatch".to_owned(),
            });
        }
        cubemesh_obs::counter!("plandb.open").inc();
        Ok(PlanDb {
            file,
            extents,
            ends,
            ranks,
            max_axis,
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The census extent bound the builder swept (`max_axis` from
    /// [`crate::BuildConfig`]).
    pub fn max_axis(&self) -> u32 {
        self.max_axis
    }

    /// Whether a canonical key is present, without touching the disk.
    pub fn contains(&self, dims: &[usize]) -> bool {
        StackKey::canonical(dims).is_ok_and(|key| self.row(key.extents()).is_some())
    }

    /// Look up a shape. The extents are canonicalized first, so axis
    /// order and unit axes do not matter. `Ok(None)` means the shape is
    /// outside the swept universe; corrupt frames are typed errors.
    pub fn get(&self, dims: &[usize]) -> Result<Option<PlanRecord>, DbError> {
        let key = StackKey::canonical(dims)?;
        let key = key.extents();
        let Some(row) = self.row(key) else {
            cubemesh_obs::counter!("plandb.get.miss").inc();
            return Ok(None);
        };
        let frame_at = row
            .checked_sub(1)
            .map_or(HEADER_BYTES as u64, |prev| self.ends[prev]);
        // `open` held every frame to `MAX_FRAME + 8` bytes.
        let mut frame = vec![0u8; (self.ends[row] - frame_at) as usize];
        self.file.read_exact_at(&mut frame, frame_at)?;
        let (payload, used) = parse_frame(&frame, 0).map_err(|e| shift_offset(e, frame_at))?;
        if used != frame.len() {
            return Err(DbError::Corrupt {
                offset: frame_at,
                what: "frame shorter than its index entry".to_owned(),
            });
        }
        let rec = PlanRecord::decode(payload).map_err(|e| shift_offset(e, frame_at + 8))?;
        let same_key = rec
            .key
            .iter()
            .copied()
            .eq(key.iter().map(|&d| usize::from(d)));
        if !same_key {
            return Err(DbError::Corrupt {
                offset: frame_at,
                what: format!("record key {:?} under index key {key:?}", rec.key),
            });
        }
        cubemesh_obs::counter!("plandb.get.hit").inc();
        Ok(Some(rec))
    }

    /// All keys, sorted — for sweeps and integrity checks.
    pub fn keys(&self) -> Vec<Vec<usize>> {
        let mut keys = Vec::with_capacity(self.len());
        for (rank, rows) in (1..).zip(&self.ranks) {
            keys.extend(
                self.extents[rows.start..rows.end]
                    .chunks_exact(rank)
                    .map(|key| key.iter().map(|&d| usize::from(d)).collect()),
            );
        }
        keys.sort();
        keys
    }

    /// The row holding canonical `key`: a binary search of its rank's
    /// table.
    fn row(&self, key: &[u16]) -> Option<usize> {
        let rank = key.len();
        let rows = self.ranks.get(rank.checked_sub(1)?)?;
        let table = &self.extents[rows.start..rows.end];
        let (mut lo, mut hi) = (0, table.len() / rank);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match table[mid * rank..(mid + 1) * rank].cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(rows.first + mid),
            }
        }
        None
    }
}

fn shift_offset(e: DbError, by: u64) -> DbError {
    match e {
        DbError::Corrupt { offset, what } => DbError::Corrupt {
            offset: offset.saturating_add(by),
            what,
        },
        other => other,
    }
}

/// The index block as a bounded stream: every byte read feeds the
/// running CRC, and a read past the block's end is a typed error.
struct IndexStream<R> {
    reader: R,
    crc: Crc32,
    /// File offset of the next byte.
    at: u64,
    /// File offset just past the index, where its CRC starts.
    end: u64,
}

impl<R: Read> IndexStream<R> {
    fn read(&mut self, buf: &mut [u8]) -> Result<(), DbError> {
        if self.end - self.at < buf.len() as u64 {
            return Err(DbError::Corrupt {
                offset: self.at,
                what: "truncated index entry".to_owned(),
            });
        }
        self.reader.read_exact(buf)?;
        self.crc.update(buf);
        self.at += buf.len() as u64;
        Ok(())
    }
}

/// An append-only checkpoint log for the builder: records stream in as
/// CRC'd frames; a torn tail from an interrupted run is tolerated on
/// load.
pub struct Checkpoint {
    file: File,
    buf: Vec<u8>,
}

impl Checkpoint {
    /// Open `path` for appending, writing the checkpoint header if the
    /// file is new (or empty).
    pub fn append_to(path: &Path) -> Result<Checkpoint, DbError> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() == 0 {
            let mut header = Vec::with_capacity(16);
            header.extend_from_slice(&CK_MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            file.write_all(&header)?;
            file.sync_data()?;
        }
        Ok(Checkpoint {
            file,
            buf: Vec::new(),
        })
    }

    /// Append `records` as one durable batch: buffered, written with a
    /// single `write_all`, then `fdatasync`'d — an interrupt tears at
    /// most the batch in flight.
    pub fn append(&mut self, records: &[PlanRecord]) -> Result<(), DbError> {
        self.buf.clear();
        let mut payload = Vec::new();
        for rec in records {
            payload.clear();
            rec.encode_into(&mut payload)?;
            frame_into(&mut self.buf, &payload)?;
        }
        self.file.write_all(&self.buf)?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Load every intact record from a checkpoint written by a previous
/// (possibly interrupted) build. Returns the records in append order;
/// a torn or corrupt tail ends the scan silently — those shapes are
/// simply re-planned. A missing file loads as empty.
pub fn load_checkpoint(path: &Path) -> Result<Vec<PlanRecord>, DbError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(DbError::Io(e)),
    };
    if bytes.len() < 16 {
        return Ok(Vec::new());
    }
    if bytes[..8] != CK_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(DbError::BadMagic { found });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(DbError::BadVersion { found: version });
    }
    let mut records = Vec::new();
    let mut at = 16usize;
    while at < bytes.len() {
        let Ok((payload, next)) = parse_frame(&bytes, at) else {
            // Torn tail from an interrupted append — keep what's intact.
            break;
        };
        match PlanRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break,
        }
        at = next;
    }
    Ok(records)
}
