//! The full-census plan database: every certified embedding plan for
//! every canonical mesh shape up to a configured extent, in one compact,
//! deterministic, append-only file.
//!
//! The paper's census (Figure 2) is a *statistic* — "96.1% of shapes up
//! to 64³ admit minimal-expansion dilation-2 embeddings". This crate
//! turns the statistic into an *artifact*: a single file where each
//! canonical shape key (extents sorted ascending, unit axes dropped)
//! maps to a record holding the winning plan in its canonical wire
//! grammar, the [`cubemesh_audit::Certificate`] that justifies it, the
//! floor-oracle bounds it is measured against, the plan's FNV-1a
//! fingerprint, and the provenance of the strategy that produced it
//! ([`cubemesh_core::strategy`] — the weakest method family that covers
//! the shape, mirroring the paper's S₁ ⊂ S₂ ⊂ S₃ ⊂ S₄ ladder).
//!
//! Shapes no strategy covers (the ~3.9% census exception set) are not
//! skipped: they get explicit [`RecordStatus::NoDilation2Plan`] records
//! carrying the best-known fallback plan (whole-mesh Gray code, dilation
//! 1 at non-minimal expansion) and the same floors, so the optimality
//! gap is stated rather than implied.
//!
//! * [`record`] — the [`PlanRecord`] payload and its little-endian
//!   encoding;
//! * [`format`] — the single-file container (versioned header, CRC'd
//!   frames, shape-keyed index) and the [`PlanDb`] reader: sorted
//!   per-rank tables in memory, a binary search and one `pread` per
//!   lookup;
//! * [`builder`] — the census-sweep builder over
//!   [`cubemesh_pool::run_tasks`], resumable via an append-only
//!   checkpoint log and byte-deterministic across pool widths.

#![forbid(unsafe_code)]

pub mod builder;
pub mod format;
pub mod record;

mod crc;

pub use builder::{build, enumerate_keys, plan_record, BuildConfig, BuildReport, MAX_BUILD_AXIS};
pub use crc::crc32;
pub use format::{load_checkpoint, Checkpoint, PlanDb};
pub use record::{CertSummary, FloorSummary, PlanRecord, RecordStatus};

use cubemesh_core::PlanParseError;
use cubemesh_topology::Shape;
use std::fmt;
use std::io;

/// Most axes a database key may carry. Generous: the census universe is
/// 3-D, but keys are rank-generic so a future k-D sweep reuses the
/// format.
pub const MAX_KEY_RANK: usize = 16;

/// Why a database operation failed. Every failure is typed — the crate
/// has no panicking path on untrusted bytes.
#[derive(Debug)]
pub enum DbError {
    /// An I/O error from the underlying file.
    Io(io::Error),
    /// The file does not start with the plan-database magic.
    BadMagic {
        /// The eight bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The file's format version is one this build cannot read.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A structural invariant of the file does not hold (bad CRC, short
    /// frame, index out of bounds, ...).
    Corrupt {
        /// Byte offset of the violation.
        offset: u64,
        /// What was violated.
        what: String,
    },
    /// A shape key is not admissible (empty, zero extent, axis above
    /// [`Shape::MAX_AXIS`], rank above [`MAX_KEY_RANK`], or node count
    /// above [`Shape::MAX_NODES`]).
    BadKey {
        /// Human-readable reason.
        reason: String,
    },
    /// A persisted canonical plan string failed to parse.
    Plan(PlanParseError),
    /// A freshly produced plan failed static certification — an
    /// internal planner/audit disagreement, never a data error.
    Certify {
        /// The shape being planned.
        shape: String,
        /// The audit error, rendered.
        detail: String,
    },
    /// A variable-length field exceeds its format bound.
    TooLarge {
        /// Which field.
        what: &'static str,
        /// Its length.
        len: u64,
        /// The format's bound.
        max: u64,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "plandb i/o: {e}"),
            DbError::BadMagic { found } => {
                write!(f, "not a plan database (magic {found:02x?})")
            }
            DbError::BadVersion { found } => {
                write!(f, "unsupported plan database version {found}")
            }
            DbError::Corrupt { offset, what } => {
                write!(f, "corrupt plan database at byte {offset}: {what}")
            }
            DbError::BadKey { reason } => write!(f, "bad shape key: {reason}"),
            DbError::Plan(e) => write!(f, "bad persisted plan: {e}"),
            DbError::Certify { shape, detail } => {
                write!(f, "certification failed for {shape}: {detail}")
            }
            DbError::TooLarge { what, len, max } => {
                write!(f, "{what} length {len} exceeds format bound {max}")
            }
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io(e) => Some(e),
            DbError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e)
    }
}

impl From<PlanParseError> for DbError {
    fn from(e: PlanParseError) -> Self {
        DbError::Plan(e)
    }
}

/// Canonicalize untrusted extents into a database key: drop unit axes,
/// sort ascending, and validate the rank and [`Shape::check`], the rule
/// the [`Shape`] constructor asserts — so a key that passes here can be
/// turned into a `Shape` without panicking. The all-units shape
/// canonicalizes to `[1]`.
pub fn validate_key(dims: &[usize]) -> Result<Vec<usize>, DbError> {
    Ok(StackKey::canonical(dims)?
        .extents()
        .iter()
        .map(|&d| usize::from(d))
        .collect())
}

/// A canonical key on the stack: [`validate_key`]'s answer without the
/// allocation, its extents as `u16` (every admissible extent is at most
/// [`Shape::MAX_AXIS`] = 2¹⁵).
#[derive(Clone, Copy, Debug)]
pub(crate) struct StackKey {
    extents: [u16; MAX_KEY_RANK],
    rank: usize,
}

impl StackKey {
    /// [`validate_key`]'s checks, in its order and with its texts.
    pub(crate) fn canonical(dims: &[usize]) -> Result<StackKey, DbError> {
        // An empty key fails `Shape::check` ("no axes") before its rank
        // is looked at, as it always did.
        if dims.len() > MAX_KEY_RANK {
            return Err(DbError::BadKey {
                reason: format!("rank {} exceeds {MAX_KEY_RANK}", dims.len()),
            });
        }
        Shape::check(dims).map_err(|e| DbError::BadKey {
            reason: e.to_string(),
        })?;
        let mut key = StackKey {
            extents: [1; MAX_KEY_RANK],
            rank: 0,
        };
        for &d in dims.iter().filter(|&&d| d > 1) {
            key.extents[key.rank] = u16::try_from(d).map_err(|_| DbError::BadKey {
                reason: format!("extent {d} exceeds {}", Shape::MAX_AXIS),
            })?;
            key.rank += 1;
        }
        // All units: the key `[1]`, whose extent the fill already holds.
        key.rank = key.rank.max(1);
        key.extents[..key.rank].sort_unstable();
        Ok(key)
    }

    /// The extents, ascending.
    pub(crate) fn extents(&self) -> &[u16] {
        &self.extents[..self.rank]
    }
}

/// Whether `key` is the canonical form of some admissible shape — what
/// [`validate_key`] returns for it: `[1]`, or extents of at least 2 in
/// ascending order that pass [`Shape::check`], at most [`MAX_KEY_RANK`]
/// of them. No allocation.
pub(crate) fn is_canonical(key: &[usize]) -> bool {
    let shaped = key.len() <= MAX_KEY_RANK && Shape::check(key).is_ok();
    shaped && (key == [1] || (key[0] > 1 && key.windows(2).all(|w| w[0] <= w[1])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_canonicalize() {
        assert_eq!(
            validate_key(&[5, 3, 1, 4]).map_err(|e| e.to_string()),
            Ok(vec![3, 4, 5])
        );
        assert_eq!(
            validate_key(&[1, 1, 1]).map_err(|e| e.to_string()),
            Ok(vec![1])
        );
        assert_eq!(validate_key(&[7]).map_err(|e| e.to_string()), Ok(vec![7]));
    }

    #[test]
    fn canonical_keys_are_what_validate_key_returns() {
        for key in [
            &[1][..],
            &[2],
            &[2, 2],
            &[3, 4, 5],
            &[Shape::MAX_AXIS, Shape::MAX_AXIS],
        ] {
            assert!(is_canonical(key), "{key:?}");
            assert_eq!(validate_key(key).ok().as_deref(), Some(key));
        }
        for key in [
            &[][..],
            &[0],
            &[1, 1],
            &[1, 3],
            &[3, 1],
            &[4, 3],
            &[2, 0],
            &[Shape::MAX_AXIS + 1],
            &[Shape::MAX_AXIS; 4],
            &[2; MAX_KEY_RANK + 1],
        ] {
            assert!(!is_canonical(key), "{key:?}");
        }
    }

    #[test]
    fn keys_reject_inadmissible_shapes() {
        assert!(validate_key(&[]).is_err());
        assert!(validate_key(&[0, 3]).is_err());
        assert!(validate_key(&[Shape::MAX_AXIS + 1]).is_err());
        assert!(validate_key(&[2; MAX_KEY_RANK + 1]).is_err());
        // Node-count overflow via many max axes.
        assert!(validate_key(&[Shape::MAX_AXIS; 4]).is_err());
    }

    /// The reasons go over the wire in `bad shape key` errors: the rank
    /// is checked first, then the axes in order.
    #[test]
    fn key_errors_keep_their_text() {
        let max = Shape::MAX_AXIS;
        for (dims, reason) in [
            (&[][..], "no axes".to_owned()),
            (
                &[2; MAX_KEY_RANK + 1],
                format!("rank {} exceeds {MAX_KEY_RANK}", MAX_KEY_RANK + 1),
            ),
            (
                &[0; MAX_KEY_RANK + 1],
                format!("rank {} exceeds {MAX_KEY_RANK}", MAX_KEY_RANK + 1),
            ),
            (&[3, 0, max + 1], "zero extent".to_owned()),
            (&[max + 1, 0], format!("extent {} exceeds {max}", max + 1)),
            (
                &[max; 4],
                format!("node count exceeds {}", Shape::MAX_NODES),
            ),
        ] {
            match validate_key(dims) {
                Err(DbError::BadKey { reason: got }) => assert_eq!(got, reason, "{dims:?}"),
                other => panic!("{dims:?}: {other:?}"),
            }
        }
    }
}
