//! `cubemesh-serve` — the embedding query service over the full-census
//! plan database.
//!
//! A mesh shape goes in; a plan, its audit certificate, its floor-
//! oracle gap and its fingerprint come out — from the database when the
//! shape was swept ([`cubemesh_plandb`]), live-planned and certified on
//! a cold miss, with every cold answer streamed to a write-behind
//! overflow log for the next database build to absorb. Construction of
//! the actual embedding (maps and routes) stays deferred behind an
//! explicit `resolve` request: decomposition answers are cheap and
//! batched, resolution is heavyweight and on demand.
//!
//! Layers, protocol-agnostic core first:
//!
//! * [`engine`] — [`QueryEngine`]: db → overlay → live lookup order,
//!   engine statistics, overflow writer thread;
//! * [`protocol`] — the line-delimited JSON wire format (parsed with
//!   the workspace's own [`cubemesh_obs::parse_json`] — the service
//!   adds no dependencies);
//! * [`server`] — the blocking TCP front end: bounded worker pool
//!   polling one non-blocking listener, request lines of at most
//!   [`MAX_LINE_BYTES`], cooperative shutdown via a shared flag
//!   (set by the `shutdown` op, a signal handler, or any holder of
//!   [`Server::shutdown_flag`]).
//!
//! The `cubemesh-serve` binary wires the three together and adds the
//! builder / client subcommands used by `scripts/check.sh`.

#![forbid(unsafe_code)]

pub mod engine;
pub mod protocol;
pub mod server;

pub use engine::{EngineConfig, QueryEngine, Resolved, Source, StatsSnapshot, MAX_OVERLAY};
pub use protocol::{handle_line, parse_request, render_error, Request, MAX_BATCH};
pub use server::{serve, Server, ServerConfig, MAX_LINE_BYTES, MAX_WORKERS};

use cubemesh_plandb::DbError;
use std::fmt;
use std::io;

/// Why a service operation failed.
#[derive(Debug)]
pub enum ServiceError {
    /// A database or planning error from the plandb layer.
    Db(DbError),
    /// An I/O error from the network layer.
    Io(io::Error),
    /// A plan could not be lowered to a concrete embedding.
    Resolve {
        /// The shape being resolved.
        shape: String,
        /// The construction error, rendered.
        detail: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Db(e) => write!(f, "{e}"),
            ServiceError::Io(e) => write!(f, "service i/o: {e}"),
            ServiceError::Resolve { shape, detail } => {
                write!(f, "cannot resolve {shape}: {detail}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Db(e) => Some(e),
            ServiceError::Io(e) => Some(e),
            ServiceError::Resolve { .. } => None,
        }
    }
}

impl From<DbError> for ServiceError {
    fn from(e: DbError) -> Self {
        ServiceError::Db(e)
    }
}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}
