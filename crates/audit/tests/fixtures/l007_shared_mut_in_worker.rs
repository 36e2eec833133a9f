//! Fixture: trips exactly CM-L007 (shared-mut-in-worker).
//!
//! A `static mut` declaration builds under `#![forbid(unsafe_code)]`:
//! only its access needs `unsafe`. It is a data race one refactor away.

pub static mut EPOCH: u64 = 0;
