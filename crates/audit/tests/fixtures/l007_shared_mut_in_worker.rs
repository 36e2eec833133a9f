//! Fixture: trips exactly CM-L007 (shared-mut-in-worker).
//!
//! A `static mut` no worker reaches yet, and a `RefCell` built beside a
//! thread spawn: both are data races one refactor away.

use std::cell::RefCell;

static mut EPOCH: u64 = 0;

pub fn fan_out() -> u64 {
    let acc = RefCell::new(0u64);
    std::thread::spawn(|| {});
    acc.into_inner()
}
