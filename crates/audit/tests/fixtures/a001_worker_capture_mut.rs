//! Fixture: trips exactly CM-A001 (worker-capture-mut).
//!
//! The closure handed to the pool's `run_tasks` mutates `total`, a
//! binding captured from the enclosing scope — a data race once tasks
//! run on real threads.

pub fn lower(v: Vec<u32>) {
    let mut total = 0u32;
    cubemesh_pool::run_tasks(v.len(), |i| total += v[i]);
    let _ = total;
}
