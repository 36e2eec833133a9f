//! Retired CM-A003 (worker-reach-static-mut): a pool worker calling a
//! function that writes a `static mut`. Every access needs `unsafe`, and
//! every library crate is `#![forbid(unsafe_code)]` (`crates/pool`
//! denies it and allows only its own four reasoned items), so rustc
//! rejects the access wherever it is reached from.
//! expect: unsafe_code

#![forbid(unsafe_code)]

static mut COUNTER: u32 = 0;

fn bump() {
    unsafe {
        COUNTER += 1;
    }
}

pub fn lower(v: Vec<u32>) {
    cubemesh_pool::run_tasks(v.len(), |_| bump());
}
