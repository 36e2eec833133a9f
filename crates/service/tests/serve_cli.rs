//! The `cubemesh-serve` binary's argument limits: an out-of-range value
//! is a clean error exit with a message, never a panic or an unbounded
//! allocation.

use cubemesh_plandb::MAX_BUILD_AXIS;
use std::process::Command;

#[test]
fn query_census_max_outside_the_build_range_is_refused() {
    let range = format!("1..={MAX_BUILD_AXIS}");
    for bad in [0, MAX_BUILD_AXIS + 1] {
        let out = Command::new(env!("CARGO_BIN_EXE_cubemesh-serve"))
            .args(["query", "--census-max", &bad.to_string(), "--count", "1"])
            .output()
            .expect("run cubemesh-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--census-max {bad}: {stderr}");
        assert!(
            stderr.contains("--census-max") && stderr.contains(&range),
            "--census-max {bad}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--census-max {bad}: {stderr}");
    }
}
