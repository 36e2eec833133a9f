//! The `cubemesh-serve` binary's argument limits: an out-of-range value
//! is a clean error exit with a message, never a panic or an unbounded
//! allocation.

use cubemesh_plandb::MAX_BUILD_AXIS;
use cubemesh_service::MAX_BATCH;
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

#[test]
fn query_batch_over_the_server_limit_is_refused() {
    // Refused before any connection: the address is never dialled.
    let over = (MAX_BATCH + 1).to_string();
    for extra in [&[][..], &["--shapes", "3x5x17"][..]] {
        let count = if extra.is_empty() {
            over.clone()
        } else {
            MAX_BATCH.to_string()
        };
        let out = Command::new(env!("CARGO_BIN_EXE_cubemesh-serve"))
            .args(["query", "--addr", "127.0.0.1:9", "--census-max", "16"])
            .args(["--count", &count])
            .args(extra)
            .output()
            .expect("run cubemesh-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "--count {count} {extra:?}: {stderr}"
        );
        assert!(
            stderr.contains(&over) && stderr.contains(&MAX_BATCH.to_string()),
            "--count {count} {extra:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(!stderr.contains("connect"), "{stderr}");
    }
}
