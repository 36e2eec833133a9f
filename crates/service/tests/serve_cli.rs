//! The `cubemesh-serve` binary's argument limits: an out-of-range value
//! is a refused line (the usage and exit 2), never a panic or an
//! unbounded allocation; `--help` prints the usage.

use cubemesh_plandb::MAX_BUILD_AXIS;
use cubemesh_service::{MAX_BATCH, MAX_WORKERS};
use std::process::{Command, Output};

fn serve_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cubemesh-serve"))
        .args(args)
        .output()
        .expect("run cubemesh-serve")
}

#[test]
fn query_census_max_outside_the_build_range_is_refused() {
    let range = format!("1..={MAX_BUILD_AXIS}");
    for bad in [0, MAX_BUILD_AXIS + 1] {
        let out = Command::new(env!("CARGO_BIN_EXE_cubemesh-serve"))
            .args(["query", "--census-max", &bad.to_string(), "--count", "1"])
            .output()
            .expect("run cubemesh-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--census-max {bad}: {stderr}");
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
            Some(2),
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

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    for args in [&["--help"][..], &["build", "--help"], &["query", "--help"]] {
        let out = serve_cli(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: cubemesh-serve"),
            "{args:?}: {stdout}"
        );
    }
}

/// Each refusal happens before anything is built, bound or dialled:
/// no `--out` file appears, no socket is bound (the port-0 serve lines
/// would block until shut down), and `--workers` one past the limit
/// spawns no worker.
#[test]
fn bad_lines_are_refused_with_the_usage() {
    let dir = std::env::temp_dir().join(format!("cubemesh-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let db = dir.join("never.db");
    let db = db.to_str().expect("utf-8 temp path");
    let over_workers = (MAX_WORKERS + 1).to_string();
    for args in [
        // An unknown flag (built the database anyway before).
        &["build", "--max-axis", "2", "--out", db, "--bogus", "1"][..],
        &["build", "--out"],
        &["build", "--max-axis", "x", "--out", db],
        &["build", "--max-axis", "513", "--out", db],
        &["build", "--max-axis", "2"],
        &["build", "stray", "--out", db],
        &["--workers", &over_workers, "--addr", "127.0.0.1:0"],
        &["--workers", "x"],
        &["--bogus"],
        &["stray"],
        &["query", "--census-max", "16"],
        &["query", "--addr", "127.0.0.1:9", "--shapes", "3xq"],
        &["shutdown"],
        &["shutdown", "--addr"],
    ] {
        let out = serve_cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: cubemesh-serve"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
    assert!(
        !std::path::Path::new(db).exists(),
        "a refused build wrote {db}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
