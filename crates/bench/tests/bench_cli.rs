//! The `cubemesh-bench` binary writes a BENCH document only to a path the
//! caller names, so a trial run from the repo root never overwrites the
//! committed baselines; `--help` and an unknown flag run nothing.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cubemesh-bench-cli-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn bench_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cubemesh-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run cubemesh-bench")
}

fn files_in(dir: &Path) -> Vec<String> {
    fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn help_and_unknown_flags_run_nothing() {
    let dir = scratch_dir("flags");
    let help = bench_in(&dir, &["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage: cubemesh-bench"));
    for args in [&["--bogus"][..], &["--reps", "x"][..], &["stray"][..]] {
        let out = bench_in(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: cubemesh-bench"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran the bench");
    }
    assert!(files_in(&dir).is_empty(), "{:?}", files_in(&dir));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_run_without_out_paths_writes_no_bench_file() {
    let dir = scratch_dir("run");
    let out = bench_in(
        &dir,
        &[
            "--quick",
            "--no-replay",
            "--no-service",
            "--par-only",
            "--reps",
            "1",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(files_in(&dir).is_empty(), "{:?}", files_in(&dir));
    let _ = fs::remove_dir_all(&dir);
}

/// Exit code 2, the usage on stderr, nothing on stdout, no panic.
fn refused(bin: &str, out: &Output, args: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {bin}")),
        "{bin} {args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
}

#[test]
fn bench_refuses_bad_values_before_running() {
    let dir = scratch_dir("values");
    for args in [
        &["--out"][..],
        &["--quick", "--threads"],
        &["--shapes", "0x3"],
        &["--shapes", "40000x2"],
        &["--shapes", "4xq"],
        // Past `cubemesh embed`'s node limit, 2^27 (an allocator abort
        // before).
        &["--shapes", "2048x2048x64"],
        &["--shapes", "16x16x16,513x512x512"],
        &["--trace"],
    ] {
        refused("cubemesh-bench", &bench_in(&dir, args), args);
    }
    assert!(files_in(&dir).is_empty(), "{:?}", files_in(&dir));
    let _ = fs::remove_dir_all(&dir);
}

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env_remove("CUBEMESH_STATS")
        .output()
        .expect("run figures")
}

/// `figures` checks its whole line before any figure runs: `--help`
/// prints the usage, and a bad word is refused without a figure (`fig2
/// 10` ran the n <= 9 census and then panicked; `fig2 0` printed a bare
/// header; `--help` was an unknown figure).
#[test]
fn figures_help_and_refusals_run_nothing() {
    for args in [&["--help"][..], &["fig2", "--help"]] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: figures"));
    }
    for args in [
        &[][..],
        &["fig2", "10"],
        &["fig2", "0"],
        &["fig2", "99999999999"],
        &["fig2", "x"],
        &["fig1", "bogus"],
        &["exceptions", "--bogus"],
        &["exceptions", "--trace", "t.json"],
        &["exceptions", "-3"],
    ] {
        refused("figures", &figures(args), args);
    }
}
