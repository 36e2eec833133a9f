//! The `sweep2d` binary's command line: `--help` prints the usage, and a
//! bad line is refused with the usage and exit 2 before the coverage
//! table is built or any search starts. Before, `--help` and a
//! non-numeric word silently started the default hours-long sweep, and
//! a huge `max_nodes` aborted allocating its `max_nodes²` table.

use std::process::{Command, Output};

fn sweep2d(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep2d"))
        .args(args)
        .output()
        .expect("run sweep2d")
}

#[test]
fn help_prints_the_usage_and_sweeps_nothing() {
    for args in [&["--help"][..], &["256", "--help"]] {
        let out = sweep2d(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: sweep2d"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?} swept");
    }
}

#[test]
fn bad_lines_are_refused_before_the_sweep() {
    for args in [
        &["x"][..],
        &["1000000", "1"],
        &["4097"],
        &["0"],
        &["16", "x"],
        &["16", "100", "stray"],
        &["--bogus"],
        &["16", "--budget", "3"],
        &["-5"],
    ] {
        let out = sweep2d(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: sweep2d"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("uncovered"), "{args:?} swept: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
