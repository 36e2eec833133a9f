//! The `discover` binary's command line: `--help` prints the usage, and
//! a bad line is refused with the usage and exit 2 before any search
//! starts — each of these panicked before.

use std::process::{Command, Output};

fn discover(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_discover"))
        .args(args)
        .env_remove("CUBEMESH_STATS")
        .output()
        .expect("run discover")
}

#[test]
fn help_prints_the_usage_and_searches_nothing() {
    for args in [&["--help"][..], &["3", "5", "--help"]] {
        let out = discover(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: discover"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?} searched");
    }
}

#[test]
fn bad_lines_are_refused_before_the_search() {
    for args in [
        &[][..],
        &["0", "3"],
        &["40000", "3"],
        &["3", "x", "5"],
        &["3", "5", "--bogus"],
        &["3", "5", "--stats"],
        &["3", "5", "--dilation", "x"],
        &["3", "5", "--dilation", "0"],
        &["3", "5", "--dilation", "25"],
        &["3", "5", "--dim"],
        &["3", "5", "--dim", "25"],
        &["3", "5", "--dim", "70"],
        &["3", "5", "--budget", "-1"],
        // A minimal cube above the search limit (Q27).
        &["4096", "4096", "8"],
    ] {
        let out = discover(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: discover"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("searching"), "{args:?} searched: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
