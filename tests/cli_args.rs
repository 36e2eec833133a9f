//! `cubemesh` answers a bad command line with its usage and exit code 2,
//! never with a panic or an allocator abort; `--help` prints the usage
//! and succeeds; a good command line prints what it always printed; a
//! run whose stdout reader has gone stops quietly with exit 0.

use std::process::{Command, Output, Stdio};

fn cubemesh(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cubemesh"))
        .args(args)
        .env_remove("CUBEMESH_STATS")
        .output()
        .expect("cubemesh runs")
}

/// Exit code 2, the usage on stderr, nothing on stdout, no panic.
fn refused(args: &[&str]) {
    let out = cubemesh(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(stderr.contains("usage: cubemesh"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn bad_shapes_and_flags_are_usage_errors() {
    for args in [
        // Extents outside Shape's limits (a panic in Shape::new before).
        &["embed", "0", "3"][..],
        &["embed", "40000"],
        &["classify", "0", "5", "5"],
        &["torus", "40000", "2"],
        // Just past each subcommand's node limit (an allocator abort
        // before): embed 2^27, torus 2^24, simulate 2^20, replay 2^19.
        &["embed", "2048", "2048", "2048"],
        &["embed", "1025", "512", "256"],
        &["classify", "1025", "512", "256"],
        &["torus", "4097", "4096"],
        &["simulate", "1025", "1024"],
        &["replay", "513", "1024"],
        // A word that is not an extent (ignored before).
        &["embed", "5", "x", "7"],
        &["census", "x"],
        // An unknown or misspelt flag (ignored before).
        &["embed", "5", "6", "7", "--stat"],
        &["simulate", "3", "3", "--jsn"],
        &["verify", "--out"],
        // A flag value that is not a number.
        &["replay", "4", "4", "4", "--flits", "many"],
        // A trace past MAX_REPLAY_EVENTS (an allocator abort, then a
        // capacity-overflow panic before), refused before generating.
        &["replay", "4", "4", "4", "--phases", "1000000000000"],
        &["replay", "4", "4", "4", "--phases", "100000000000000000"],
        &[
            "replay",
            "4",
            "4",
            "4",
            "--pattern",
            "bursty",
            "--horizon",
            "1000000",
        ],
        // A window axis past MAX_REPLAY_WINDOWS (an allocator abort
        // before), and a stencil past 2^64 cycles (an overflow in the
        // trace generator before).
        &[
            "replay",
            "2",
            "2",
            "--phases",
            "2",
            "--period",
            "1000000000000000",
            "--window",
            "1",
        ],
        &[
            "replay", "2", "2", "--phases", "2", "--period", "1048576", "--window", "1",
        ],
        &[
            "replay",
            "2",
            "2",
            "--pattern",
            "bursty",
            "--horizon",
            "1048577",
            "--window",
            "1",
        ],
        &[
            "replay",
            "2",
            "2",
            "--phases",
            "3",
            "--period",
            "18446744073709551615",
        ],
        // A valued flag without its value, and an unknown pattern.
        &["embed", "9", "9", "9", "--trace"],
        &["embed", "5", "6", "7", "--out"],
        &["replay", "4", "4", "4", "--pattern", "nope"],
        // Missing or unknown pieces.
        &["embed"],
        &["census", "12"],
        &["frobnicate", "3"],
        &[],
    ] {
        refused(args);
    }
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    for args in [&["--help"][..], &["embed", "--help"]] {
        let out = cubemesh(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: cubemesh"), "{args:?}: {stdout}");
        assert!(stdout.contains("embed <l1>"), "{args:?}: {stdout}");
    }
}

#[test]
fn a_good_embed_prints_what_it_always_printed() {
    let out = cubemesh(&["embed", "5", "6", "7"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "5x6x7: Q8 (minimal), expansion 1.219, dilation 2, congestion 2, avg dilation 1.394\n"
    );
    assert!(out.stderr.is_empty());
}

#[test]
fn stats_report_the_peak_resident_set() {
    let out = cubemesh(&["embed", "5", "6", "7", "--stats"]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    if std::path::Path::new("/proc/self/status").exists() {
        let kib: u64 = stderr
            .lines()
            .find_map(|l| l.trim().strip_prefix("process.peak_rss_kib"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no peak line in:\n{stderr}"));
        assert!(kib > 0);
    }
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    for args in [
        &["embed", "5", "6", "7"][..],
        &["classify", "2", "5", "22"],
        &["torus", "6", "10"],
        &["simulate", "4", "4", "4"],
        &["simulate", "4", "4", "--json"],
        &["census", "3"],
        &[
            "replay", "2", "2", "--phases", "2", "--period", "262000", "--window", "1",
        ],
        &["replay", "3", "3", "--pattern", "sweep", "--horizon", "32"],
        &["replay", "3", "3", "--slack"],
        &["replay", "3", "3", "--check"],
    ] {
        // The read end of the pipe closes at spawn, so the first report
        // line meets a broken pipe (a panic and exit 101 before), and the
        // JSON snapshot that would follow it one more.
        let mut child = Command::new(env!("CARGO_BIN_EXE_cubemesh"))
            .args(args)
            .env("CUBEMESH_STATS", "json")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cubemesh runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("cubemesh exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}
