//! The `cubemesh-audit` binary's argument handling: a bad extent, an
//! unknown flag, a non-numeric value or a stray argument is a usage error
//! (exit 2, usage on stderr), never a panic or a silent default.

use std::process::{Command, Output};

fn audit(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cubemesh-audit"))
        .args(args)
        .output()
        .expect("run cubemesh-audit")
}

#[test]
fn bad_arguments_are_usage_errors() {
    let cases: [&[&str]; 11] = [
        &["certify", "0", "5"],
        &["certify", "40000", "2"],
        &["certify", "32768", "32768", "32768", "4"],
        &["certify", "5", "5", "--jsn"],
        &["certify", "5", "5", "x"],
        &["certify", "--sweep", "40000"],
        &["selfcheck", "--max-axis", "x", "--quick"],
        &["analyze", "--bogus"],
        &["analyze", "stray"],
        // `--trace` without its file (refused without the usage before).
        &["certify", "5", "5", "--trace"],
        &["selfcheck", "--max-axis"],
    ];
    for args in cases {
        let out = audit(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: cubemesh-audit"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [&["--help"][..], &["certify", "--help"][..]] {
        let out = audit(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("usage: cubemesh-audit"),
            "{args:?}: {stdout}"
        );
    }
}

#[test]
fn documented_flags_still_run() {
    let out = audit(&["certify", "--json", "5", "5"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with('[') && stdout.contains("\"shape\":[5,5]"),
        "{stdout}"
    );
}

/// `certify --sweep 10` writes the bytes it wrote when it collected every
/// record before printing (FNV-1a of stdout and its length).
#[test]
fn sweep_output_is_pinned() {
    for (flags, hash, len) in [
        (&["--sweep", "10"][..], 0xaa4f_72e3_bcc7_60d2_u64, 83_272),
        (&["--sweep", "10", "--json"], 0x894f_6bba_bbfb_bca3, 137_531),
    ] {
        let out = audit(&[&["certify"][..], flags].concat());
        assert_eq!(out.status.code(), Some(0), "{flags:?}");
        assert_eq!(out.stdout.len(), len, "{flags:?}");
        assert_eq!(
            cubemesh_audit::fnv1a(&out.stdout),
            hash,
            "{flags:?}: got {:#018x}",
            cubemesh_audit::fnv1a(&out.stdout)
        );
    }
}

/// A sweep streams: even at the accepted maximum (~5.9·10¹² shapes) the
/// first record arrives at once.
#[test]
fn largest_sweep_prints_its_first_record_at_once() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    use std::sync::mpsc;
    use std::time::Duration;
    let mut child = Command::new(env!("CARGO_BIN_EXE_cubemesh-audit"))
        .args(["certify", "--sweep", "32768", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cubemesh-audit");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(read.map(|_| line));
    });
    let first = rx.recv_timeout(Duration::from_secs(30));
    child.kill().expect("kill the sweep");
    let _ = child.wait();
    let _ = reader.join();
    let line = first.expect("no record within 30 s").expect("read stdout");
    assert!(
        line.starts_with("[{\"kind\":\"mesh\",\"shape\":[1,1,1]"),
        "{line}"
    );
}

/// A reader that closes the pipe after one line ends the sweep quietly.
#[test]
fn closed_pipe_ends_the_sweep_without_a_panic() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_cubemesh-audit"))
        .args(["certify", "--sweep", "20"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cubemesh-audit");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read one line");
    assert!(line.starts_with("1x1x1 mesh"), "{line}");
    // The reader (and with it the pipe) is gone; the sweep has far more
    // than a pipe buffer left to write.
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
