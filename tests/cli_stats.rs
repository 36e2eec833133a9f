//! Turning stats or tracing on never changes what `cubemesh embed`
//! computes: stdout and the `--out` file are byte-identical with and
//! without `--stats` or `--trace`, and the snapshot reports only work the
//! embed itself did.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `cubemesh embed <dims> --out <file> <extra…>`; returns the
/// process output and the bytes written to the file.
fn embed(dims: &[&str], out: &PathBuf, extra: &[&std::ffi::OsStr]) -> (Output, Vec<u8>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cubemesh"));
    cmd.arg("embed")
        .args(dims)
        .arg("--out")
        .arg(out)
        .args(extra);
    cmd.env_remove("CUBEMESH_STATS");
    let output = cmd.output().expect("cubemesh runs");
    assert!(output.status.success(), "embed {dims:?} failed: {output:?}");
    let bytes = std::fs::read(out).expect("embed wrote --out");
    (output, bytes)
}

#[test]
fn stats_and_trace_leave_embed_output_unchanged() {
    let dir = std::env::temp_dir().join(format!("cubemesh-cli-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for dims in [["5", "6", "7"], ["16", "16", "16"]] {
        let out = dir.join(format!("{}.emb", dims.join("x")));
        let trace = dir.join(format!("{}.trace.json", dims.join("x")));
        let (plain, plain_bytes) = embed(&dims, &out, &[]);
        let (stats, stats_bytes) = embed(&dims, &out, &["--stats".as_ref()]);
        let (traced, traced_bytes) = embed(&dims, &out, &["--trace".as_ref(), trace.as_ref()]);
        assert_eq!(plain.stdout, stats.stdout, "{dims:?}: stdout differs");
        assert_eq!(plain_bytes, stats_bytes, "{dims:?}: --out bytes differ");
        assert_eq!(
            plain.stdout, traced.stdout,
            "{dims:?}: traced stdout differs"
        );
        assert_eq!(
            plain_bytes, traced_bytes,
            "{dims:?}: traced --out bytes differ"
        );
        assert!(trace.exists(), "{dims:?}: no trace written");
        assert!(
            plain.stderr.is_empty(),
            "{dims:?}: stats off printed a snapshot"
        );
        let snapshot = String::from_utf8_lossy(&stats.stderr);
        assert!(snapshot.contains("span.construct"), "{dims:?}: no snapshot");
        if dims == ["16", "16", "16"] {
            // A Plan::Gray shape: nothing in the embed routes through
            // the router, so the snapshot must not mention it.
            assert!(
                !snapshot.lines().any(|l| l.contains("router.")),
                "16x16x16 snapshot reports router work:\n{snapshot}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
