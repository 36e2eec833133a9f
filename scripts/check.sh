#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build+test cycle.
# Run from anywhere; operates on the repo root.
#
#   check.sh          full gate
#   check.sh --quick  source analyzer + a <=8^3 certify/selfcheck smoke
#                     (exits non-zero on any finding or certificate failure)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--quick" ]]; then
    echo "== quick: audit source analyzer =="
    cargo run --release -q -p cubemesh-audit -- analyze
    echo "== quick: certify smoke (<=8^3) =="
    cargo run --release -q -p cubemesh-audit -- selfcheck --quick
    echo "Quick checks passed."
    exit 0
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q (pool width 1 + default) =="
# The whole suite runs twice: once pinned to a single pool worker and
# once at the host's native width. Divergence between the two runs means
# a chunk merge or reduction is order-sensitive — exactly the bug class
# the work-stealing executor must never expose.
cargo build --release
CUBEMESH_THREADS=1 cargo test -q
cargo test -q

echo "== embed: 256^3 under 400 MiB peak RSS (--stats process.peak_rss_kib) =="
# Routes stored as cube dimensions keep this at ~230 MiB; with every route
# a stored node path it peaked at ~1.35 GiB. The figure is the snapshot's
# VmHWM line, so the gate needs no external time(1).
peak_kib=$(CUBEMESH_STATS=text target/release/cubemesh embed 256 256 256 --stats 2>&1 >/dev/null \
    | awk '$1 == "process.peak_rss_kib" { print $2 }')
if [[ -z "$peak_kib" ]]; then
    echo "ERROR: embed --stats printed no process.peak_rss_kib line" >&2
    exit 1
fi
echo "embed 256 256 256: peak RSS $((peak_kib / 1024)) MiB"
if (( peak_kib >= 400 * 1024 )); then
    echo "ERROR: embed 256 256 256 peaked at $((peak_kib / 1024)) MiB, at or over 400 MiB" >&2
    exit 1
fi

echo "== perfbench: the benchmark still builds against the library APIs =="
# perfbench is its own workspace and builds the library crates by path,
# so only this step (not the tier-1 build) catches a change that breaks
# the API the benchmark uses. It only builds. When a library crate's
# dependencies change, cargo rewrites the tracked perfbench/Cargo.lock;
# that rewrite is not committed (the benchmark builds without --locked,
# so the committed lock still builds offline).
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== crate test suites (every workspace member but the root package) =="
# At a workspace root with a root package, `cargo test -q` tests only the
# root package, so the crates' own unit and integration tests (plandb,
# service, pool, obs, the planner, ...) need this step to gate.
cargo test -q --workspace --exclude cubemesh

echo "== audit: source analyzer (CM-A005..A013 dataflow, CM-L hygiene rules) =="
# Hard gate: any finding fails the build. The JSON artifact is archived;
# per-pass wall time is surfaced so a pass that blows the analyze budget
# is identifiable.
mkdir -p target
analyze_t0=$(date +%s%N)
cargo run --release -q -p cubemesh-audit -- analyze --json > target/audit-analyze.json
analyze_t1=$(date +%s%N)
analyze_ms=$(( (analyze_t1 - analyze_t0) / 1000000 ))
test -s target/audit-analyze.json
grep -q '"findings":\[\]' target/audit-analyze.json
pass_times=$(sed -E 's/.*"pass_ms":\{([^}]*)\}.*/\1/' target/audit-analyze.json | tr -d '"')
analyzer_ms=$(sed -E 's/.*"elapsed_ms":([0-9]+).*/\1/' target/audit-analyze.json)
echo "per-pass ms: ${pass_times}"
echo "wrote target/audit-analyze.json (0 findings, analyzer ${analyzer_ms} ms," \
     "${analyze_ms} ms end-to-end)"
# Hard analyze budget: the analyzer itself (excluding cargo overhead)
# must stay under 5s so the gate stays cheap enough to run per-commit.
if (( analyzer_ms > 5000 )); then
    echo "ERROR: analyzer took ${analyzer_ms} ms, over the 5000 ms budget" >&2
    exit 1
fi

echo "== audit: analyzer self-test (fixture corpus must trip) =="
# Each known-bad fixture in crates/audit/tests/fixtures/ must trip
# exactly its diagnostic code — a silently dead pass fails the gate.
cargo test --release -q -p cubemesh-audit --test fixtures

echo "== audit: compile probes (rustc rejects the retired rules) =="
# What the analyzer no longer checks, rustc rejects: the races at every
# fan-out (CM-A001, A002, A004, A005's captured merge, L007's shared
# cell; the pool takes `Fn + Sync`, std's spawn takes `Send`), a
# `static mut` access (CM-A003; `unsafe_code` is forbidden in every
# library crate and denied in crates/pool), a span guard dropped early
# (CM-A008, L008; `span!` binds its own guard), and a `Result` dropped by
# a statement or an unread binding (CM-A013's other forms). Each probe in
# crates/audit/tests/compile_fail/ is the lib of a scratch crate that
# depends on crates/pool and crates/obs, checked with the clippy step's
# flags, and must fail with exactly what its `//! expect:` line names:
# an error code (E0xxx), a lint name, or a parse error's message. A
# probe that compiles, or fails for another reason (a typo), fails the
# gate. The a005 fixture must pass in the same crate, so the merge rule
# that remains aims at code that compiles.
probe_dir=target/compile-probe
mkdir -p "$probe_dir/src"
printf '%s\n' '[package]' 'name = "compile-probe"' 'version = "0.0.0"' \
    'edition = "2021"' 'publish = false' '' '[workspace]' '' '[dependencies]' \
    "cubemesh-pool = { path = \"$PWD/crates/pool\" }" \
    "cubemesh-obs = { path = \"$PWD/crates/obs\" }" > "$probe_dir/Cargo.toml"
probe_build() {
    cp "$1" "$probe_dir/src/lib.rs"
    cargo clippy --offline -q --color never --manifest-path "$probe_dir/Cargo.toml" \
        --target-dir "$probe_dir/target" -- -D warnings 2> "$probe_dir/build.err"
}
for probe in crates/audit/tests/compile_fail/*.rs; do
    expect=$(sed -nE 's|^//! expect: (.+)$|\1|p' "$probe")
    if [[ -z "$expect" ]]; then
        echo "ERROR: $probe names no '//! expect:' line" >&2
        exit 1
    fi
    if probe_build "$probe"; then
        echo "ERROR: $probe compiled; rustc no longer rejects it" >&2
        exit 1
    fi
    codes=$({ grep -oE '^error\[E[0-9]{4}\]' "$probe_dir/build.err" || true; } | sort -u | tr -d '\n')
    if [[ "$expect" =~ ^E[0-9]{4}$ ]]; then
        # Exactly this error code, and no other.
        [[ "$codes" == "error[$expect]" ]] && matched=1 || matched=0
    elif [[ "$expect" =~ ^[a-z_]+$ ]]; then
        # A lint: no error code, and the lint named where rustc says
        # which level made it an error (`#[allow(lint)]`, `forbid(lint)`).
        [[ -z "$codes" ]] && grep -qE "\($expect\)" "$probe_dir/build.err" \
            && matched=1 || matched=0
    else
        # A parse error: no error code, and an error line with the message.
        [[ -z "$codes" ]] && grep -qxF "error: $expect" "$probe_dir/build.err" \
            && matched=1 || matched=0
    fi
    if (( ! matched )); then
        echo "ERROR: $probe did not fail with '$expect'" >&2
        cat "$probe_dir/build.err" >&2
        exit 1
    fi
    echo "$(basename "$probe" .rs): rejected with $expect"
done
if ! probe_build crates/audit/tests/fixtures/a005_nondet_order_merge.rs; then
    echo "ERROR: fixture a005_nondet_order_merge does not compile" >&2
    cat "$probe_dir/build.err" >&2
    exit 1
fi
echo "a005_nondet_order_merge: compiles"

echo "== audit: injected-violation self-test (the analyze gate must trip) =="
# Drop known-bad sources into a scratch workspace shaped like a crate
# and run the analyzer over each; the gate failing to exit non-zero is
# itself a failure. One concurrency fixture (CM-A005), one dataflow
# fixture (CM-A009) and one hygiene fixture (CM-L001) so every rule
# family stays live in the gate.
for fixture in a005_nondet_order_merge a009_range_overflow_mul l001_panic_in_lib; do
    inject_dir=$(mktemp -d)
    mkdir -p "$inject_dir/src"
    cp "crates/audit/tests/fixtures/${fixture}.rs" "$inject_dir/src/lib.rs"
    if cargo run --release -q -p cubemesh-audit -- analyze --root "$inject_dir" >/dev/null 2>&1; then
        echo "ERROR: injected ${fixture} violation did not trip the analyze gate" >&2
        rm -rf "$inject_dir"
        exit 1
    fi
    rm -rf "$inject_dir"
done
echo "analyze gate trips on injected concurrency, dataflow and hygiene violations, as designed."

echo "== audit: certificate self-check (mesh/torus/fold/contract, 32^3) =="
cargo run --release -q -p cubemesh-audit -- selfcheck --stats

echo "== audit: certify artifact (certificate vs floor, JSON) =="
mkdir -p target
cargo run --release -q -p cubemesh-audit -- certify --json --sweep 8 \
    > target/audit-certify.json
test -s target/audit-certify.json
echo "wrote target/audit-certify.json"

echo "== bench: quick smoke + perf-trajectory gate vs BENCH_3/BENCH_5 =="
# The bench bin exits non-zero if the parallel and sequential engines
# disagree on any shape, if the BENCH_4 replay rung violates its
# congestion certificate, or if any compare metric regresses past
# tolerance against the committed baselines (BENCH_3 shape/kernel rungs
# and BENCH_5 query-service rungs). Full ladders stay out of tier-1;
# --quick runs the small shapes plus one replay point (the service
# ladder always runs at fixed parameters). The run is traced, and the
# trace plus the compare report are archived under target/.
mkdir -p target
# --reps 25: the 16^3 rung is sub-millisecond, so min-of-3 timing is
# too noisy for a 15% gate; min-of-25 stays within a few percent.
cargo run --release -q -p cubemesh-bench --bin cubemesh-bench -- \
    --quick --reps 25 --json --out target/bench-quick.json \
    --replay-out target/replay-report.json \
    --compare BENCH_3.json --compare-out target/bench-compare.json \
    --service-out target/bench-service.json \
    --compare-service BENCH_5.json \
    --trace target/trace-quick.json >/dev/null
test -s target/bench-quick.json
test -s target/replay-report.json
test -s target/bench-compare.json
test -s target/bench-service.json
test -s target/trace-quick.json
echo "wrote target/bench-quick.json target/replay-report.json" \
     "target/bench-compare.json target/bench-service.json target/trace-quick.json"

echo "== bench: injected-regression self-test (the gate must trip) =="
# --inject-regression deflates this run's throughput 25%, past the 15%
# tolerance; the compare gate failing to exit non-zero is itself a
# failure. Compared against the quick docs written seconds ago (not the
# committed baselines), so host drift since the baselines were recorded
# can't eat the injection margin.
if cargo run --release -q -p cubemesh-bench --bin cubemesh-bench -- \
    --quick --reps 25 --no-replay --out /tmp/cubemesh_bench_inject.json \
    --service-out /tmp/cubemesh_bench5_inject.json \
    --compare target/bench-quick.json \
    --compare-service target/bench-service.json \
    --inject-regression >/dev/null 2>&1; then
    echo "ERROR: injected regression did not trip the compare gate" >&2
    exit 1
fi
rm -f /tmp/cubemesh_bench_inject.json /tmp/cubemesh_bench5_inject.json
echo "compare gate trips on an injected regression, as designed."

echo "== trace: determinism (event sequence stable modulo timestamps) =="
# Two traced runs of the same embed must produce identical JSONL event
# sequences once timestamps are stripped (ts_ns is always the last
# field, so a sed suffices). Single-threaded to pin chunk order.
CUBEMESH_THREADS=1 cargo run --release -q --bin cubemesh -- \
    embed 9 9 9 --trace /tmp/cubemesh_trace_a.json >/dev/null
CUBEMESH_THREADS=1 cargo run --release -q --bin cubemesh -- \
    embed 9 9 9 --trace /tmp/cubemesh_trace_b.json >/dev/null
sed -E 's/,"ts_ns":[0-9]+//' /tmp/cubemesh_trace_a.jsonl > /tmp/cubemesh_trace_a.seq
sed -E 's/,"ts_ns":[0-9]+//' /tmp/cubemesh_trace_b.jsonl > /tmp/cubemesh_trace_b.seq
diff /tmp/cubemesh_trace_a.seq /tmp/cubemesh_trace_b.seq
rm -f /tmp/cubemesh_trace_{a,b}.json /tmp/cubemesh_trace_{a,b}.folded \
    /tmp/cubemesh_trace_{a,b}.jsonl /tmp/cubemesh_trace_{a,b}.seq
echo "traced event sequences identical."

echo "== pool: thread-count invariance (replay report JSON diff) =="
# The same replay must serialize byte-identically whether the pool runs
# one worker or eight: every fan-out merge is order-preserving and every
# reduction is exact-integer, so stealing order must never show through.
# The two reports are archived under target/ and diffed.
CUBEMESH_THREADS=1 cargo run --release -q --bin cubemesh -- \
    replay 3 5 5 --pattern bursty --horizon 128 --seed 13 --json \
    > target/replay-threads-1.json
CUBEMESH_THREADS=8 cargo run --release -q --bin cubemesh -- \
    replay 3 5 5 --pattern bursty --horizon 128 --seed 13 --json \
    > target/replay-threads-8.json
diff target/replay-threads-1.json target/replay-threads-8.json
echo "replay report identical at pool width 1 and 8" \
     "(target/replay-threads-{1,8}.json)"

echo "== service: census DB determinism (pool width 1 vs 8, resume) =="
# The census plan database must be a pure function of its key universe:
# byte-identical whether the sweep ran on one pool worker or eight, and
# byte-identical when rebuilt entirely from a prior run's checkpoint.
SRV_DIR=$(mktemp -d)
CUBEMESH_THREADS=1 cargo run --release -q -p cubemesh-service --bin cubemesh-serve -- \
    build --max-axis 16 --out "$SRV_DIR/plans-t1.db" >/dev/null
CUBEMESH_THREADS=8 cargo run --release -q -p cubemesh-service --bin cubemesh-serve -- \
    build --max-axis 16 --out "$SRV_DIR/plans-t8.db" \
    --checkpoint "$SRV_DIR/sweep.ck" >/dev/null
cmp "$SRV_DIR/plans-t1.db" "$SRV_DIR/plans-t8.db"
# Rebuild against the finished checkpoint: every shape must resume (the
# report says so) and the bytes must still match the fresh builds.
resume_report=$(cargo run --release -q -p cubemesh-service --bin cubemesh-serve -- \
    build --max-axis 16 --out "$SRV_DIR/plans-resume.db" \
    --checkpoint "$SRV_DIR/sweep.ck")
echo "$resume_report"
echo "$resume_report" | grep -q '"resumed":0}' && {
    echo "ERROR: checkpointed rebuild resumed nothing" >&2; exit 1; }
cmp "$SRV_DIR/plans-t1.db" "$SRV_DIR/plans-resume.db"
echo "census DB byte-identical at pool width 1/8 and across a checkpoint resume"

echo "== service: TCP smoke (batched census query, cold miss, shutdown) =="
# Start cubemesh-serve on an ephemeral port, then drive it with its own
# query client: 1024 census shapes (database hits) plus one shape
# outside the universe (a live-planned cold miss that must land in the
# write-behind overflow log). The client exits non-zero if any result
# lacks a certificate, floors, a plan or a fingerprint, so certificate
# presence on every response is part of the gate. Shutdown goes through
# the protocol and the server process must exit cleanly.
cargo run --release -q -p cubemesh-service --bin cubemesh-serve -- \
    --db "$SRV_DIR/plans-t1.db" --overflow "$SRV_DIR/cold.ck" --workers 4 \
    > "$SRV_DIR/serve.out" &
SRV_PID=$!
for _ in $(seq 1 100); do
    grep -q '"listening"' "$SRV_DIR/serve.out" 2>/dev/null && break
    sleep 0.1
done
SRV_ADDR=$(sed -E 's/.*"listening":"([^"]+)".*/\1/' "$SRV_DIR/serve.out" | head -1)
test -n "$SRV_ADDR"
query_report=$(cargo run --release -q -p cubemesh-service --bin cubemesh-serve -- \
    query --addr "$SRV_ADDR" --census-max 16 --count 1024 --shapes "31x31x31")
echo "$query_report"
echo "$query_report" | grep -q '"db":'     # census shapes answered from the DB
echo "$query_report" | grep -q '"live":'   # the cold miss was planned live
cargo run --release -q -p cubemesh-service --bin cubemesh-serve -- \
    shutdown --addr "$SRV_ADDR" >/dev/null
wait "$SRV_PID"
test -s "$SRV_DIR/cold.ck"                 # overflow log holds the cold miss
rm -rf "$SRV_DIR"
echo "service answered 1025 shapes with certificates and shut down cleanly"

echo "== service: index memory and a full batch (max axis 128) =="
# The index is held as sorted per-rank tables of u16 extents and u64
# frame ends (~14 B per rank-3 record) and streamed in at open, so the
# server's VmHWM right after it prints "listening" on the 357,760-record
# database must stay under 24 MiB (~8 MiB here; the HashMap index it
# replaced peaked at 49 MiB). The server runs from target/release, not
# through cargo, so that $! is its pid. A full MAX_BATCH query must come
# back within 60 s (~1 s here; the client's JSON string scan was
# quadratic in the response line before).
cargo build --release -q -p cubemesh-service --bin cubemesh-serve
MEM_DIR=$(mktemp -d)
target/release/cubemesh-serve build --max-axis 128 --out "$MEM_DIR/plans.db" >/dev/null
target/release/cubemesh-serve --db "$MEM_DIR/plans.db" > "$MEM_DIR/serve.out" &
MEM_PID=$!
for _ in $(seq 1 100); do
    grep -q '"listening"' "$MEM_DIR/serve.out" 2>/dev/null && break
    sleep 0.1
done
MEM_ADDR=$(sed -E 's/.*"listening":"([^"]+)".*/\1/' "$MEM_DIR/serve.out" | head -1)
hwm_kib=$(awk '$1 == "VmHWM:" { print $2 }' "/proc/$MEM_PID/status")
echo "cubemesh-serve on a max-axis-128 DB: VmHWM $((hwm_kib / 1024)) MiB after listening"
if [[ -z "$MEM_ADDR" ]] || (( hwm_kib >= 24 * 1024 )); then
    echo "ERROR: no listening line, or VmHWM $((hwm_kib / 1024)) MiB is at or over 24 MiB" >&2
    kill "$MEM_PID"
    exit 1
fi
if ! timeout 60 target/release/cubemesh-serve query --addr "$MEM_ADDR" \
    --census-max 128 --count 65536 > "$MEM_DIR/query.out"; then
    echo "ERROR: a 65536-shape query did not finish within 60 s" >&2
    kill "$MEM_PID"
    exit 1
fi
cat "$MEM_DIR/query.out"
grep -q '"sources":{"db":65536}' "$MEM_DIR/query.out"
target/release/cubemesh-serve shutdown --addr "$MEM_ADDR" >/dev/null
wait "$MEM_PID"
rm -rf "$MEM_DIR"

echo "== replay: determinism + conservation smoke =="
# --check replays the same recorded trace twice and exits non-zero unless
# the reports are byte-identical and delivered == injected.
cargo run --release -q --bin cubemesh -- replay 3 5 --pattern bursty \
    --horizon 64 --seed 9 --record /tmp/cubemesh_replay_smoke.jsonl --check
cargo run --release -q --bin cubemesh -- replay 3 5 \
    --trace-in /tmp/cubemesh_replay_smoke.jsonl --check
rm -f /tmp/cubemesh_replay_smoke.jsonl
# Slack join: measured dynamic peak must stay within the certificate
# (non-zero exit on violation).
cargo run --release -q --bin cubemesh -- replay 3 3 7 --slack

echo "All checks passed."
