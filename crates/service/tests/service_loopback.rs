//! End-to-end service behavior over a real loopback TCP connection:
//! batched queries mixing database hits with a cold miss, certificate
//! presence on every answer, the overlay on repeat misses, deferred
//! resolution, graceful shutdown, the write-behind overflow log, the
//! request-line bound, and connections queued on a busy worker.

use cubemesh_obs::{parse_json, JsonValue};
use cubemesh_plandb::{build, load_checkpoint, BuildConfig, RecordStatus};
use cubemesh_service::{
    handle_line, serve, EngineConfig, QueryEngine, Server, ServerConfig, Source, MAX_LINE_BYTES,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cubemesh-service-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn mini_db(dir: &Path, max_axis: usize) -> PathBuf {
    let out = dir.join("plans.db");
    build(&BuildConfig::new(max_axis), &out).expect("build mini db");
    out
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> JsonValue {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    stream.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    parse_json(reply.trim()).expect("reply parses")
}

/// A server with one worker and no database: every shape is planned live.
fn one_worker_server() -> Server {
    let engine = Arc::new(QueryEngine::new(&EngineConfig::default()).expect("engine"));
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
    };
    serve(&cfg, engine).expect("serve")
}

/// Everything the server sends before it closes the connection.
fn read_to_close(stream: TcpStream) -> String {
    let mut reply = String::new();
    BufReader::new(stream)
        .read_to_string(&mut reply)
        .expect("replies, then a clean close");
    reply
}

#[test]
fn batched_queries_over_tcp_with_cold_miss_and_shutdown() {
    let dir = scratch("tcp");
    let db = mini_db(&dir, 6);
    let overflow = dir.join("cold.ck");
    let engine = Arc::new(
        QueryEngine::new(&EngineConfig {
            db: Some(db),
            overflow: Some(overflow.clone()),
        })
        .expect("engine"),
    );
    let server = serve(
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
        },
        Arc::clone(&engine),
    )
    .expect("serve");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A batch mixing db hits ([2,3,4], [5,5] via [1,5,5]), the 5x5x5
    // fallback, a cold miss outside the universe (7x7x7), and one
    // inadmissible shape (extent 0).
    let v = roundtrip(
        &mut stream,
        &mut reader,
        "{\"op\":\"plan\",\"shapes\":[[2,3,4],[1,5,5],[5,5,5],[7,7,7],[0,3]]}",
    );
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
    let results = v
        .get("results")
        .and_then(JsonValue::as_arr)
        .expect("results");
    assert_eq!(results.len(), 5);

    let src = |r: &JsonValue| {
        r.get("source")
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
    };
    // Every non-error result carries certificate, floors, plan, fingerprint.
    for r in &results[..4] {
        assert!(r.get("certificate").is_some(), "{r:?}");
        assert!(r.get("floors").is_some(), "{r:?}");
        assert!(r.get("plan").and_then(JsonValue::as_str).is_some(), "{r:?}");
        let fp = r
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .expect("fp");
        assert!(fp.starts_with("0x") && fp.len() == 18, "{fp}");
    }
    assert_eq!(src(&results[0]).as_deref(), Some("db"));
    assert_eq!(src(&results[1]).as_deref(), Some("db"));
    assert_eq!(
        results[2].get("status").and_then(JsonValue::as_str),
        Some("no-dilation2-plan")
    );
    assert_eq!(src(&results[3]).as_deref(), Some("live"));
    assert!(results[4].get("error").is_some(), "extent 0 must error");

    // Same cold shape again: now served from the overlay.
    let v = roundtrip(
        &mut stream,
        &mut reader,
        "{\"op\":\"plan\",\"shapes\":[[7,7,7]]}",
    );
    let results = v
        .get("results")
        .and_then(JsonValue::as_arr)
        .expect("results");
    assert_eq!(src(&results[0]).as_deref(), Some("overlay"));

    // Deferred construction: resolve measures a real embedding within
    // its certificate.
    let v = roundtrip(
        &mut stream,
        &mut reader,
        "{\"op\":\"resolve\",\"shape\":[5,6,3]}",
    );
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
    let r = v.get("resolved").expect("resolved");
    assert_eq!(r.get("nodes").and_then(JsonValue::as_u64), Some(90));
    assert_eq!(r.get("within_certificate"), Some(&JsonValue::Bool(true)));

    // Stats reflect the traffic.
    let v = roundtrip(&mut stream, &mut reader, "{\"op\":\"stats\"}");
    let s = v.get("stats").expect("stats");
    assert!(s.get("db_hits").and_then(JsonValue::as_u64) >= Some(2));
    assert_eq!(s.get("live_plans").and_then(JsonValue::as_u64), Some(1));
    assert!(s.get("errors").and_then(JsonValue::as_u64) >= Some(1));

    // Malformed line: typed protocol error, connection stays usable.
    let v = roundtrip(&mut stream, &mut reader, "{\"op\":\"nope\"}");
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));

    // Graceful shutdown via the protocol.
    let v = roundtrip(&mut stream, &mut reader, "{\"op\":\"shutdown\"}");
    assert_eq!(v.get("shutting_down"), Some(&JsonValue::Bool(true)));
    assert_eq!(server.join(), 0, "no worker may panic");

    // The cold miss landed in the write-behind overflow log, certified.
    engine.flush_overflow();
    let cold = load_checkpoint(&overflow).expect("overflow log loads");
    assert_eq!(cold.len(), 1);
    assert_eq!(cold[0].key, vec![7, 7, 7]);
    assert_eq!(cold[0].status, RecordStatus::Certified);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_without_database_plans_everything_live() {
    let engine = QueryEngine::new(&EngineConfig::default()).expect("engine");
    let (rec, source) = engine.lookup(&[4, 4, 4]).expect("lookup");
    assert_eq!(source, Source::Live);
    assert_eq!(rec.status, RecordStatus::Certified);
    let (_, source) = engine.lookup(&[4, 4, 4]).expect("lookup again");
    assert_eq!(source, Source::Overlay);
    let stats = engine.stats();
    assert_eq!(stats.db_records, 0);
    assert_eq!(stats.live_plans, 1);
    assert_eq!(stats.overlay_hits, 1);
}

#[test]
fn hostile_nesting_gets_an_in_band_error() {
    let engine = QueryEngine::new(&EngineConfig::default()).expect("engine");
    let (reply, stop) = handle_line(&engine, &"[".repeat(1_000_000));
    assert!(!stop);
    let v = parse_json(&reply).expect("reply parses");
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));
    let error = v.get("error").and_then(JsonValue::as_str).unwrap_or("");
    assert!(error.contains("nesting"), "{reply}");
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let dir = scratch("concurrent");
    let db = mini_db(&dir, 5);
    let engine = Arc::new(
        QueryEngine::new(&EngineConfig {
            db: Some(db),
            overflow: None,
        })
        .expect("engine"),
    );
    let server = serve(
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
        },
        Arc::clone(&engine),
    )
    .expect("serve");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let v = roundtrip(
                    &mut stream,
                    &mut reader,
                    "{\"op\":\"plan\",\"shapes\":[[2,3,5],[4,4,4],[5,5,5]]}",
                );
                let results = v
                    .get("results")
                    .and_then(JsonValue::as_arr)
                    .expect("results")
                    .to_vec();
                results
                    .iter()
                    .map(|r| {
                        r.get("fingerprint")
                            .and_then(JsonValue::as_str)
                            .expect("fp")
                            .to_owned()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let answers: Vec<Vec<String>> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    for a in &answers[1..] {
        assert_eq!(
            a, &answers[0],
            "all clients must see identical fingerprints"
        );
    }
    server.request_shutdown();
    assert_eq!(server.join(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_over_long_line_is_refused_and_the_worker_serves_on() {
    let server = one_worker_server();
    let addr = server.local_addr();
    // One byte past the bound and no newline. The server reads exactly
    // that much before it answers, so its close is a clean end of stream.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&vec![b' '; MAX_LINE_BYTES + 1])
        .expect("write");
    let reply = read_to_close(stream);
    assert_eq!(reply.lines().count(), 1, "{reply}");
    let v = parse_json(reply.trim()).expect("reply parses");
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));
    let error = v.get("error").and_then(JsonValue::as_str).unwrap_or("");
    assert_eq!(
        error,
        format!("request line exceeds {MAX_LINE_BYTES} bytes")
    );

    // The server's one worker is free for the next client.
    let mut next = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(next.try_clone().expect("clone"));
    let v = roundtrip(&mut next, &mut reader, "{\"op\":\"stats\"}");
    assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
    server.request_shutdown();
    assert_eq!(server.join(), 0);
}

#[test]
fn clients_queued_on_one_worker_are_answered_in_turn() {
    let server = one_worker_server();
    let addr = server.local_addr();
    // All three connect and send before the worker has served any; the
    // ones it is not serving wait in the listen backlog.
    let clients: Vec<TcpStream> = (4..7)
        .map(|c| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let request = format!("{{\"op\":\"plan\",\"shapes\":[[2,3,{c}]]}}\n");
            stream.write_all(request.as_bytes()).expect("write");
            stream
                .shutdown(Shutdown::Write)
                .expect("close the write half");
            stream
        })
        .collect();
    for (c, stream) in (4..7).zip(clients) {
        let reply = read_to_close(stream);
        let v = parse_json(reply.trim()).expect("reply parses");
        let results = v
            .get("results")
            .and_then(JsonValue::as_arr)
            .expect("results");
        let shape = results[0].get("shape").and_then(JsonValue::as_arr);
        let extents: Vec<u64> = shape
            .expect("shape")
            .iter()
            .filter_map(JsonValue::as_u64)
            .collect();
        assert_eq!(extents, [2, 3, c], "{reply}");
    }
    server.request_shutdown();
    assert_eq!(server.join(), 0);
}
