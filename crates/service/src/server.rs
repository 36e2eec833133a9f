//! The blocking TCP front end: a bounded worker pool polling one
//! listener, with cooperative shutdown.
//!
//! No async runtime and no platform event loop: the listener is
//! non-blocking, and each of the `workers` threads polls `accept` on it
//! between connections, so it can watch the shutdown flag. A worker
//! owns one connection at a time (line in, line out, flush), and reads
//! carry a short timeout so an idle connection never pins a worker
//! across shutdown. The pool is *bounded*: beyond `workers` concurrent
//! connections, new ones wait in the kernel's listen backlog, not in a
//! queue of this process, and a request line longer than
//! [`MAX_LINE_BYTES`] is answered with an error and closed before it is
//! buffered whole.

use crate::engine::QueryEngine;
use crate::protocol::{handle_line, render_error};
use crate::ServiceError;
use cubemesh_obs as obs;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The most worker threads `cubemesh-serve --workers` starts: each
/// worker is an OS thread serving one connection at a time, so a larger
/// request is refused before the server binds.
pub const MAX_WORKERS: usize = 256;

/// The longest request line the server reads, newline excluded: 16 MiB,
/// over twice a compact [`MAX_BATCH`](crate::MAX_BATCH) request of
/// rank-16 keys with five-digit extents (~6.4 MB). A longer line is
/// answered with one in-band error and the connection is closed, so no
/// client can make a worker buffer more.
pub const MAX_LINE_BYTES: usize = 1 << 24;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads (connections served concurrently); `cubemesh-serve`
    /// accepts at most [`MAX_WORKERS`].
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
        }
    }
}

/// A running server: the bound address, the shutdown flag, and the
/// worker threads [`Server::join`] waits on.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

const POLL: Duration = Duration::from_millis(25);
const READ_TIMEOUT: Duration = Duration::from_millis(250);

impl Server {
    /// The address actually bound (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag every loop watches; setting it stops the server. Shared
    /// so a signal handler or another thread can request shutdown.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Request a graceful shutdown without waiting.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, SeqCst);
    }

    /// Wait for every worker to finish. Returns the number of threads
    /// that panicked (0 on a clean run).
    pub fn join(self) -> usize {
        let joined = self.workers.into_iter().map(JoinHandle::join);
        joined.filter(Result::is_err).count()
    }
}

/// Bind, spawn the worker pool, and return the running server.
pub fn serve(cfg: &ServerConfig, engine: Arc<QueryEngine>) -> Result<Server, ServiceError> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let listener = Arc::new(listener);
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers = (0..cfg.workers.max(1))
        .map(|_| {
            let listener = Arc::clone(&listener);
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || worker_loop(&listener, &engine, &shutdown))
        })
        .collect();
    Ok(Server {
        addr,
        shutdown,
        workers,
    })
}

/// Serve one connection at a time, taking each from the listener's
/// backlog, until shutdown.
fn worker_loop(listener: &TcpListener, engine: &QueryEngine, shutdown: &AtomicBool) {
    while !shutdown.load(SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                obs::counter!("service.conn.accepted").inc();
                serve_connection(stream, engine, shutdown);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => {
                obs::counter!("service.conn.accept_error").inc();
                std::thread::sleep(POLL);
            }
        }
    }
}

fn serve_connection(stream: TcpStream, engine: &QueryEngine, shutdown: &AtomicBool) {
    // The stream is set blocking: on some platforms an accepted socket
    // inherits the listener's non-blocking mode.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        obs::counter!("service.conn.setup_error").inc();
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        obs::counter!("service.conn.setup_error").inc();
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        if shutdown.load(SeqCst) {
            return;
        }
        // Read at most one byte past the longest line, newline included.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // client closed
            Ok(_) if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") => {
                obs::counter!("service.conn.line_too_long").inc();
                let error = render_error(&format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                if write_line(&mut writer, &error).is_err() {
                    obs::counter!("service.conn.write_error").inc();
                }
                return;
            }
            Ok(_) => {
                let Ok(text) = std::str::from_utf8(&line) else {
                    obs::counter!("service.conn.read_error").inc();
                    return;
                };
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    let (response, stop) = handle_line(engine, trimmed);
                    if write_line(&mut writer, &response).is_err() {
                        obs::counter!("service.conn.write_error").inc();
                        return;
                    }
                    if stop {
                        shutdown.store(true, SeqCst);
                        return;
                    }
                }
                line.clear();
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                // Idle poll tick: re-check the shutdown flag. Bytes a
                // torn read already appended to `line` are kept — the
                // next read keeps accumulating until the newline.
                continue;
            }
            Err(_) => {
                obs::counter!("service.conn.read_error").inc();
                return;
            }
        }
    }
}

/// Write `text` and a newline, and flush.
fn write_line(writer: &mut TcpStream, text: &str) -> std::io::Result<()> {
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}
