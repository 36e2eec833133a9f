//! The blocking TCP front end: a bounded worker pool over an accept
//! loop, with cooperative shutdown.
//!
//! No async runtime and no platform event loop — the listener is
//! polled non-blocking so the accept thread can watch the shutdown
//! flag, and worker reads carry a short timeout so an idle connection
//! never pins a worker across shutdown. Accepted connections queue on
//! a channel; `workers` threads drain it, each owning one connection
//! at a time (line in, line out, flush). The pool is *bounded*: beyond
//! `workers` concurrent connections, new ones wait in the queue rather
//! than spawning threads.

use crate::engine::QueryEngine;
use crate::protocol::handle_line;
use crate::ServiceError;
use cubemesh_obs as obs;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The most worker threads `cubemesh-serve --workers` starts: each
/// worker is an OS thread serving one connection at a time, so a larger
/// request is refused before the server binds.
pub const MAX_WORKERS: usize = 256;

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
/// thread handles [`Server::join`] waits on.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
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

    /// Wait for the accept loop and every worker to finish. Returns the
    /// number of threads that panicked (0 on a clean run).
    pub fn join(self) -> usize {
        let mut panicked = 0;
        if self.acceptor.join().is_err() {
            panicked += 1;
        }
        for w in self.workers {
            if w.join().is_err() {
                panicked += 1;
            }
        }
        panicked
    }
}

/// Bind, spawn the worker pool, and return the running server.
pub fn serve(cfg: &ServerConfig, engine: Arc<QueryEngine>) -> Result<Server, ServiceError> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));

    let (tx, rx) = channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let worker_count = cfg.workers.max(1);
    let mut workers = Vec::with_capacity(worker_count);
    for _ in 0..worker_count {
        let rx = Arc::clone(&rx);
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        workers.push(std::thread::spawn(move || {
            worker_loop(&rx, &engine, &shutdown);
        }));
    }

    let flag = Arc::clone(&shutdown);
    let acceptor = std::thread::spawn(move || {
        while !flag.load(SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    obs::counter!("service.conn.accepted").inc();
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(_) => {
                    obs::counter!("service.conn.accept_error").inc();
                    std::thread::sleep(POLL);
                }
            }
        }
        // Dropping `tx` here wakes every idle worker with a recv error.
    });

    Ok(Server {
        addr,
        shutdown,
        acceptor,
        workers,
    })
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    engine: &Arc<QueryEngine>,
    shutdown: &Arc<AtomicBool>,
) {
    loop {
        if shutdown.load(SeqCst) {
            return;
        }
        let next = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv_timeout(POLL)
        };
        match next {
            Ok(stream) => serve_connection(stream, engine, shutdown),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn serve_connection(stream: TcpStream, engine: &Arc<QueryEngine>, shutdown: &Arc<AtomicBool>) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() || stream.set_nodelay(true).is_err() {
        obs::counter!("service.conn.setup_error").inc();
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        obs::counter!("service.conn.setup_error").inc();
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        if shutdown.load(SeqCst) {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    let (response, stop) = handle_line(engine, trimmed);
                    if writer.write_all(response.as_bytes()).is_err()
                        || writer.write_all(b"\n").is_err()
                        || writer.flush().is_err()
                    {
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
                // next read_line keeps accumulating until the newline.
                continue;
            }
            Err(_) => {
                obs::counter!("service.conn.read_error").inc();
                return;
            }
        }
    }
}
