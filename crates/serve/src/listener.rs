//! The listener: unix-domain-socket accept loop and per-connection
//! request handling.
//!
//! The daemon binds one socket, accepts connections non-blockingly (so
//! the loop can poll the shutdown-signal flag and the `shutdown` verb
//! between accepts), and handles each connection on its own thread.
//! Requests on a connection run sequentially; concurrency comes from
//! opening several connections — which is exactly how the saturating
//! benchmark and the determinism tests drive it.
//!
//! Shutdown (SIGINT, SIGTERM, or the `shutdown` verb) is graceful in a
//! fixed order: stop accepting, cancel-and-drain the job queue (every queued
//! job still answers its client, as `cancelled` errors), join the
//! connection threads, flush the result log, and finally unlink the
//! socket file. A stale socket from a crashed daemon is detected at bind
//! time — `connect` distinguishes a live daemon from a dead one's
//! leftover — and reported as a one-line error, never a panic.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::dispatcher::{Dispatcher, JobEvent};
use crate::protocol::{ack_frame, done_frame, error_frame, line_frame, Request};
use crate::signal;
use crate::store::ServeStore;

/// The longest request line the daemon reads, newline included. A request
/// carries only a verb and its argv, so 64 KiB is ample; a longer line is
/// answered with an error frame and the connection is closed.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How the daemon is wired: socket path, store directories, queue shape.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The unix socket to listen on.
    pub socket: PathBuf,
    /// The shared trace-cache directory (`WP_TRACE_CACHE` layout).
    pub cache_dir: PathBuf,
    /// Where the daemon's own state (result log) lives.
    pub state_dir: PathBuf,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Maximum pending (not yet running) jobs before submits are
    /// rejected.
    pub queue_capacity: usize,
    /// Per-job wall-clock budget in milliseconds (`--timeout-ms`);
    /// `None` = unbounded. A job past its budget aborts at its next
    /// cooperative checkpoint with a typed "timed out" error frame.
    pub job_timeout_ms: Option<u64>,
}

impl ServeConfig {
    /// A config over `socket` with the defaults the CLI uses: the
    /// `WP_TRACE_CACHE` trace cache, `target/wp-serve` state, two
    /// workers, and a 64-deep queue.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            cache_dir: wp_bench::sweep::default_cache_dir(),
            state_dir: PathBuf::from("target/wp-serve"),
            workers: 2,
            queue_capacity: 64,
            job_timeout_ms: None,
        }
    }
}

/// A bound, not-yet-serving daemon. Splitting bind from
/// [`run`](Self::run) lets callers (tests, the benchmark) know the
/// socket is accepting before the first client connects, and surfaces
/// bind errors synchronously.
#[derive(Debug)]
pub struct Server {
    listener: UnixListener,
    socket: PathBuf,
    store: Arc<ServeStore>,
    dispatcher: Arc<Dispatcher>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Opens the store, binds the socket, and starts the worker pool.
    /// Also enables the `wp_obs` registry — a resident daemon always
    /// runs with its telemetry on, that is half its point.
    ///
    /// # Errors
    ///
    /// One-line messages for store/bind failures. `AddrInUse` is
    /// disambiguated by probing the socket: a live daemon on the other
    /// end is reported as such; a dead one's leftover file gets a
    /// "stale socket" message naming the file to remove.
    pub fn bind(config: &ServeConfig) -> Result<Self, String> {
        wp_obs::enable();
        let store = Arc::new(ServeStore::open(&config.cache_dir, &config.state_dir)?);
        let listener = bind_socket(&config.socket)?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set {} non-blocking: {e}", config.socket.display()))?;
        let dispatcher = Arc::new(Dispatcher::start(
            Arc::clone(&store),
            config.workers,
            config.queue_capacity,
            config.job_timeout_ms.map(Duration::from_millis),
        ));
        Ok(Self {
            listener,
            socket: config.socket.clone(),
            store,
            dispatcher: Arc::clone(&dispatcher),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// A flag that, once set, makes [`run`](Self::run) shut down at its
    /// next poll — how tests stop an in-process daemon without a signal.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The resident store (tests assert on its occupancy).
    pub fn store(&self) -> &Arc<ServeStore> {
        &self.store
    }

    /// Serves until SIGINT, SIGTERM, or a `shutdown` request, then
    /// tears down gracefully. Consumes the server; the socket file is removed on
    /// the way out.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O failures other than the expected
    /// `WouldBlock`/`Interrupted`.
    pub fn run(self) -> Result<(), String> {
        signal::install_shutdown_flags();
        eprintln!(
            "wp-serve: listening on {} ({} warm traces; log {})",
            self.socket.display(),
            self.store.warm_traces(),
            self.store.log_path().display(),
        );
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) || signal::shutdown_signal_received() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    let dispatcher = Arc::clone(&self.dispatcher);
                    let shutdown = Arc::clone(&self.shutdown);
                    let handle = std::thread::Builder::new()
                        .name("wp-serve-conn".into())
                        .spawn(move || handle_connection(stream, &dispatcher, &shutdown))
                        .map_err(|e| format!("cannot spawn connection thread: {e}"))?;
                    connections.push(handle);
                    connections.retain(|h| !h.is_finished());
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(format!("accept on {} failed: {e}", self.socket.display())),
            }
        }
        eprintln!("wp-serve: shutting down (draining {:?})", self.dispatcher);
        self.shutdown.store(true, Ordering::SeqCst);
        self.dispatcher.begin_shutdown();
        self.dispatcher.join();
        for h in connections {
            let _ = h.join();
        }
        self.store.flush();
        if let Err(e) = std::fs::remove_file(&self.socket) {
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!(
                    "wp-serve: could not remove socket {}: {e}",
                    self.socket.display()
                );
            }
        }
        eprintln!("wp-serve: stopped");
        Ok(())
    }
}

/// Binds `socket`, turning `AddrInUse` into the right one-line story.
fn bind_socket(socket: &Path) -> Result<UnixListener, String> {
    if let Some(parent) = socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create socket dir {}: {e}", parent.display()))?;
        }
    }
    match UnixListener::bind(socket) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => match UnixStream::connect(socket) {
            Ok(_) => Err(format!(
                "cannot serve on {}: another daemon is already listening there \
                     (send it {{\"verb\":\"shutdown\"}} or pick another socket)",
                socket.display()
            )),
            Err(_) => Err(format!(
                "cannot serve on {}: stale socket file left by a crashed daemon \
                     (no one is listening); remove the file and retry",
                socket.display()
            )),
        },
        Err(e) => Err(format!("cannot bind {}: {e}", socket.display())),
    }
}

/// One connection: read request lines sequentially, answer each with
/// JSONL frames. Work verbs stream their job's events; synchronous
/// verbs answer inline.
fn handle_connection(stream: UnixStream, dispatcher: &Dispatcher, shutdown: &AtomicBool) {
    // A finite read timeout lets the loop notice daemon shutdown even
    // while a client holds the connection open idle.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // On timeout, `read_until` keeps any partial data in `line`;
        // retrying appends to it, so partial lines survive the poll. The
        // reads stop one byte past the cap, so a client that never sends
        // a newline cannot make the daemon buffer more than that.
        loop {
            let room = (MAX_REQUEST_BYTES + 1 - line.len()) as u64;
            match reader.by_ref().take(room).read_until(b'\n', &mut line) {
                Ok(0) => return,
                Ok(_) if line.len() > MAX_REQUEST_BYTES => {
                    let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                    let _ = send(&mut writer, &error_frame(0, false, &message));
                    return;
                }
                Ok(_) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        // Invalid UTF-8 closes the connection, as a failed read does.
        let Ok(text) = std::str::from_utf8(&line) else {
            return;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        let reply_ok = match Request::from_line(trimmed) {
            Err(message) => send(&mut writer, &error_frame(0, false, &message)),
            Ok(req) if req.is_work() => match dispatcher.submit(req) {
                Err(message) => send(&mut writer, &error_frame(0, false, &message)),
                Ok((job, rx)) => {
                    let mut ok = send(&mut writer, &ack_frame(job));
                    while ok {
                        match rx.recv() {
                            Ok(JobEvent::Line(data)) => {
                                ok = send(&mut writer, &line_frame(job, &data));
                            }
                            Ok(JobEvent::Done { lines }) => {
                                ok = send(&mut writer, &done_frame(job, lines));
                                break;
                            }
                            Ok(JobEvent::Error { cancelled, message }) => {
                                ok = send(&mut writer, &error_frame(job, cancelled, &message));
                                break;
                            }
                            // Worker pool tore down mid-job (shutdown).
                            Err(_) => {
                                ok = send(
                                    &mut writer,
                                    &error_frame(job, true, "daemon shut down mid-job"),
                                );
                                break;
                            }
                        }
                    }
                    ok
                }
            },
            Ok(Request::Status) => send(&mut writer, &dispatcher.status_json()),
            Ok(Request::Metrics) => send(
                &mut writer,
                &format!(
                    "{{\"type\":\"metrics\",\"snapshot\":{}}}",
                    wp_obs::snapshot().to_json()
                ),
            ),
            Ok(Request::Cancel { job }) => {
                let found = dispatcher.cancel(job);
                send(
                    &mut writer,
                    &format!("{{\"type\":\"cancelled\",\"job\":{job},\"found\":{found}}}"),
                )
            }
            Ok(Request::Shutdown) => {
                let _ = send(&mut writer, "{\"type\":\"shutdown\"}");
                shutdown.store(true, Ordering::SeqCst);
                return;
            }
            // Work verbs are matched above; nothing else reaches here.
            Ok(_) => unreachable!("non-work verbs are handled explicitly"),
        };
        if !reply_ok {
            return;
        }
    }
}

/// Writes one frame plus newline and flushes; false means the client is
/// gone and the connection thread should wind down.
fn send(writer: &mut impl Write, frame: &str) -> bool {
    // `sock-drop` ships the front half of the frame and abandons the
    // connection — the torn write a daemon killed mid-send produces.
    // Returning false winds the connection thread down, which closes
    // the stream; the client sees a frame with no newline, then EOF.
    if wp_fault::fire(wp_fault::FaultPoint::SockDrop).is_some() {
        wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
        let _ = writer.write_all(&frame.as_bytes()[..frame.len() / 2]);
        let _ = writer.flush();
        return false;
    }
    writeln!(writer, "{frame}")
        .and_then(|()| writer.flush())
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_base(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wp-listen-{}-{tag}", std::process::id()))
    }

    #[test]
    fn stale_and_live_sockets_report_distinct_errors() {
        let base = tmp_base("stale");
        std::fs::create_dir_all(&base).unwrap();
        let sock = base.join("wp.sock");
        // A crashed daemon's leftover: a bound-then-dropped listener
        // leaves the file with nobody accepting.
        drop(UnixListener::bind(&sock).unwrap());
        let err = bind_socket(&sock).unwrap_err();
        assert!(err.contains("stale socket"), "err: {err}");
        assert!(!err.contains("panic"));
        // With a live listener holding it, the message blames the
        // running daemon instead.
        std::fs::remove_file(&sock).unwrap();
        let live = UnixListener::bind(&sock).unwrap();
        let err = bind_socket(&sock).unwrap_err();
        assert!(err.contains("already listening"), "err: {err}");
        drop(live);
        let _ = std::fs::remove_dir_all(&base);
    }
}
