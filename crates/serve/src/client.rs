//! The thin client: send one request line, stream the reply frames.
//!
//! `trace_tool --connect <sock>` routes every subcommand through here.
//! For work verbs the client prints each `line` frame's `data` with
//! `println!` — the same macro the offline path uses on the same
//! [`ops`](crate::ops)-produced strings — so client-mode stdout is
//! byte-identical to the offline invocation. Errors travel on stderr and
//! the exit code, never stdout.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use wp_obs::json::{parse, Json};

use crate::protocol::Request;

/// The canonical prefix for "the daemon went away mid-conversation"
/// errors: a broken pipe, a hangup, or a torn frame from a daemon that
/// is draining. `trace_tool` maps this class to exit code 1 (expected
/// operational condition) instead of 2 (usage/run error).
pub const SHUTDOWN_ERROR_PREFIX: &str = "daemon shutting down";

/// Whether `message` is the typed "daemon went away / is draining"
/// class — either this client's own [`SHUTDOWN_ERROR_PREFIX`] mapping
/// of a transport failure, or the daemon's own drain-time rejections.
pub fn is_shutdown_error(message: &str) -> bool {
    message.starts_with(SHUTDOWN_ERROR_PREFIX)
        || message.contains("daemon is shutting down")
        || message.contains("daemon shut down mid-job")
}

/// One connection to a running daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// A work verb's outcome, as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The job id the daemon assigned (0 for rejected requests).
    pub job: u64,
    /// The op's stdout lines, verbatim.
    pub lines: Vec<String>,
}

impl Client {
    /// Connects to the daemon's socket.
    ///
    /// # Errors
    ///
    /// A one-line message naming the socket (typically: no daemon
    /// running there).
    pub fn connect(socket: &Path) -> Result<Self, String> {
        let stream = UnixStream::connect(socket).map_err(|e| {
            format!(
                "cannot connect to {}: {e} (is `trace_tool serve` running?)",
                socket.display()
            )
        })?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket stream: {e}"))?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// [`connect`](Self::connect) with up to `attempts` tries and
    /// capped, deterministically jittered exponential backoff between
    /// them (base 10 ms doubling to a 120 ms cap, ±25% jitter drawn
    /// from `seed` via splitmix64). Smooths over a daemon that is
    /// still binding, or the gap between one draining and its
    /// replacement listening.
    ///
    /// # Errors
    ///
    /// The last attempt's one-line connect error.
    pub fn connect_with_retry(socket: &Path, attempts: u32, seed: u64) -> Result<Self, String> {
        let attempts = attempts.max(1);
        let mut last_err = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                wp_obs::add(wp_obs::Counter::ClientConnectRetries, 1);
                let base = 10u64 << (attempt - 1).min(4); // 10,20,40,80,120-capped
                let base = base.min(120);
                // ±25% deterministic jitter so a fleet of clients
                // retrying the same dead socket does not stampede in
                // lockstep (and tests reproduce the exact schedule).
                let jitter = wp_fault::splitmix64(seed ^ u64::from(attempt)) % (base / 2 + 1);
                std::thread::sleep(Duration::from_millis(base * 3 / 4 + jitter));
            }
            match Self::connect(socket) {
                Ok(c) => return Ok(c),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Sends one raw line (newline appended here).
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_line(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| match e.kind() {
                // A raw broken pipe here means the daemon closed its end
                // (drain or death) between connect and send: typed, not
                // a stack trace.
                std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset => format!(
                    "{SHUTDOWN_ERROR_PREFIX}: connection closed before the request was sent \
                     (retry once it is back)"
                ),
                _ => format!("daemon connection lost while sending: {e}"),
            })
    }

    /// Reads one reply frame (without its newline).
    ///
    /// # Errors
    ///
    /// Socket read failures or a daemon-side hangup.
    pub fn read_frame(&mut self) -> Result<String, String> {
        // `sock-slow` models a congested or descheduled client that
        // lets daemon-side frames pile up in the channel buffers.
        if let Some(shot) = wp_fault::fire(wp_fault::FaultPoint::SockSlow) {
            wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
            std::thread::sleep(Duration::from_millis(shot.millis));
        }
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err(format!(
                "{SHUTDOWN_ERROR_PREFIX}: connection closed before the reply completed"
            )),
            // A final fragment with no newline is a frame torn by the
            // daemon dying (or dropping the socket) mid-write: typed,
            // never parsed as JSON.
            Ok(_) if !line.ends_with('\n') => Err(format!(
                "{SHUTDOWN_ERROR_PREFIX}: connection closed mid-frame"
            )),
            Ok(_) => Ok(line.trim_end_matches('\n').to_string()),
            Err(e) => match e.kind() {
                std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset => Err(
                    format!("{SHUTDOWN_ERROR_PREFIX}: connection reset mid-reply"),
                ),
                _ => Err(format!("daemon connection lost while reading: {e}")),
            },
        }
    }

    /// Runs one work verb to completion, collecting its stdout lines.
    ///
    /// # Errors
    ///
    /// The daemon's error frame message (including cancellations), or
    /// transport failures.
    pub fn run(&mut self, req: &Request) -> Result<Reply, String> {
        self.send_line(&req.to_line())?;
        self.collect()
    }

    /// Reads frames for one previously sent work request until its
    /// `done`/`error` frame.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn collect(&mut self) -> Result<Reply, String> {
        let mut job = 0u64;
        let mut lines = Vec::new();
        loop {
            let frame = self.read_frame()?;
            let doc = parse(&frame).map_err(|e| format!("malformed daemon frame: {e}"))?;
            match doc.get("type").and_then(Json::as_str) {
                Some("ack") => {
                    job = doc.get("job").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                }
                Some("line") => {
                    let data = doc
                        .get("data")
                        .and_then(Json::as_str)
                        .ok_or("line frame lacks string data")?;
                    lines.push(data.to_string());
                }
                Some("done") => return Ok(Reply { job, lines }),
                Some("error") => {
                    let message = doc
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("unspecified daemon error");
                    return Err(message.to_string());
                }
                other => {
                    return Err(format!(
                        "unexpected frame type {other:?} in a work reply: {frame}"
                    ))
                }
            }
        }
    }

    /// Runs one synchronous verb (`status`, `metrics`, `cancel`,
    /// `shutdown`), returning its single reply frame.
    ///
    /// # Errors
    ///
    /// Transport failures or a daemon-side error frame.
    pub fn call(&mut self, req: &Request) -> Result<String, String> {
        self.send_line(&req.to_line())?;
        let frame = self.read_frame()?;
        let doc = parse(&frame).map_err(|e| format!("malformed daemon frame: {e}"))?;
        if doc.get("type").and_then(Json::as_str) == Some("error") {
            let message = doc
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unspecified daemon error");
            return Err(message.to_string());
        }
        Ok(frame)
    }
}
