//! The daemon's state: trace-cache directory, memoized MRC curves,
//! append-only result log.
//!
//! * **Trace cache** — the shared `WP_TRACE_CACHE` directory. The store
//!   keeps no index of it: served sweeps get the directory through
//!   [`ServeStore::cache_dir`] and, like batch sweeps, count a capture
//!   warm exactly when its `<key>.wpt` exists. `status` counts the
//!   `.wpt` files at call time ([`ServeStore::warm_traces`]).
//! * **Curve memo** — profiled MRC curves keyed by the profile request
//!   (file, streams, rate, `s_max`, granule — i.e. the whole argv) plus
//!   the trace file's length and mtime, so an overwritten trace can
//!   never serve a stale curve. Hits and misses are tallied under
//!   `wp_obs::Counter::{CurveStoreHits, CurveStoreMisses}`.
//! * **Result log** — one JSON line per finished job, appended to
//!   `results.jsonl` in the state directory and flushed on shutdown.
//!   When the log crosses its size limit (16 MiB by default) it is
//!   rotated: the current file is atomically renamed to
//!   `results.jsonl.1` and a fresh `results.jsonl` is opened, so a
//!   long-lived daemon's log stays bounded at two generations and no
//!   record is ever lost or duplicated across the boundary.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default result-log size limit before rotation kicks in.
const DEFAULT_LOG_LIMIT: u64 = 16 * 1024 * 1024;

/// The open result log plus the byte count that triggers rotation.
/// One struct behind one mutex so the append and the size check can
/// never race each other.
#[derive(Debug)]
struct LogState {
    writer: std::io::BufWriter<std::fs::File>,
    /// Bytes written to the *current* generation, seeded from the file's
    /// length at open so a restarted daemon keeps honoring the limit.
    bytes: u64,
    limit: u64,
}

/// Repairs a result log whose final append was torn — a daemon killed
/// mid-`write(2)` leaves a partial record with no trailing newline.
/// Every complete record ends in `\n` by construction, so the repair is
/// exact: truncate to just past the last newline (or to empty if the
/// whole file is one partial record). Counted under
/// `serve_log_torn_tails` and reported in one stderr line; any I/O
/// failure leaves the file untouched (append still works, and the torn
/// tail merely makes the next record's line unparseable — the same
/// deal readers already get from arbitrary external corruption).
fn recover_torn_tail(log_path: &Path) {
    let Ok(bytes) = std::fs::read(log_path) else {
        return;
    };
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return;
    }
    let keep = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |at| at + 1);
    let torn = bytes.len() - keep;
    match std::fs::OpenOptions::new().write(true).open(log_path) {
        Ok(file) if file.set_len(keep as u64).is_ok() => {
            wp_obs::add(wp_obs::Counter::ServeLogTornTails, 1);
            eprintln!(
                "[serve] recovered torn tail in {}: dropped {torn} partial byte(s)",
                log_path.display()
            );
        }
        _ => {}
    }
}

/// The resident store. Shared across the listener, dispatcher, and ops
/// layers as an `Arc<ServeStore>`; every interior field carries its own
/// lock, so concurrent jobs never serialize on one global mutex.
#[derive(Debug)]
pub struct ServeStore {
    cache_dir: PathBuf,
    curves: Mutex<HashMap<String, Arc<String>>>,
    log: Mutex<LogState>,
    log_path: PathBuf,
}

impl ServeStore {
    /// Opens the store: creates `cache_dir` and `state_dir`, and opens
    /// `state_dir/results.jsonl` for append.
    ///
    /// # Errors
    ///
    /// A one-line message if either directory cannot be created or the
    /// result log cannot be opened.
    pub fn open(cache_dir: impl Into<PathBuf>, state_dir: &Path) -> Result<Self, String> {
        let cache_dir = cache_dir.into();
        std::fs::create_dir_all(&cache_dir)
            .map_err(|e| format!("cannot create trace cache {}: {e}", cache_dir.display()))?;
        std::fs::create_dir_all(state_dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", state_dir.display()))?;
        let log_path = state_dir.join("results.jsonl");
        recover_torn_tail(&log_path);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| format!("cannot open result log {}: {e}", log_path.display()))?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Self {
            cache_dir,
            curves: Mutex::new(HashMap::new()),
            log: Mutex::new(LogState {
                writer: std::io::BufWriter::new(file),
                bytes,
                limit: DEFAULT_LOG_LIMIT,
            }),
            log_path,
        })
    }

    /// The trace-cache directory served sweeps capture into and replay
    /// from.
    pub fn cache_dir(&self) -> &Path {
        &self.cache_dir
    }

    /// Number of completed captures in the cache directory right now: the
    /// entries ending in `.wpt`. In-flight temp files
    /// (`<key>.wpt.tmp.<pid>-<seq>`) do not end in `.wpt`, so they never
    /// count. An unreadable directory counts as empty.
    pub fn warm_traces(&self) -> usize {
        std::fs::read_dir(&self.cache_dir).map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".wpt")))
                .count()
        })
    }

    /// Number of memoized curves.
    pub fn curves_held(&self) -> usize {
        self.curves.lock().expect("curve memo").len()
    }

    /// Where the result log lives.
    pub fn log_path(&self) -> &Path {
        &self.log_path
    }

    /// The memo key for a profile request: the argv (which carries the
    /// file, stream set, rate, `s_max`, granule, and output shape) plus
    /// the trace file's length and mtime-nanos, so rewriting the trace
    /// invalidates every curve derived from it.
    pub fn curve_key(argv: &[String], file: &Path) -> String {
        let identity = std::fs::metadata(file)
            .map(|m| {
                let mtime = m
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map_or(0, |d| d.as_nanos());
                format!("{}:{}", m.len(), mtime)
            })
            .unwrap_or_else(|_| "missing".into());
        format!("{identity}|{}", argv.join("\u{1f}"))
    }

    /// Looks `key` up in the curve memo, tallying hit/miss counters.
    pub fn curve_lookup(&self, key: &str) -> Option<Arc<String>> {
        let hit = self.curves.lock().expect("curve memo").get(key).cloned();
        wp_obs::add(
            if hit.is_some() {
                wp_obs::Counter::CurveStoreHits
            } else {
                wp_obs::Counter::CurveStoreMisses
            },
            1,
        );
        hit
    }

    /// Memoizes a freshly computed curve payload.
    pub fn curve_insert(&self, key: String, payload: String) {
        self.curves
            .lock()
            .expect("curve memo")
            .insert(key, Arc::new(payload));
    }

    /// Appends one line to the result log (newline added here), rotating
    /// the log first if this line would push the current generation past
    /// its size limit — so every line lands wholly in one generation and
    /// the union of `results.jsonl` and `results.jsonl.1` holds each
    /// record exactly once.
    pub fn log_line(&self, line: &str) {
        let mut log = self.log.lock().expect("result log");
        let incoming = line.len() as u64 + 1;
        if log.bytes > 0 && log.bytes + incoming > log.limit {
            self.rotate(&mut log);
        }
        let _ = writeln!(log.writer, "{line}");
        log.bytes += incoming;
    }

    /// Lowers (or raises) the rotation limit — tests use a tiny limit to
    /// exercise rotation without writing megabytes.
    pub fn set_log_limit(&self, bytes: u64) {
        self.log.lock().expect("result log").limit = bytes.max(1);
    }

    /// Rotates the result log: flush, atomically rename the current file
    /// to `results.jsonl.1` (replacing any previous rotation), reopen a
    /// fresh `results.jsonl`. Every step degrades safely: if the flush or
    /// rename fails the current generation just keeps growing; if the
    /// reopen fails the old handle still points at the renamed file, so
    /// records are never dropped either way.
    fn rotate(&self, log: &mut LogState) {
        if log.writer.flush().is_err() {
            return;
        }
        let rotated = self.log_path.with_extension("jsonl.1");
        if std::fs::rename(&self.log_path, &rotated).is_err() {
            return;
        }
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.log_path)
        {
            Ok(file) => {
                log.writer = std::io::BufWriter::new(file);
                log.bytes = 0;
            }
            Err(_) => {
                // Keep appending through the old handle (now pointing at
                // the rotated file); reset the counter so we don't retry
                // the rename on every line.
                log.bytes = 0;
            }
        }
    }

    /// Flushes the result log (shutdown path).
    pub fn flush(&self) {
        let _ = self.log.lock().expect("result log").writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dirs(tag: &str) -> (PathBuf, PathBuf) {
        let base = std::env::temp_dir().join(format!("wp-servestore-{}-{tag}", std::process::id()));
        (base.join("cache"), base.join("state"))
    }

    #[test]
    fn warm_traces_counts_completed_captures_at_call_time() {
        let (cache, state) = tmp_dirs("warm");
        std::fs::create_dir_all(&cache).unwrap();
        std::fs::write(cache.join("a-w1-m2.wpt"), b"x").unwrap();
        std::fs::write(cache.join("b-w1-m2.wpt.tmp.1-0"), b"partial").unwrap();
        let store = ServeStore::open(&cache, &state).unwrap();
        assert_eq!(store.cache_dir(), cache);
        assert_eq!(store.warm_traces(), 1, "a temp file is not a capture");
        // Files that land or vanish after open are seen on the next call.
        std::fs::write(cache.join("c-w1-m2.wpt"), b"x").unwrap();
        assert_eq!(store.warm_traces(), 2);
        std::fs::remove_file(cache.join("a-w1-m2.wpt")).unwrap();
        assert_eq!(store.warm_traces(), 1);
        let _ = std::fs::remove_dir_all(cache.parent().unwrap());
    }

    #[test]
    fn log_rotation_keeps_every_record_exactly_once() {
        let (cache, state) = tmp_dirs("rotate");
        let store = ServeStore::open(&cache, &state).unwrap();
        // Each record is 39 bytes + newline; with a 400-byte limit the
        // log rotates exactly once over 12 records, and the run stays
        // well short of a second rotation (480 < 800).
        store.set_log_limit(400);
        let records: Vec<String> = (0..12)
            .map(|i| format!("{{\"type\":\"result\",\"job\":{i:02},\"lines\":0007}}"))
            .collect();
        for r in &records {
            assert_eq!(r.len(), 39, "fixed-width records keep the math exact");
            store.log_line(r);
        }
        store.flush();
        let current = std::fs::read_to_string(state.join("results.jsonl")).unwrap();
        let rotated = std::fs::read_to_string(state.join("results.jsonl.1")).unwrap();
        assert!(!current.is_empty() && !rotated.is_empty());
        let mut seen: Vec<&str> = rotated.lines().chain(current.lines()).collect();
        assert_eq!(
            seen,
            records.iter().map(String::as_str).collect::<Vec<_>>(),
            "rotated-then-current must replay the exact append order"
        );
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), records.len(), "no record dropped or duplicated");
        // A reopened store seeds its byte count from the surviving file.
        drop(store);
        let store = ServeStore::open(&cache, &state).unwrap();
        store.set_log_limit(400);
        for r in &records {
            store.log_line(r);
        }
        store.flush();
        let current = std::fs::read_to_string(state.join("results.jsonl")).unwrap();
        let rotated = std::fs::read_to_string(state.join("results.jsonl.1")).unwrap();
        assert_eq!(
            current.lines().count() + rotated.lines().count(),
            records.len() + 2,
            "the second generation rotates against the seeded byte count"
        );
        let _ = std::fs::remove_dir_all(cache.parent().unwrap());
    }

    #[test]
    fn open_truncates_exactly_the_torn_tail_record() {
        let (cache, state) = tmp_dirs("torntail");
        std::fs::create_dir_all(&state).unwrap();
        let log = state.join("results.jsonl");
        // Two complete records, then a record torn mid-append (no '\n').
        std::fs::write(
            &log,
            b"{\"type\":\"result\",\"job\":1}\n{\"type\":\"result\",\"job\":2}\n{\"type\":\"res",
        )
        .unwrap();
        let store = ServeStore::open(&cache, &state).unwrap();
        let healed = std::fs::read_to_string(&log).unwrap();
        assert_eq!(
            healed, "{\"type\":\"result\",\"job\":1}\n{\"type\":\"result\",\"job\":2}\n",
            "recovery must drop exactly the partial record, nothing more"
        );
        // Appends land after the healed tail, and rotation still
        // round-trips against the recovered byte count.
        store.set_log_limit(healed.len() as u64 + 30);
        store.log_line("{\"type\":\"result\",\"job\":3}");
        store.log_line("{\"type\":\"result\",\"job\":4}");
        store.flush();
        let current = std::fs::read_to_string(&log).unwrap();
        let rotated = std::fs::read_to_string(state.join("results.jsonl.1")).unwrap();
        let replay: Vec<&str> = rotated.lines().chain(current.lines()).collect();
        assert_eq!(
            replay,
            vec![
                "{\"type\":\"result\",\"job\":1}",
                "{\"type\":\"result\",\"job\":2}",
                "{\"type\":\"result\",\"job\":3}",
                "{\"type\":\"result\",\"job\":4}",
            ],
            "healed log + rotation must replay every complete record once"
        );
        // A log that is ALL torn (one partial record, no newline) heals
        // to empty rather than erroring.
        drop(store);
        std::fs::remove_file(state.join("results.jsonl.1")).unwrap();
        std::fs::write(&log, b"{\"type\":\"res").unwrap();
        let _store = ServeStore::open(&cache, &state).unwrap();
        assert_eq!(std::fs::read(&log).unwrap(), b"");
        let _ = std::fs::remove_dir_all(cache.parent().unwrap());
    }

    #[test]
    fn curve_key_tracks_file_identity() {
        let (cache, state) = tmp_dirs("curvekey");
        std::fs::create_dir_all(&cache).unwrap();
        let trace = cache.join("t.wpt");
        std::fs::write(&trace, b"one").unwrap();
        let argv = vec![trace.display().to_string(), "--json".to_string()];
        let k1 = ServeStore::curve_key(&argv, &trace);
        std::fs::write(&trace, b"rewritten longer").unwrap();
        let k2 = ServeStore::curve_key(&argv, &trace);
        assert_ne!(k1, k2, "rewriting the trace must invalidate the memo");
        let store = ServeStore::open(&cache, &state).unwrap();
        store.curve_insert(k2.clone(), "payload".into());
        assert_eq!(
            store.curve_lookup(&k2).as_deref().map(String::as_str),
            Some("payload")
        );
        assert!(store.curve_lookup(&k1).is_none());
        let _ = std::fs::remove_dir_all(cache.parent().unwrap());
    }
}
