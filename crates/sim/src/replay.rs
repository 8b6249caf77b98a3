//! Replaying recorded `.wpt` traces through the simulator.
//!
//! [`TraceWorkload`] adapts one stream of a trace file to the [`Workload`]
//! trait, so a recorded (or externally authored) access stream drives any
//! [`LlcScheme`](crate::LlcScheme) exactly like a live model. Because
//! capture tees *every* event the driver pulls, replaying a capture with
//! the same system configuration and run budgets reproduces the original
//! run's statistics bit for bit.

use std::path::{Path, PathBuf};

use wp_mem::PoolId;
use wp_trace::{BatchReader, EventBatch, PrefetchBatches};

use crate::scheme::{PoolDescriptor, TraceEvent, Workload, WorkloadBundle};

/// A [`Workload`] that streams one stream of a `.wpt` trace file.
///
/// Chunks decode zero-copy out of an mmapped image on a lookahead thread
/// ([`PrefetchBatches`], following only this stream), so decode overlaps
/// simulation. [`Workload::fill_batch`] copies quantum-sized slices of
/// the current chunk; [`Workload::next_event`] serves single events from
/// the same cursor.
///
/// The workload ends when the stream does. I/O or corruption mid-replay
/// panics with the underlying [`TraceError`](wp_trace::TraceError) — a
/// half-replayed trace would otherwise masquerade as a short but valid
/// run. Use [`wp_trace::BatchReader`] directly for fallible consumption.
pub struct TraceWorkload {
    prefetch: PrefetchBatches,
    /// The current decoded chunk of our stream, and the read cursor into it.
    chunk: EventBatch,
    chunk_pos: usize,
    stream: u16,
    path: PathBuf,
}

impl std::fmt::Debug for TraceWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWorkload")
            .field("path", &self.path)
            .field("stream", &self.stream)
            .finish()
    }
}

impl TraceWorkload {
    /// Opens stream 0 of `path` (the whole trace for single-app captures).
    pub fn open(path: &Path) -> Result<Self, wp_trace::TraceError> {
        Self::open_stream(path, 0)
    }

    /// Opens stream `stream` of `path` (per-core streams of a multi-core
    /// capture).
    pub fn open_stream(path: &Path, stream: u16) -> Result<Self, wp_trace::TraceError> {
        Ok(Self {
            prefetch: PrefetchBatches::start(BatchReader::open_stream(path, stream)?)?,
            chunk: EventBatch::new(),
            chunk_pos: 0,
            stream,
            path: path.to_path_buf(),
        })
    }

    /// Makes the cursor point at an unread event, decoding the next chunk
    /// when the current one is used up; false at end of stream.
    ///
    /// Counted as [`wp_obs::Phase::Decode`] time — this is the *wait* for
    /// the decode thread, which is exactly the share of decode cost the
    /// simulating thread could not hide.
    fn refill(&mut self) -> bool {
        if self.chunk_pos < self.chunk.len() {
            return true;
        }
        let _span = wp_obs::span(wp_obs::Phase::Decode);
        self.chunk_pos = 0;
        match self.prefetch.next_chunk(&mut self.chunk) {
            Ok(sid) => sid.is_some(),
            Err(e) => panic!("replay of {} failed: {e}", self.path.display()),
        }
    }
}

impl Workload for TraceWorkload {
    fn next_event(&mut self) -> Option<TraceEvent> {
        if !self.refill() {
            return None;
        }
        let i = self.chunk_pos;
        self.chunk_pos += 1;
        Some(TraceEvent {
            gap_instrs: self.chunk.gaps[i],
            line: self.chunk.lines[i],
            is_write: self.chunk.writes[i],
        })
    }

    fn fill_batch(&mut self, batch: &mut EventBatch, max: usize) -> usize {
        let mut filled = 0;
        while filled < max && self.refill() {
            let take = (max - filled).min(self.chunk.len() - self.chunk_pos);
            batch.extend_from(&self.chunk, self.chunk_pos, take);
            self.chunk_pos += take;
            filled += take;
        }
        wp_obs::observe(wp_obs::HistKind::BatchFill, filled as u64);
        filled
    }
}

/// Converts a stream's recorded pool table into simulator descriptors —
/// the single place the `wp_trace::PoolMeta` ↔ [`PoolDescriptor`] field
/// mapping lives (capture uses [`pool_metas_of`] for the inverse).
fn descriptors_of(pools: &[wp_trace::PoolMeta]) -> Vec<PoolDescriptor> {
    pools
        .iter()
        .map(|p| PoolDescriptor {
            name: p.name.clone(),
            pool: p.pool.map(PoolId),
            pages: p.pages.clone(),
            bytes: p.bytes,
        })
        .collect()
}

/// The inverse of [`descriptors_of`], for the driver's capture hook.
pub(crate) fn pool_metas_of(pools: &[PoolDescriptor]) -> Vec<wp_trace::PoolMeta> {
    pools
        .iter()
        .map(|p| wp_trace::PoolMeta {
            name: p.name.clone(),
            pool: p.pool.map(|id| id.0),
            bytes: p.bytes,
            pages: p.pages.clone(),
        })
        .collect()
}

/// Reads the definition of stream `stream` without decoding past it.
/// Stream definitions precede their chunks, so this usually touches only
/// the head of the file.
fn stream_meta(path: &Path, stream: u16) -> Result<wp_trace::StreamMeta, wp_trace::TraceError> {
    let mut reader = BatchReader::open(path)?;
    let mut batch = EventBatch::new();
    loop {
        if let Some(meta) = reader.stream(stream) {
            return Ok(meta.clone());
        }
        if reader.next_chunk(&mut batch)?.is_none() {
            return Err(wp_trace::TraceError::Corrupt(format!(
                "stream {stream} is not defined in the trace"
            )));
        }
    }
}

/// The pool descriptors recorded in stream `stream` of `path` — the exact
/// classification the captured run was given, so pools-consuming schemes
/// (Whirlpool) replay identically.
pub fn trace_pools(path: &Path, stream: u16) -> Result<Vec<PoolDescriptor>, wp_trace::TraceError> {
    Ok(descriptors_of(&stream_meta(path, stream)?.pools))
}

/// Builds a ready-to-attach [`WorkloadBundle`] from stream `stream` of
/// `path`. `with_pools` controls whether the recorded classification is
/// handed to the scheme (pools-agnostic baselines ignore it either way).
pub fn trace_bundle(
    path: &Path,
    stream: u16,
    with_pools: bool,
) -> Result<WorkloadBundle, wp_trace::TraceError> {
    let meta = stream_meta(path, stream)?;
    let pools = if with_pools {
        descriptors_of(&meta.pools)
    } else {
        Vec::new()
    };
    Ok(WorkloadBundle {
        trace: Box::new(TraceWorkload::open_stream(path, stream)?),
        pools,
        name: meta.name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_mem::{LineAddr, PageId};
    use wp_trace::{PoolMeta, TraceWriter};

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wp-sim-replay-{}-{name}", std::process::id()))
    }

    fn write_demo(path: &Path) {
        let mut w = TraceWriter::create(path).unwrap();
        let pools = [PoolMeta {
            name: "pts".into(),
            pool: Some(4),
            bytes: 4096 * 2,
            pages: vec![PageId(10), PageId(11)],
        }];
        let s = w.add_stream("demo", &pools).unwrap();
        for i in 0..300u64 {
            w.record(s, 50, LineAddr(640 + i % 128), i % 5 == 0)
                .unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn replays_all_events_then_ends() {
        let path = temp("basic.wpt");
        write_demo(&path);
        let mut wl = TraceWorkload::open(&path).unwrap();
        let mut n = 0;
        let mut instrs = 0u64;
        while let Some(ev) = wl.next_event() {
            assert_eq!(ev.gap_instrs, 50);
            instrs += u64::from(ev.gap_instrs);
            n += 1;
        }
        assert_eq!(n, 300);
        assert_eq!(instrs, 300 * 50);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bundle_restores_recorded_pools() {
        let path = temp("pools.wpt");
        write_demo(&path);
        let b = trace_bundle(&path, 0, true).unwrap();
        assert_eq!(b.name, "demo");
        assert_eq!(b.pools.len(), 1);
        assert_eq!(b.pools[0].name, "pts");
        assert_eq!(b.pools[0].pool, Some(PoolId(4)));
        assert_eq!(b.pools[0].pages, vec![PageId(10), PageId(11)]);
        let stripped = trace_bundle(&path, 0, false).unwrap();
        assert!(stripped.pools.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_stream_is_an_error() {
        let path = temp("missing.wpt");
        write_demo(&path);
        assert!(trace_pools(&path, 3).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
