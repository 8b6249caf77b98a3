//! Replaying recorded `.wpt` traces through the simulator.
//!
//! [`TraceWorkload`] adapts one stream of a trace file to the [`Workload`]
//! trait, so a recorded (or externally authored) access stream drives any
//! [`LlcScheme`](crate::LlcScheme) exactly like a live model. Because
//! capture tees *every* event the driver pulls, replaying a capture with
//! the same system configuration and run budgets reproduces the original
//! run's statistics bit for bit.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use wp_mem::PoolId;
use wp_trace::{BatchReader, EventBatch, PrefetchBatches, TraceData, TraceError};

use crate::scheme::{PoolDescriptor, TraceEvent, Workload, WorkloadBundle};

/// A [`Workload`] that streams one stream of a `.wpt` trace file.
///
/// Chunks decode zero-copy out of an mmapped image on a lookahead thread
/// ([`PrefetchBatches`], following only this stream), so decode overlaps
/// simulation. [`Workload::fill_batch`] copies quantum-sized slices of
/// the current chunk; [`Workload::next_event`] serves single events from
/// the same cursor.
///
/// The workload ends when the stream does. Replay has no separate
/// validating pass: this stream's reader checks the CRC of every chunk it
/// decodes and, at the `End` block, the stream's totals. An I/O error or
/// damage met mid-replay ends the stream early and is kept;
/// [`Workload::finish`] returns it after the run, so a half-replayed
/// trace fails instead of passing for a short but valid run. `finish`
/// also drains whatever tail the run's budgets left unread, so a replay
/// cut short still validates its whole stream.
pub struct TraceWorkload {
    prefetch: PrefetchBatches,
    /// The current decoded chunk of our stream, and the read cursor into it.
    chunk: EventBatch,
    chunk_pos: usize,
    /// The first read error, which ended the stream.
    error: Option<TraceError>,
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
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::over(path, Arc::new(TraceData::open(path)?), 0)
    }

    /// Stream `stream` of `image`, the already-opened `path`. The
    /// workloads of one mix's streams are built over one image, so the
    /// process maps the file once rather than once per stream.
    pub fn over(path: &Path, image: Arc<TraceData>, stream: u16) -> Result<Self, TraceError> {
        Ok(Self {
            prefetch: PrefetchBatches::start(BatchReader::new(image)?.follow(stream))?,
            chunk: EventBatch::new(),
            chunk_pos: 0,
            error: None,
            stream,
            path: path.to_path_buf(),
        })
    }

    /// Makes the cursor point at an unread event, decoding the next chunk
    /// when the current one is used up; false at end of stream, and after
    /// a read error, which is kept for [`Workload::finish`].
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
            // The reader is done after an error, so this is the first.
            Err(e) => {
                self.error = Some(e);
                false
            }
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

    fn finish(&mut self) -> Result<(), TraceError> {
        while self.refill() {
            self.chunk_pos = self.chunk.len();
        }
        self.error.take().map_or(Ok(()), Err)
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

/// Reads the definition of stream `stream` from the stream table
/// ([`wp_trace::stream_table`]), decoding no chunk.
fn stream_meta(path: &Path, stream: u16) -> Result<wp_trace::StreamMeta, TraceError> {
    wp_trace::stream_table(path)?
        .into_iter()
        .nth(usize::from(stream))
        .ok_or_else(|| TraceError::Corrupt(format!("stream {stream} is not defined in the trace")))
}

/// Builds a ready-to-attach [`WorkloadBundle`] from stream `stream` of
/// `path`. With `with_pools`, the bundle carries the stream's recorded
/// pool descriptors — the exact classification the captured run was
/// given, so pools-consuming schemes (Whirlpool) replay identically;
/// pools-agnostic baselines ignore them either way.
///
/// This reads only the stream table and stream `stream`; it does not
/// check the capture's other streams (`Experiment::replay` does).
pub fn trace_bundle(
    path: &Path,
    stream: u16,
    with_pools: bool,
) -> Result<WorkloadBundle, TraceError> {
    let image = Arc::new(TraceData::open(path)?);
    stream_bundle(path, &image, &stream_meta(path, stream)?, with_pools)
}

/// [`trace_bundle`] for a stream whose definition the caller already
/// holds (from [`wp_trace::stream_table`]) over an already-opened image
/// of `path`, so building a whole mix's bundles walks the file once, and
/// maps it once, rather than once per stream. Like [`trace_bundle`], it
/// checks no other stream of the file.
pub fn stream_bundle(
    path: &Path,
    image: &Arc<TraceData>,
    meta: &wp_trace::StreamMeta,
    with_pools: bool,
) -> Result<WorkloadBundle, TraceError> {
    let pools = if with_pools {
        descriptors_of(&meta.pools)
    } else {
        Vec::new()
    };
    Ok(WorkloadBundle {
        trace: Box::new(TraceWorkload::over(path, Arc::clone(image), meta.id)?),
        pools,
        name: meta.name.clone(),
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

    /// Writes `streams` streams of `events` events each; stream `s`'s
    /// lines start at `1000 * s`.
    fn write_streams(path: &Path, streams: u16, events: u64) {
        let mut w = TraceWriter::create(path).unwrap();
        for s in 0..streams {
            let id = w.add_stream(&format!("s{s}"), &[]).unwrap();
            for i in 0..events {
                w.record(id, 10, LineAddr(1000 * u64::from(s) + i), false)
                    .unwrap();
            }
        }
        w.finish().unwrap();
    }

    fn drain(wl: &mut dyn Workload) -> Vec<u64> {
        std::iter::from_fn(|| wl.next_event().map(|e| e.line.0)).collect()
    }

    #[test]
    fn a_mix_maps_its_file_once_and_a_replaced_file_is_read_fresh() {
        let path = temp("mix.wpt");
        write_streams(&path, 2, 50);
        let image = Arc::new(TraceData::open(&path).unwrap());
        let table = wp_trace::stream_table(&path).unwrap();
        let mut bundles: Vec<_> = table
            .iter()
            .map(|m| stream_bundle(&path, &image, m, false).unwrap())
            .collect();
        assert_eq!(
            Arc::strong_count(&image),
            3,
            "both readers hold the one image"
        );

        // Replaced at the same path while the mix is live: a new open
        // reads the new file, and the mix keeps its own image.
        let next = temp("mix.next");
        write_streams(&next, 1, 7);
        std::fs::rename(&next, &path).unwrap();
        let mut fresh = trace_bundle(&path, 0, false).unwrap();
        assert_eq!(drain(fresh.trace.as_mut()), (0..7).collect::<Vec<_>>());
        for (s, b) in bundles.iter_mut().enumerate() {
            let base = 1000 * s as u64;
            assert_eq!(
                drain(b.trace.as_mut()),
                (base..base + 50).collect::<Vec<_>>()
            );
            b.trace.finish().unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damage_ends_the_stream_and_finish_reports_it_even_when_unread() {
        // Three chunks of 100 events; a bit flipped in the last one.
        let path = temp("damaged.wpt");
        let mut w = TraceWriter::create(&path).unwrap().with_chunk_events(100);
        let s = w.add_stream("demo", &[]).unwrap();
        for i in 0..300u64 {
            w.record(s, 50, LineAddr(640 + (i * 7919) % 4096), false)
                .unwrap();
        }
        w.finish().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 60;
        bytes[at] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();

        // Read to the damage: the stream ends there, with no panic.
        let mut wl = TraceWorkload::open(&path).unwrap();
        let mut n = 0;
        while wl.next_event().is_some() {
            n += 1;
        }
        assert_eq!(n, 200, "the two intact chunks replay");
        assert!(wl.next_event().is_none(), "an ended stream stays ended");
        let err = wl.finish().expect_err("the damage is kept");
        assert!(matches!(err, TraceError::Checksum { .. }), "{err}");

        // A run that stops after one event still validates the tail.
        let mut wl = TraceWorkload::open(&path).unwrap();
        assert!(wl.next_event().is_some());
        assert!(wl.finish().is_err(), "finish drains to the damage");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn finish_passes_an_intact_stream() {
        let path = temp("intact.wpt");
        write_demo(&path);
        let mut wl = TraceWorkload::open(&path).unwrap();
        assert!(wl.next_event().is_some());
        wl.finish().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_stream_is_an_error() {
        let path = temp("missing.wpt");
        write_demo(&path);
        assert!(trace_bundle(&path, 3, true).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
