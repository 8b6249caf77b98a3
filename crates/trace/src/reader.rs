//! The record view of a trace, and whole-file summarization. Both walk
//! [`BatchReader`] chunks; neither reads block framing itself.

use std::path::Path;
use std::sync::Arc;

use crate::batch::{BatchReader, EventBatch};
use crate::meta::{PoolLookup, StreamMeta, TraceRecord};
use crate::mmap::TraceData;
use crate::TraceError;

/// Record-at-a-time view of a `.wpt` trace.
///
/// Yields `(stream id, record)` pairs in file order via
/// [`next_record`](TraceReader::next_record), each tagged with its pool
/// index from the stream's pool table. It holds one decoded chunk of a
/// [`BatchReader`], so it accepts and rejects exactly the inputs the
/// chunk view does. Stream definitions precede each stream's first chunk,
/// so [`streams`](TraceReader::streams) is complete by the time the first
/// event of each stream is returned.
#[derive(Debug)]
pub struct TraceReader {
    chunks: BatchReader,
    batch: EventBatch,
    /// Stream of the chunk in `batch`, and the next record's index in it.
    stream: u16,
    pos: usize,
    /// Pool lookup per stream, built as each stream's first chunk arrives.
    lookups: Vec<PoolLookup>,
}

impl TraceReader {
    /// Opens `path` and validates the file header.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Ok(Self::over(BatchReader::open(path)?))
    }

    /// Wraps an already-loaded trace image, validating the file header.
    pub fn new(data: Arc<TraceData>) -> Result<Self, TraceError> {
        Ok(Self::over(BatchReader::new(data)?))
    }

    fn over(chunks: BatchReader) -> Self {
        Self {
            chunks,
            batch: EventBatch::new(),
            stream: 0,
            pos: 0,
            lookups: Vec::new(),
        }
    }

    /// Stream definitions seen so far.
    pub fn streams(&self) -> impl Iterator<Item = &StreamMeta> {
        self.chunks.streams()
    }

    /// Metadata of stream `id`, if defined.
    pub fn stream(&self, id: u16) -> Option<&StreamMeta> {
        self.chunks.stream(id)
    }

    /// The next `(stream id, record)`, or `Ok(None)` at a clean end of
    /// trace (the `End` block was present and its totals matched).
    pub fn next_record(&mut self) -> Result<Option<(u16, TraceRecord)>, TraceError> {
        while self.pos == self.batch.len() {
            let Some(stream) = self.chunks.next_chunk(&mut self.batch)? else {
                return Ok(None);
            };
            // Streams are defined in id order before their chunks, so
            // every id up to this one has a definition.
            while self.lookups.len() <= usize::from(stream) {
                let meta = self.chunks.stream(self.lookups.len() as u16);
                let meta = meta.expect("decoded chunks imply a definition");
                self.lookups.push(PoolLookup::new(&meta.pools));
            }
            self.stream = stream;
            self.pos = 0;
        }
        let i = self.pos;
        self.pos += 1;
        let line = self.batch.lines[i];
        let record = TraceRecord {
            gap_instrs: self.batch.gaps[i],
            line,
            is_write: self.batch.writes[i],
            pool: self.lookups[usize::from(self.stream)].pool_of(line),
        };
        Ok(Some((self.stream, record)))
    }
}

/// Per-stream summary produced by [`TraceInfo::scan`].
#[derive(Debug, Clone)]
pub struct StreamInfo {
    /// The stream's definition (name, pool table).
    pub meta: StreamMeta,
    /// Events in the stream.
    pub events: u64,
    /// Instructions covered (sum of gaps).
    pub instructions: u64,
    /// Write events.
    pub writes: u64,
    /// Smallest and largest line touched, if any events exist.
    pub line_span: Option<(u64, u64)>,
}

/// Whole-file summary: what `trace_tool info` prints.
#[derive(Debug, Clone)]
pub struct TraceInfo {
    /// File size in bytes.
    pub file_bytes: u64,
    /// Chunks in the file.
    pub chunks: u64,
    /// Per-stream summaries.
    pub streams: Vec<StreamInfo>,
}

impl TraceInfo {
    /// Scans (fully decodes) `path`, validating every checksum.
    pub fn scan(path: &Path) -> Result<Self, TraceError> {
        let file_bytes = std::fs::metadata(path)?.len();
        let mut reader = BatchReader::open(path)?;
        let mut batch = EventBatch::new();
        let mut streams: Vec<StreamInfo> = Vec::new();
        let row = |meta: &StreamMeta| StreamInfo {
            meta: meta.clone(),
            events: 0,
            instructions: 0,
            writes: 0,
            line_span: None,
        };
        while let Some(sid) = reader.next_chunk(&mut batch)? {
            let sid = usize::from(sid);
            while streams.len() <= sid {
                let meta = reader.stream(streams.len() as u16);
                streams.push(row(meta.expect("decoded chunks imply a definition")));
            }
            // Column folds with no per-event branch: a chunk is never
            // empty, so its line span always exists.
            let s = &mut streams[sid];
            s.events += batch.len() as u64;
            s.instructions += batch.gaps.iter().map(|&g| u64::from(g)).sum::<u64>();
            s.writes += batch.writes.iter().map(|&w| u64::from(w)).sum::<u64>();
            let (lo, hi) = s.line_span.unwrap_or((u64::MAX, 0));
            let lo = batch.lines.iter().fold(lo, |m, l| m.min(l.0));
            let hi = batch.lines.iter().fold(hi, |m, l| m.max(l.0));
            s.line_span = Some((lo, hi));
        }
        // Event-free streams still deserve a row.
        let defined: Vec<StreamInfo> = reader.streams().skip(streams.len()).map(row).collect();
        streams.extend(defined);
        Ok(TraceInfo {
            file_bytes,
            chunks: reader.chunks_read(),
            streams,
        })
    }

    /// The error a full [`scan`](Self::scan) of `path` reports, or
    /// `fallback` when the scan passes.
    ///
    /// Replays validate as they decode, so the error that stops one
    /// depends on which stream's reader met the damage first. Calling
    /// this on a replay's error path, and only there, reports a damaged
    /// file with the same text `trace_tool info` gives. A fault that
    /// does not repeat (an injected one, say) leaves the file clean, and
    /// the replay's own error stands.
    pub fn scan_error(path: &Path, fallback: TraceError) -> TraceError {
        Self::scan(path).err().unwrap_or(fallback)
    }

    /// Total events across streams.
    pub fn total_events(&self) -> u64 {
        self.streams.iter().map(|s| s.events).sum()
    }

    /// Bytes a naive fixed-width encoding (`u64` address + `u32` gap per
    /// event) would take — the compression baseline.
    pub fn naive_bytes(&self) -> u64 {
        12 * self.total_events()
    }

    /// Compression ratio vs the naive fixed-width encoding.
    pub fn compression_ratio(&self) -> f64 {
        if self.file_bytes == 0 {
            return 0.0;
        }
        self.naive_bytes() as f64 / self.file_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use wp_mem::LineAddr;

    fn encode(events: &[(u32, u64, bool)], chunk: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap().with_chunk_events(chunk);
        let s = w.add_stream("t", &[]).unwrap();
        for &(gap, line, wr) in events {
            w.record(s, gap, LineAddr(line), wr).unwrap();
        }
        w.finish().unwrap();
        drop(w);
        buf
    }

    fn reader(buf: &[u8]) -> Result<TraceReader, TraceError> {
        TraceReader::new(Arc::new(TraceData::from_vec(buf.to_vec())))
    }

    fn decode_all(buf: &[u8]) -> Result<Vec<(u32, u64, bool)>, TraceError> {
        let mut r = reader(buf)?;
        let mut out = Vec::new();
        while let Some((_, rec)) = r.next_record()? {
            out.push((rec.gap_instrs, rec.line.0, rec.is_write));
        }
        Ok(out)
    }

    #[test]
    fn round_trips_across_chunk_sizes() {
        let events: Vec<(u32, u64, bool)> = (0..100u64)
            .map(|i| ((i % 7) as u32, 1000 + (i * 37) % 256, i % 3 == 0))
            .collect();
        for chunk in [1, 2, 3, 7, 64, 4096] {
            let buf = encode(&events, chunk);
            assert_eq!(decode_all(&buf).unwrap(), events, "chunk size {chunk}");
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let buf = encode(&[], 8);
        assert_eq!(decode_all(&buf).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_is_an_error() {
        assert!(matches!(
            reader(b"NOPE\x01\x00\x00\x00"),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_an_error() {
        let buf = [b'W', b'P', b'T', b'1', 9, 0, 0, 0];
        assert!(matches!(
            reader(&buf),
            Err(TraceError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn missing_end_block_is_truncation() {
        let events: Vec<(u32, u64, bool)> = (0..10).map(|i| (1, 100 + i, false)).collect();
        let buf = encode(&events, 4);
        // Chop the End block (its payload is small; cut the last byte).
        let cut = &buf[..buf.len() - 1];
        assert!(matches!(decode_all(cut), Err(TraceError::Truncated)));
    }

    #[test]
    fn trailing_garbage_after_end_is_an_error() {
        let events: Vec<(u32, u64, bool)> = (0..10).map(|i| (1, 100 + i, false)).collect();
        let mut buf = encode(&events, 4);
        let clean = buf.clone();
        buf.extend_from_slice(b"junk");
        assert!(matches!(decode_all(&buf), Err(TraceError::Corrupt(_))));
        // Two concatenated traces are likewise rejected, not half-read.
        let mut double = clean.clone();
        double.extend_from_slice(&clean);
        assert!(decode_all(&double).is_err());
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_error() {
        let events: Vec<(u32, u64, bool)> = (0..50).map(|i| (3, 7 * i, false)).collect();
        let mut buf = encode(&events, 16);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let got = decode_all(&buf);
        assert!(got.is_err(), "corruption must not decode cleanly");
    }

    #[test]
    fn sweep_addresses_cost_almost_nothing() {
        // 10k-event pure sweep with constant gap: both columns collapse
        // to zero-width residuals, so the file is ~header + chunk heads.
        let events: Vec<(u32, u64, bool)> = (0..10_000).map(|i| (40, 5000 + i, false)).collect();
        let buf = encode(&events, 4096);
        assert!(
            buf.len() < 200,
            "sweep should pack to ~0 bits/event, got {} bytes",
            buf.len()
        );
    }

    #[test]
    fn multi_stream_interleaves() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap().with_chunk_events(2);
        let a = w.add_stream("a", &[]).unwrap();
        let b = w.add_stream("b", &[]).unwrap();
        for i in 0..5u64 {
            w.record(a, 10, LineAddr(i), false).unwrap();
            w.record(b, 20, LineAddr(1000 + i), true).unwrap();
        }
        w.finish().unwrap();
        drop(w);
        let mut r = reader(&buf).unwrap();
        let mut per_stream = [0u64; 2];
        let mut n = 0;
        while let Some((sid, rec)) = r.next_record().unwrap() {
            per_stream[usize::from(sid)] += 1;
            if sid == a {
                assert!(!rec.is_write);
            } else {
                assert_eq!(rec.gap_instrs, 20);
            }
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(per_stream, [5, 5]);
        assert_eq!(r.streams().count(), 2);
    }
}
