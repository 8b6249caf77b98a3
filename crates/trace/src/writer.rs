//! Streaming `.wpt` encoder.

use std::io::Write;
use std::path::Path;

use wp_mem::LineAddr;

use crate::bits::{bits_for, pack};
use crate::crc::crc32;
use crate::meta::{PoolMeta, StreamMeta};
use crate::varint::{put_varint, zigzag};
use crate::{TraceError, MAGIC, TAG_CHUNK, TAG_END, TAG_STREAM_DEF, VERSION};

/// Events buffered per stream before a chunk is emitted.
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

#[derive(Debug, Clone, Copy)]
struct Pending {
    gap: u32,
    line: u64,
    write: bool,
}

#[derive(Debug, Default)]
struct StreamState {
    pending: Vec<Pending>,
    /// Line of the last event already emitted in a chunk.
    last_line: u64,
    /// Whether any chunk has been emitted for this stream.
    started: bool,
    events: u64,
    instrs: u64,
}

/// Streaming encoder for `.wpt` traces.
///
/// Events are buffered per stream and emitted as column-coded chunks of
/// [`DEFAULT_CHUNK_EVENTS`] events, so memory use is bounded regardless of
/// trace length. Always call [`finish`](TraceWriter::finish): it flushes
/// buffered events and writes the `End` block readers use to distinguish a
/// complete file from a truncated one. Dropping an unfinished writer
/// finishes it best-effort, swallowing errors.
///
/// # Example
///
/// ```
/// use wp_mem::LineAddr;
/// use std::sync::Arc;
/// use wp_trace::{TraceData, TraceReader, TraceWriter};
///
/// let mut buf = Vec::new();
/// let mut w = TraceWriter::new(&mut buf).unwrap();
/// let s = w.add_stream("demo", &[]).unwrap();
/// for i in 0..10u64 {
///     w.record(s, 40, LineAddr(1024 + i), false).unwrap();
/// }
/// w.finish().unwrap();
/// drop(w);
///
/// let mut r = TraceReader::new(Arc::new(TraceData::from_vec(buf))).unwrap();
/// let (stream, first) = r.next_record().unwrap().unwrap();
/// assert_eq!((stream, first.line), (s, LineAddr(1024)));
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    streams: Vec<StreamState>,
    chunk_events: usize,
    finished: bool,
}

impl TraceWriter<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and writes the file header.
    pub fn create(path: &Path) -> Result<Self, TraceError> {
        let file = std::fs::File::create(path)?;
        Self::new(std::io::BufWriter::new(file))
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out`, writing the file header immediately.
    pub fn new(mut out: W) -> Result<Self, TraceError> {
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?; // flags
        Ok(Self {
            out,
            streams: Vec::new(),
            chunk_events: DEFAULT_CHUNK_EVENTS,
            finished: false,
        })
    }

    /// Overrides the chunk size (clamped to `1..=65536`) — mainly for
    /// tests that want to exercise chunk boundaries cheaply.
    pub fn with_chunk_events(mut self, n: usize) -> Self {
        self.chunk_events = n.clamp(1, 65536);
        self
    }

    /// Declares a new stream, returning its id. Must be called before any
    /// [`record`](TraceWriter::record) for that stream.
    pub fn add_stream(&mut self, name: &str, pools: &[PoolMeta]) -> Result<u16, TraceError> {
        assert!(!self.finished, "writer already finished");
        assert!(
            self.streams.len() < usize::from(u16::MAX),
            "too many streams"
        );
        let id = self.streams.len() as u16;
        let def = StreamMeta {
            id,
            name: name.to_string(),
            pools: pools.to_vec(),
        };
        self.write_block(TAG_STREAM_DEF, &def.encode())?;
        self.streams.push(StreamState::default());
        Ok(id)
    }

    /// Appends one event to `stream`.
    ///
    /// # Panics
    ///
    /// Panics if `stream` was not returned by
    /// [`add_stream`](TraceWriter::add_stream) or the writer is finished.
    pub fn record(
        &mut self,
        stream: u16,
        gap_instrs: u32,
        line: LineAddr,
        is_write: bool,
    ) -> Result<(), TraceError> {
        assert!(!self.finished, "writer already finished");
        let chunk_events = self.chunk_events;
        let s = self
            .streams
            .get_mut(usize::from(stream))
            .expect("unknown stream id");
        s.pending.push(Pending {
            gap: gap_instrs,
            line: line.0,
            write: is_write,
        });
        s.events += 1;
        s.instrs += u64::from(gap_instrs);
        if s.pending.len() >= chunk_events {
            self.flush_stream(stream)?;
        }
        Ok(())
    }

    /// Events recorded so far on `stream`.
    pub fn stream_events(&self, stream: u16) -> u64 {
        self.streams[usize::from(stream)].events
    }

    /// Flushes buffered events and writes the `End` block. Idempotent;
    /// recording after `finish` panics.
    pub fn finish(&mut self) -> Result<(), TraceError> {
        if self.finished {
            return Ok(());
        }
        for id in 0..self.streams.len() as u16 {
            self.flush_stream(id)?;
        }
        let mut payload = Vec::new();
        put_varint(&mut payload, self.streams.len() as u64);
        for (id, s) in self.streams.iter().enumerate() {
            put_varint(&mut payload, id as u64);
            put_varint(&mut payload, s.events);
            put_varint(&mut payload, s.instrs);
        }
        self.write_block(TAG_END, &payload)?;
        self.out.flush()?;
        self.finished = true;
        Ok(())
    }

    fn flush_stream(&mut self, stream: u16) -> Result<(), TraceError> {
        let s = &mut self.streams[usize::from(stream)];
        if s.pending.is_empty() {
            return Ok(());
        }
        // The base line is the previous event's line; for a stream's
        // first chunk it is the first event's own line, which is then
        // *not* delta-coded (the reader reconstructs it from the base
        // alone), so one absolute address never widens a whole column.
        let (base_line, skip) = if s.started {
            (s.last_line, 0)
        } else {
            (s.pending[0].line, 1)
        };

        let gaps: Vec<u64> = s.pending.iter().map(|p| u64::from(p.gap)).collect();
        let min_gap = *gaps.iter().min().expect("non-empty");
        let gap_bits = bits_for(gaps.iter().map(|g| g - min_gap).max().expect("non-empty"));

        let mut prev = base_line;
        let deltas: Vec<u64> = s
            .pending
            .iter()
            .skip(skip)
            .map(|p| {
                let d = zigzag(p.line.wrapping_sub(prev) as i64);
                prev = p.line;
                d
            })
            .collect();
        let min_zz = deltas.iter().min().copied().unwrap_or(0);
        let addr_bits = bits_for(deltas.iter().map(|d| d - min_zz).max().unwrap_or(0));

        let writes = s.pending.iter().filter(|p| p.write).count();

        let mut payload = Vec::new();
        put_varint(&mut payload, u64::from(stream));
        put_varint(&mut payload, s.pending.len() as u64);
        put_varint(&mut payload, base_line);
        put_varint(&mut payload, min_gap);
        payload.push(gap_bits);
        pack(
            &mut payload,
            &gaps.iter().map(|g| g - min_gap).collect::<Vec<_>>(),
            gap_bits,
        );
        if writes == 0 {
            payload.push(0); // all reads
        } else if writes == s.pending.len() {
            payload.push(1); // all writes
        } else {
            payload.push(2);
            let flags: Vec<u64> = s.pending.iter().map(|p| u64::from(p.write)).collect();
            pack(&mut payload, &flags, 1);
        }
        put_varint(&mut payload, min_zz);
        payload.push(addr_bits);
        pack(
            &mut payload,
            &deltas.iter().map(|d| d - min_zz).collect::<Vec<_>>(),
            addr_bits,
        );

        let s = &mut self.streams[usize::from(stream)];
        s.last_line = s.pending.last().expect("non-empty").line;
        s.started = true;
        s.pending.clear();
        self.write_block(TAG_CHUNK, &payload)
    }

    fn write_block(&mut self, tag: u8, payload: &[u8]) -> Result<(), TraceError> {
        let mut head = vec![tag];
        put_varint(&mut head, payload.len() as u64);
        head.extend_from_slice(&crc32(payload).to_le_bytes());
        self.out.write_all(&head)?;
        self.out.write_all(payload)?;
        Ok(())
    }
}

impl<W: Write> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}
