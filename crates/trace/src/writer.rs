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
    /// Buffers every chunk reuses, so steady-state encoding allocates
    /// nothing.
    scratch: EncodeScratch,
}

#[derive(Debug, Default)]
struct EncodeScratch {
    /// One column at a time: gap residuals, write flags, delta residuals.
    column: Vec<u64>,
    payload: Vec<u8>,
    head: Vec<u8>,
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
            scratch: EncodeScratch::default(),
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
        write_block(
            &mut self.out,
            &mut self.scratch.head,
            TAG_STREAM_DEF,
            &def.encode(),
        )?;
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
        write_block(&mut self.out, &mut self.scratch.head, TAG_END, &payload)?;
        self.out.flush()?;
        self.finished = true;
        Ok(())
    }

    fn flush_stream(&mut self, stream: u16) -> Result<(), TraceError> {
        let s = &mut self.streams[usize::from(stream)];
        if s.pending.is_empty() {
            return Ok(());
        }
        let EncodeScratch {
            column,
            payload,
            head,
        } = &mut self.scratch;
        // The base line is the previous event's line; for a stream's
        // first chunk it is the first event's own line, which is then
        // *not* delta-coded (the reader reconstructs it from the base
        // alone), so one absolute address never widens a whole column.
        let (base_line, skip) = if s.started {
            (s.last_line, 0)
        } else {
            (s.pending[0].line, 1)
        };

        payload.clear();
        put_varint(payload, u64::from(stream));
        put_varint(payload, s.pending.len() as u64);
        put_varint(payload, base_line);

        column.clear();
        column.extend(s.pending.iter().map(|p| u64::from(p.gap)));
        put_column(payload, column);

        let writes = s.pending.iter().filter(|p| p.write).count();
        if writes == 0 {
            payload.push(0); // all reads
        } else if writes == s.pending.len() {
            payload.push(1); // all writes
        } else {
            payload.push(2);
            column.clear();
            column.extend(s.pending.iter().map(|p| u64::from(p.write)));
            pack(payload, column, 1);
        }

        let mut prev = base_line;
        column.clear();
        column.extend(s.pending.iter().skip(skip).map(|p| {
            let d = zigzag(p.line.wrapping_sub(prev) as i64);
            prev = p.line;
            d
        }));
        put_column(payload, column);

        s.last_line = prev;
        s.started = true;
        s.pending.clear();
        write_block(&mut self.out, head, TAG_CHUNK, payload)
    }
}

/// Appends a frame-of-reference coded column: the varint minimum, the
/// residuals' bit width, then the packed residuals. `column` is left
/// holding the residuals.
fn put_column(payload: &mut Vec<u8>, column: &mut [u64]) {
    let (min, max) = column
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    // An empty column folds to (MAX, 0) and codes as minimum 0, width 0.
    let min = min.min(max);
    column.iter_mut().for_each(|v| *v -= min);
    let width = bits_for(max - min);
    put_varint(payload, min);
    payload.push(width);
    pack(payload, column, width);
}

/// Writes one block: tag, payload length, payload CRC, payload. `head`
/// is the reused buffer for the first three.
fn write_block<W: Write>(
    out: &mut W,
    head: &mut Vec<u8>,
    tag: u8,
    payload: &[u8],
) -> Result<(), TraceError> {
    head.clear();
    head.push(tag);
    put_varint(head, payload.len() as u64);
    head.extend_from_slice(&crc32(payload).to_le_bytes());
    out.write_all(head)?;
    out.write_all(payload)?;
    Ok(())
}

impl<W: Write> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}
