//! The `.wpt` block parser, and the column-batched views built on it.
//!
//! [`BatchReader`] is the only code in the crate that reads block
//! framing: tags, length varints, CRCs, stream-definition order, the
//! `End` totals, and the trailing-data check. Its chunk parser,
//! `decode_chunk_body`, unpacks and checks a chunk's columns, then hands
//! them to a sink:
//!
//! * [`EventBatch`] — a chunk's events as three flat columns
//!   (gaps/lines/write flags), reused across chunks so steady-state decode
//!   allocates nothing ([`BatchReader::next_chunk`]);
//! * [`ChunkSummary`] — the chunk's events, instructions, writes and line
//!   span, folded from the columns without materializing an event
//!   ([`BatchReader::next_summary`], the validation scan's sink).
//!
//! The sink is called only for a chunk that passed every check, so both
//! accept and reject the same chunks with the same errors. On top of the
//! parser:
//!
//! * [`BatchReader`] — walks an in-memory (usually mmapped) `.wpt` image
//!   block by block, parsing each chunk payload in place;
//! * [`PrefetchBatches`] — a `BatchReader` on a worker thread, decoding
//!   chunk N+1 while the simulator chews on chunk N; batches recycle
//!   through a bounded channel so the pair holds a fixed set of slabs.
//!
//! The record view ([`TraceReader`](crate::TraceReader)) iterates the
//! event batches; the whole-file summary
//! ([`TraceInfo`](crate::TraceInfo)) iterates the chunk summaries.

use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use wp_mem::LineAddr;

use crate::bits::{low_mask, unpack_into};
use crate::crc::crc32;
use crate::meta::StreamMeta;
use crate::mmap::TraceData;
use crate::varint::{get_varint, unzigzag};
use crate::{
    TraceError, MAGIC, MAX_BLOCK_BYTES, MAX_CHUNK_EVENTS, TAG_CHUNK, TAG_END, TAG_STREAM_DEF,
    VERSION,
};

/// One chunk's worth of events, as flat columns.
///
/// The columns always have equal length. Reusing one batch across
/// [`BatchReader::next_chunk`] calls keeps decode allocation-free once the
/// slabs have grown to the trace's chunk size.
#[derive(Debug, Default, Clone)]
pub struct EventBatch {
    /// Instructions since the previous event, per event.
    pub gaps: Vec<u32>,
    /// Line accessed, per event.
    pub lines: Vec<LineAddr>,
    /// Write flag, per event.
    pub writes: Vec<bool>,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `n` events per column.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            gaps: Vec::with_capacity(n),
            lines: Vec::with_capacity(n),
            writes: Vec::with_capacity(n),
        }
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }

    /// Clears all columns, keeping their allocations.
    pub fn clear(&mut self) {
        self.gaps.clear();
        self.lines.clear();
        self.writes.clear();
    }

    /// Appends one event.
    pub fn push(&mut self, gap_instrs: u32, line: LineAddr, is_write: bool) {
        self.gaps.push(gap_instrs);
        self.lines.push(line);
        self.writes.push(is_write);
    }

    /// Appends `len` events of `src` starting at `start` — the column
    /// copy the replay workload uses to hand the driver quantum-sized
    /// slices of a decoded chunk.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds `src.len()`.
    pub fn extend_from(&mut self, src: &EventBatch, start: usize, len: usize) {
        self.gaps.extend_from_slice(&src.gaps[start..start + len]);
        self.lines.extend_from_slice(&src.lines[start..start + len]);
        self.writes
            .extend_from_slice(&src.writes[start..start + len]);
    }
}

/// Reusable column buffers for the packed→batch transform.
#[derive(Debug, Default)]
pub(crate) struct DecodeScratch {
    gaps: Vec<u64>,
    flags: Vec<u64>,
    deltas: Vec<u64>,
}

/// Parses the stream id off the front of a chunk payload, returning it and
/// the offset of the rest of the chunk body.
fn chunk_stream_id(payload: &[u8]) -> Result<(u64, usize), TraceError> {
    let mut pos = 0;
    let stream = get_varint(payload, &mut pos)?;
    Ok((stream, pos))
}

/// Index of the first `width`-bit residual in `column` that overflows
/// `limit` once `min` is added back. One comparison settles a column whose
/// widest possible residual fits, which is every column a writer emits.
fn first_overflow(column: &[u64], width: u8, min: u64, limit: u64) -> Option<usize> {
    match limit.checked_sub(min) {
        None => (!column.is_empty()).then_some(0),
        Some(room) if low_mask(width) <= room => None,
        Some(room) => column.iter().position(|&r| r > room),
    }
}

/// A chunk's columns once every check has passed: what
/// [`decode_chunk_body`] hands its [`ChunkSink`]. Event `i`'s gap is
/// `min_gap + gaps[i]`; its line is the base line for a stream's first
/// event and its predecessor's plus `unzigzag(min_zz + delta)` after that.
pub(crate) struct Columns<'a> {
    first_chunk: bool,
    base_line: u64,
    min_gap: u64,
    gaps: &'a [u64],
    /// The chunk's instruction total, the gaps' sum.
    instrs: u64,
    /// 0 (no writes), 1 (all writes) or 2 (one flag per event).
    write_mode: u8,
    /// The unpacked flags in write mode 2, empty otherwise.
    flags: &'a [u64],
    min_zz: u64,
    deltas: &'a [u64],
}

impl Columns<'_> {
    fn events(&self) -> usize {
        self.gaps.len()
    }

    /// The chunk's lines in event order.
    fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        let mut line = self.base_line;
        let head = self.first_chunk.then_some(self.base_line);
        head.into_iter().chain(self.deltas.iter().map(move |&d| {
            line = line.wrapping_add(unzigzag(self.min_zz + d) as u64);
            line
        }))
    }
}

/// Where [`decode_chunk_body`] puts a chunk that passed every check. The
/// parser calls it once per chunk, and never for a chunk it rejects.
pub(crate) trait ChunkSink {
    /// Takes the chunk's events.
    fn take(&mut self, chunk: &Columns<'_>);
}

/// The replay sink: the chunk's events appended as columns.
impl ChunkSink for EventBatch {
    fn take(&mut self, c: &Columns<'_>) {
        // Every gap fits a u32 once the parser's range check passed.
        self.gaps
            .extend(c.gaps.iter().map(|&g| (c.min_gap + g) as u32));
        self.lines.extend(c.lines().map(LineAddr));
        match c.write_mode {
            2 => self.writes.extend(c.flags.iter().map(|&f| f == 1)),
            mode => self
                .writes
                .resize(self.writes.len() + c.events(), mode == 1),
        }
    }
}

/// What one chunk adds to its stream's totals: the validation scan's
/// sink ([`BatchReader::next_summary`]), folded from the unpacked columns
/// without materializing an event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Events in the chunk (never 0).
    pub events: u64,
    /// Instructions they cover (sum of gaps).
    pub instructions: u64,
    /// Write events.
    pub writes: u64,
    /// Smallest and largest line touched.
    pub line_span: (u64, u64),
}

impl ChunkSink for ChunkSummary {
    fn take(&mut self, c: &Columns<'_>) {
        let events = c.events() as u64;
        let writes = match c.write_mode {
            0 => 0,
            1 => events,
            _ => c.flags.iter().sum(),
        };
        let line_span = c
            .lines()
            .fold((u64::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
        *self = ChunkSummary {
            events,
            instructions: c.instrs,
            writes,
            line_span,
        };
    }
}

/// Parses a chunk body (everything after the stream id) into `sink`,
/// returning the events and instructions it holds.
///
/// `first_chunk` selects the absolute-base encoding of the stream's first
/// event. Validates counts, widths, overflow and trailing bytes; on an
/// error the sink is not called. The work is column at a time: unpack each
/// column, range-check the gap and delta columns once, then hand the
/// columns to the sink.
pub(crate) fn decode_chunk_body(
    payload: &[u8],
    mut pos: usize,
    first_chunk: bool,
    scratch: &mut DecodeScratch,
    sink: &mut impl ChunkSink,
) -> Result<(u64, u64), TraceError> {
    let count = get_varint(payload, &mut pos)?;
    if count == 0 || count > MAX_CHUNK_EVENTS {
        return Err(TraceError::Corrupt(format!("chunk of {count} events")));
    }
    let count = count as usize;
    let base_line = get_varint(payload, &mut pos)?;

    let min_gap = get_varint(payload, &mut pos)?;
    let gap_bits = *payload.get(pos).ok_or(TraceError::Truncated)?;
    pos += 1;
    unpack_into(payload, &mut pos, count, gap_bits, &mut scratch.gaps)?;

    let write_mode = *payload.get(pos).ok_or(TraceError::Truncated)?;
    pos += 1;
    match write_mode {
        0 | 1 => scratch.flags.clear(),
        2 => unpack_into(payload, &mut pos, count, 1, &mut scratch.flags)?,
        m => return Err(TraceError::Corrupt(format!("write mode {m}"))),
    }

    // The first event of a stream is stored absolutely as the base line;
    // every later event is a delta off its predecessor.
    let skip = usize::from(first_chunk);
    let min_zz = get_varint(payload, &mut pos)?;
    let addr_bits = *payload.get(pos).ok_or(TraceError::Truncated)?;
    pos += 1;
    unpack_into(
        payload,
        &mut pos,
        count - skip,
        addr_bits,
        &mut scratch.deltas,
    )?;
    if pos != payload.len() {
        return Err(TraceError::Corrupt("trailing bytes in chunk".into()));
    }

    // Events decode in order, so the event that overflows first names the
    // error, and a gap beats a delta of the same event.
    let gap_over = first_overflow(&scratch.gaps, gap_bits, min_gap, u64::from(u32::MAX));
    let delta_over = first_overflow(&scratch.deltas, addr_bits, min_zz, u64::MAX).map(|i| i + skip);
    let overflow = match (gap_over, delta_over) {
        (Some(g), Some(d)) if d < g => Some("address delta overflows"),
        (Some(_), _) => Some("gap overflows u32"),
        (None, d) => d.map(|_| "address delta overflows"),
    };
    if let Some(msg) = overflow {
        return Err(TraceError::Corrupt(msg.into()));
    }

    // Every gap fits a u32 now, so their sum over at most 2^24 events
    // cannot overflow.
    let instrs = min_gap * count as u64 + scratch.gaps.iter().sum::<u64>();
    sink.take(&Columns {
        first_chunk,
        base_line,
        min_gap,
        gaps: &scratch.gaps,
        instrs,
        write_mode,
        flags: &scratch.flags,
        min_zz,
        deltas: &scratch.deltas,
    });
    Ok((count as u64, instrs))
}

#[derive(Debug)]
struct BatchStream {
    meta: StreamMeta,
    events: u64,
    instrs: u64,
    /// Chunks of this stream were frame-walked past undecoded (followed
    /// reads), so its totals are unknown and exempt from the end check.
    skipped: bool,
}

/// Which chunks [`BatchReader::next_chunk`] decodes; it frame-walks past
/// the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Follow {
    /// Every chunk.
    All,
    /// One stream's chunks ([`BatchReader::follow`]).
    One(u16),
    /// No chunk at all ([`stream_table`]).
    Nothing,
}

impl Follow {
    fn decodes(self, stream: u64) -> bool {
        match self {
            Follow::All => true,
            Follow::One(f) => stream == u64::from(f),
            Follow::Nothing => false,
        }
    }
}

/// Chunk-at-a-time decoder over an in-memory `.wpt` image: the crate's
/// one block parser.
///
/// It hands back whole chunks as column batches and reads payloads
/// directly out of the (usually mmapped) file image, so there is no
/// per-event or per-block copy. All structural problems — bad magic,
/// checksum mismatches, impossible counts, and files that end before
/// their `End` block — surface as [`TraceError`]s, never panics.
///
/// A reader stops at its first error: every later
/// [`next_chunk`](Self::next_chunk) returns that error again and decodes
/// nothing, since the stream state it would resume from is not to be
/// trusted (a failed first chunk would leave the next one decoded as a
/// first chunk).
#[derive(Debug)]
pub struct BatchReader {
    data: Arc<TraceData>,
    pos: usize,
    streams: Vec<BatchStream>,
    scratch: DecodeScratch,
    ended: bool,
    /// The first error returned, returned again by every later call.
    failed: Option<TraceError>,
    chunks: u64,
    follow: Follow,
}

impl BatchReader {
    /// Opens and maps `path`, validating the file header.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::new(Arc::new(TraceData::open(path)?))
    }

    /// [`open`](Self::open), following only stream `stream` (see
    /// [`follow`](Self::follow)).
    pub fn open_stream(path: &Path, stream: u16) -> Result<Self, TraceError> {
        Ok(Self::new(Arc::new(TraceData::open(path)?))?.follow(stream))
    }

    /// Wraps an already-loaded trace image, validating the file header.
    pub fn new(data: Arc<TraceData>) -> Result<Self, TraceError> {
        let buf = data.bytes();
        // Fields are checked in file order, so a short file with a wrong
        // magic is reported as not a trace rather than as truncated.
        let head = |range: std::ops::Range<usize>| buf.get(range).ok_or(TraceError::Truncated);
        if head(0..4)? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = head(4..6)?;
        let version = u16::from_le_bytes([version[0], version[1]]);
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        head(6..8)?; // flags (reserved)
        Ok(Self {
            data,
            pos: 8,
            streams: Vec::new(),
            scratch: DecodeScratch::default(),
            ended: false,
            failed: None,
            chunks: 0,
            follow: Follow::All,
        })
    }

    /// Follows one stream: [`next_chunk`](Self::next_chunk) skips other
    /// streams' chunks as a pure frame walk — no CRC, no decode — so a
    /// per-core replay of an N-stream capture does ~1/N of the file's
    /// validation and decode work instead of all of it. The followed
    /// stream's chunks, the stream definitions, the end block, and the
    /// block framing are still validated exactly as in an unfiltered
    /// read; skipped streams are exempt from the end-block totals check.
    ///
    /// Replay relies on this split for its validation: there is no
    /// separate whole-file scan, so an all-streams replay checks every
    /// chunk and every stream's `End` totals exactly once, each in the
    /// reader of the core that replays the stream (see
    /// `wp_sim::TraceWorkload`). A one-stream replay checks the streams
    /// it leaves out the same way, with one followed
    /// [`next_summary`](Self::next_summary) pass each.
    #[must_use]
    pub fn follow(mut self, stream: u16) -> Self {
        self.follow = Follow::One(stream);
        self
    }

    /// Stream definitions seen so far.
    pub fn streams(&self) -> impl Iterator<Item = &StreamMeta> {
        self.streams.iter().map(|s| &s.meta)
    }

    /// Metadata of stream `id`, if defined.
    pub fn stream(&self, id: u16) -> Option<&StreamMeta> {
        self.streams.get(usize::from(id)).map(|s| &s.meta)
    }

    /// Chunks decoded so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks
    }

    /// Decodes the next chunk into `batch` (cleared first), returning the
    /// stream it belongs to, or `Ok(None)` at a clean end of trace. After
    /// an error, every call returns that error again.
    pub fn next_chunk(&mut self, batch: &mut EventBatch) -> Result<Option<u16>, TraceError> {
        batch.clear();
        self.next_into(batch)
    }

    /// The next chunk's stream and [`ChunkSummary`], or `Ok(None)` at a
    /// clean end of trace. It runs every check
    /// [`next_chunk`](Self::next_chunk) runs, in the same order and with
    /// the same errors, but folds the chunk's columns to its totals
    /// instead of materializing its events: the validation scan's path.
    pub fn next_summary(&mut self) -> Result<Option<(u16, ChunkSummary)>, TraceError> {
        let mut summary = ChunkSummary::default();
        Ok(self.next_into(&mut summary)?.map(|id| (id, summary)))
    }

    /// Parses the next chunk into `sink`; the sink is untouched when
    /// this fails.
    fn next_into(&mut self, sink: &mut impl ChunkSink) -> Result<Option<u16>, TraceError> {
        if let Some(e) = &self.failed {
            return Err(e.again());
        }
        let got = self.decode_next(sink);
        if let Err(e) = &got {
            self.failed = Some(e.again());
        }
        got
    }

    fn decode_next(&mut self, sink: &mut impl ChunkSink) -> Result<Option<u16>, TraceError> {
        loop {
            if self.ended {
                return Ok(None);
            }
            injected_read_fault()?;
            // Clone the Arc so `payload` borrows the image, not `self`
            // (check_end and the stream table need `&mut self`).
            let data = Arc::clone(&self.data);
            let buf = data.bytes();
            let block_offset = self.pos as u64;
            let Some(&tag) = buf.get(self.pos) else {
                // The image just stops (no End block): truncated, whatever
                // the boundary it stops on.
                return Err(TraceError::Truncated);
            };
            self.pos += 1;
            let len = get_varint(buf, &mut self.pos)?;
            if len > MAX_BLOCK_BYTES {
                return Err(TraceError::Corrupt(format!("block of {len} bytes")));
            }
            let Some(crc_bytes) = buf.get(self.pos..self.pos + 4) else {
                return Err(TraceError::Truncated);
            };
            let expect_crc =
                u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
            self.pos += 4;
            let Some(payload) = buf.get(self.pos..self.pos + len as usize) else {
                return Err(TraceError::Truncated);
            };
            self.pos += len as usize;
            // A followed read frame-walks past foreign chunks before the
            // CRC: their payloads are never consumed here, and their
            // owning stream's reader validates them. A chunk naming an
            // undefined stream is corrupt whether or not it is followed.
            if tag == TAG_CHUNK && self.follow != Follow::All {
                let (stream, _) = chunk_stream_id(payload)?;
                if !self.follow.decodes(stream) {
                    self.streams
                        .get_mut(stream as usize)
                        .ok_or_else(|| undefined_stream(stream))?
                        .skipped = true;
                    wp_obs::add(wp_obs::Counter::FollowChunksSkipped, 1);
                    continue;
                }
            }
            let flipped = (tag == TAG_CHUNK && !payload.is_empty())
                .then(|| injected_bitflip(payload, block_offset))
                .flatten();
            let payload = flipped.as_deref().unwrap_or(payload);
            if crc32(payload) != expect_crc {
                return Err(TraceError::Checksum {
                    offset: block_offset,
                });
            }
            match tag {
                TAG_STREAM_DEF => {
                    let meta = StreamMeta::decode(payload)?;
                    if usize::from(meta.id) != self.streams.len() {
                        return Err(TraceError::Corrupt(format!(
                            "stream {} defined out of order (expected {})",
                            meta.id,
                            self.streams.len()
                        )));
                    }
                    self.streams.push(BatchStream {
                        meta,
                        events: 0,
                        instrs: 0,
                        skipped: false,
                    });
                }
                TAG_CHUNK => {
                    let (stream, body) = chunk_stream_id(payload)?;
                    let first_chunk = {
                        let state = self
                            .streams
                            .get(stream as usize)
                            .ok_or_else(|| undefined_stream(stream))?;
                        state.events == 0
                    };
                    let (events, instrs) =
                        decode_chunk_body(payload, body, first_chunk, &mut self.scratch, sink)?;
                    let state = &mut self.streams[stream as usize];
                    state.events += events;
                    state.instrs += instrs;
                    self.chunks += 1;
                    wp_obs::add(wp_obs::Counter::TraceChunksDecoded, 1);
                    wp_obs::add(wp_obs::Counter::TraceBytesDecoded, payload.len() as u64);
                    return Ok(Some(stream as u16));
                }
                TAG_END => {
                    self.check_end(payload)?;
                    // Loop once more: `ended` is set, so we return None.
                }
                t => return Err(TraceError::Corrupt(format!("unknown block tag {t}"))),
            }
        }
    }

    fn check_end(&mut self, payload: &[u8]) -> Result<(), TraceError> {
        let mut pos = 0;
        let n = get_varint(payload, &mut pos)?;
        if n as usize != self.streams.len() {
            return Err(TraceError::Corrupt(format!(
                "end block lists {n} streams, file defined {}",
                self.streams.len()
            )));
        }
        for s in &self.streams {
            let id = get_varint(payload, &mut pos)?;
            let events = get_varint(payload, &mut pos)?;
            let instrs = get_varint(payload, &mut pos)?;
            // Skipped streams were frame-walked, not decoded, so their
            // totals are unknowable here; their own reader checks them.
            if id != u64::from(s.meta.id)
                || (!s.skipped && (events != s.events || instrs != s.instrs))
            {
                return Err(TraceError::Corrupt(format!(
                    "end block totals disagree for stream {}: {events} events / {instrs} \
                     instrs recorded, {} / {} decoded",
                    s.meta.id, s.events, s.instrs
                )));
            }
        }
        if pos != payload.len() {
            return Err(TraceError::Corrupt("trailing bytes in end block".into()));
        }
        // The End block must be the last thing in the file.
        if self.pos != self.data.bytes().len() {
            return Err(TraceError::Corrupt(
                "trailing data after the end block".into(),
            ));
        }
        self.ended = true;
        Ok(())
    }
}

/// The stream table of `path`, read by a frame walk: it checks the
/// header, the block framing, the CRCs of the stream definitions and the
/// `End` block, the `End` block's stream count, and that nothing follows
/// it, but steps over every chunk payload undecoded. This is how a
/// replay enumerates its streams without the full decode of
/// [`TraceInfo::scan`](crate::TraceInfo::scan); the replay's own
/// per-stream readers validate the chunks.
pub fn stream_table(path: &Path) -> Result<Vec<StreamMeta>, TraceError> {
    let mut reader = BatchReader::open(path)?;
    reader.follow = Follow::Nothing;
    // With nothing followed, one call walks to the End block.
    reader.next_chunk(&mut EventBatch::new())?;
    Ok(reader.streams.into_iter().map(|s| s.meta).collect())
}

fn undefined_stream(stream: u64) -> TraceError {
    TraceError::Corrupt(format!("chunk for undefined stream {stream}"))
}

/// Fault-injection probe, called once per block: surfaces an armed
/// `reader-io` or `reader-truncate` arm as the typed error the equivalent
/// disk fault would produce. One relaxed atomic load per point when
/// nothing is armed.
fn injected_read_fault() -> Result<(), TraceError> {
    if wp_fault::fire(wp_fault::FaultPoint::ReaderIo).is_some() {
        wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
        return Err(TraceError::Io(std::io::Error::other(
            "injected trace I/O fault",
        )));
    }
    if wp_fault::fire(wp_fault::FaultPoint::ReaderTruncate).is_some() {
        wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
        return Err(TraceError::Truncated);
    }
    Ok(())
}

/// Fault-injection probe for a chunk payload: with `reader-bitflip`
/// armed, returns a copy of `payload` with one seeded bit flipped, for
/// the stock CRC check to reject exactly as it would disk rot. The
/// shared image is never written, and the unarmed path copies nothing.
fn injected_bitflip(payload: &[u8], block_offset: u64) -> Option<Vec<u8>> {
    let shot = wp_fault::fire(wp_fault::FaultPoint::ReaderBitflip)?;
    wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
    let mut copy = payload.to_vec();
    let at = (shot.draw(block_offset) % copy.len() as u64) as usize;
    copy[at] ^= 1 << (shot.draw(at as u64) % 8);
    Some(copy)
}

/// How many decoded chunks the prefetch thread may run ahead.
const PREFETCH_DEPTH: usize = 4;

type PrefetchMsg = Result<Option<(u16, EventBatch)>, TraceError>;

/// A [`BatchReader`] running on its own thread, so chunk N+1 decodes while
/// the consumer simulates chunk N.
///
/// Batches travel through a bounded channel and are recycled back to the
/// decoder, so the pipeline owns a fixed set of slabs regardless of trace
/// length. The thread (named `wp-prefetch`) exits when the trace ends, an
/// error is delivered, or the handle is dropped. If it *panics*, the next
/// [`next_chunk`](Self::next_chunk) joins it and surfaces the panic
/// payload as a [`TraceError`] instead of a silent end-of-stream.
#[derive(Debug)]
pub struct PrefetchBatches {
    rx: Receiver<PrefetchMsg>,
    recycle: SyncSender<EventBatch>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// The trace ended cleanly.
    done: bool,
    /// The first error delivered, returned again by every later call.
    failed: Option<TraceError>,
}

impl PrefetchBatches {
    /// Opens `path` (header validated eagerly, on the calling thread) and
    /// starts the decode thread.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::start(BatchReader::open(path)?)
    }

    /// Runs an existing reader on a decode thread.
    pub fn start(mut reader: BatchReader) -> Result<Self, TraceError> {
        let (tx, rx) = sync_channel::<PrefetchMsg>(PREFETCH_DEPTH);
        let (recycle, slabs) = sync_channel::<EventBatch>(PREFETCH_DEPTH + 2);
        for _ in 0..=PREFETCH_DEPTH {
            recycle
                .send(EventBatch::new())
                .expect("fresh channel has capacity");
        }
        let handle = std::thread::Builder::new()
            .name("wp-prefetch".into())
            .spawn(move || loop {
                // Slab starvation means the consumer went away; so does a
                // failed send. Either way the thread just leaves.
                let Ok(mut batch) = slabs.recv() else { return };
                // `prefetch-panic` exercises the consumer's join-and-
                // diagnose path; `prefetch-stall` the lookahead falling
                // behind (visible as PrefetchStalls, not an error).
                if wp_fault::fire(wp_fault::FaultPoint::PrefetchPanic).is_some() {
                    wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
                    panic!("injected prefetch fault");
                }
                if let Some(shot) = wp_fault::fire(wp_fault::FaultPoint::PrefetchStall) {
                    wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
                    std::thread::sleep(std::time::Duration::from_millis(shot.millis));
                }
                match reader.next_chunk(&mut batch) {
                    Ok(Some(stream)) => {
                        if tx.send(Ok(Some((stream, batch)))).is_err() {
                            return;
                        }
                    }
                    Ok(None) => {
                        let _ = tx.send(Ok(None));
                        return;
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            })
            .map_err(TraceError::Io)?;
        wp_obs::add(wp_obs::Counter::ThreadsSpawned, 1);
        Ok(Self {
            rx,
            recycle,
            handle: Some(handle),
            done: false,
            failed: None,
        })
    }

    /// The next decoded chunk, swapped into `batch`, and its stream id —
    /// or `Ok(None)` at a clean end of trace. Mirrors
    /// [`BatchReader::next_chunk`], including error behavior: after an
    /// error, every call returns that error again.
    pub fn next_chunk(&mut self, batch: &mut EventBatch) -> Result<Option<u16>, TraceError> {
        if let Some(e) = &self.failed {
            batch.clear();
            return Err(e.again());
        }
        if self.done {
            batch.clear();
            return Ok(None);
        }
        // An empty channel means the consumer outran the decoder and the
        // recv below will block: that is a pipeline stall worth counting.
        let msg = match self.rx.try_recv() {
            Ok(m) => Ok(m),
            Err(std::sync::mpsc::TryRecvError::Empty) => {
                wp_obs::add(wp_obs::Counter::PrefetchStalls, 1);
                self.rx.recv()
            }
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Err(std::sync::mpsc::RecvError),
        };
        match msg {
            Ok(Ok(Some((stream, mut filled)))) => {
                std::mem::swap(batch, &mut filled);
                // Hand the consumer's old slab back to the decoder. The
                // thread may already be gone (end of trace in flight);
                // then the slab is simply dropped.
                let _ = self.recycle.send(filled);
                Ok(Some(stream))
            }
            Ok(Ok(None)) => {
                self.done = true;
                batch.clear();
                Ok(None)
            }
            Ok(Err(e)) => {
                self.failed = Some(e.again());
                batch.clear();
                Err(e)
            }
            // The thread only exits after sending a terminal message, so a
            // closed channel here means it panicked. Join it to recover
            // the payload instead of reporting a generic death.
            Err(_) => {
                let e = self.thread_died();
                self.failed = Some(e.again());
                batch.clear();
                Err(e)
            }
        }
    }

    fn thread_died(&mut self) -> TraceError {
        let msg = match self.handle.take().map(std::thread::JoinHandle::join) {
            Some(Err(payload)) => {
                wp_obs::add(wp_obs::Counter::PrefetchPanics, 1);
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                format!("prefetch thread panicked: {what}")
            }
            _ => "prefetch decode thread died".into(),
        };
        TraceError::Corrupt(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint::put_varint;
    use crate::writer::TraceWriter;

    type Event = (u32, u64, bool);

    fn encode(events: &[Event], chunk: usize) -> Vec<u8> {
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

    fn reader(buf: Vec<u8>) -> Result<BatchReader, TraceError> {
        BatchReader::new(Arc::new(TraceData::from_vec(buf)))
    }

    /// Appends `batch`'s events to `out`.
    fn collect(batch: &EventBatch, out: &mut Vec<Event>) {
        for i in 0..batch.len() {
            out.push((batch.gaps[i], batch.lines[i].0, batch.writes[i]));
        }
    }

    /// Every event of `buf`, optionally following one stream.
    fn drain(buf: Vec<u8>, follow: Option<u16>) -> Result<Vec<Event>, TraceError> {
        let mut r = reader(buf)?;
        if let Some(f) = follow {
            r = r.follow(f);
        }
        let mut batch = EventBatch::new();
        let mut out = Vec::new();
        while let Some(sid) = r.next_chunk(&mut batch)? {
            assert!(
                follow.is_none_or(|f| f == sid),
                "followed read yielded {sid}"
            );
            collect(&batch, &mut out);
        }
        Ok(out)
    }

    /// Every event of `buf` through the prefetch thread.
    fn drain_prefetched(buf: Vec<u8>, follow: Option<u16>) -> Result<Vec<Event>, TraceError> {
        let mut r = reader(buf)?;
        if let Some(f) = follow {
            r = r.follow(f);
        }
        let mut p = PrefetchBatches::start(r)?;
        let mut batch = EventBatch::new();
        let mut out = Vec::new();
        while p.next_chunk(&mut batch)?.is_some() {
            collect(&batch, &mut out);
        }
        // Draining past the end stays a clean None.
        assert!(p.next_chunk(&mut batch)?.is_none());
        Ok(out)
    }

    #[test]
    fn chunks_round_trip_across_chunk_sizes() {
        let events: Vec<Event> = (0..1000u64)
            .map(|i| ((i % 13) as u32, 4000 + (i * 97) % 512, i % 4 == 0))
            .collect();
        for chunk in [1, 3, 7, 100, 4096] {
            assert_eq!(
                drain(encode(&events, chunk), None).unwrap(),
                events,
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn batch_slabs_are_reused() {
        let events: Vec<Event> = (0..4096u64).map(|i| (1, i, false)).collect();
        let mut r = reader(encode(&events, 256)).unwrap();
        let mut batch = EventBatch::new();
        r.next_chunk(&mut batch).unwrap();
        let cap = batch.gaps.capacity();
        let ptr = batch.gaps.as_ptr();
        while r.next_chunk(&mut batch).unwrap().is_some() {}
        assert_eq!(batch.gaps.capacity(), cap, "slab must not regrow");
        assert_eq!(batch.gaps.as_ptr(), ptr, "slab must not reallocate");
    }

    #[test]
    fn truncation_is_an_error() {
        let events: Vec<Event> = (0..100).map(|i| (2, 50 + i, false)).collect();
        let buf = encode(&events, 16);
        for cut in [buf.len() - 1, buf.len() - 5, buf.len() / 2] {
            let got = drain(buf[..cut].to_vec(), None);
            assert!(
                matches!(got, Err(TraceError::Truncated)),
                "cut at {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_caught_or_harmless() {
        let events: Vec<Event> = (0..200).map(|i| (3, 9 * i, i % 2 == 0)).collect();
        let buf = encode(&events, 32);
        for at in (8..buf.len()).step_by(11) {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            if let Ok(got) = drain(bad, None) {
                assert_eq!(got, events, "flip at {at} decoded differently");
            }
        }
    }

    #[test]
    fn prefetch_round_trips() {
        let events: Vec<Event> = (0..5000u64)
            .map(|i| ((i % 5) as u32, i * 3 % 701, i % 7 == 0))
            .collect();
        assert_eq!(drain_prefetched(encode(&events, 64), None).unwrap(), events);
    }

    #[test]
    fn prefetch_surfaces_errors() {
        let events: Vec<Event> = (0..100).map(|i| (1, i, false)).collect();
        let mut buf = encode(&events, 16);
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            drain_prefetched(buf, None),
            Err(TraceError::Truncated)
        ));
    }

    /// Two streams, 8-event chunks: `a` = `(10, i, false)`, `b` =
    /// `(20, 1000 + 2i, true)` for `i` in `0..64`.
    fn two_stream_trace() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap().with_chunk_events(8);
        let a = w.add_stream("a", &[]).unwrap();
        let b = w.add_stream("b", &[]).unwrap();
        for i in 0..64u64 {
            w.record(a, 10, LineAddr(i), false).unwrap();
            w.record(b, 20, LineAddr(1000 + i * 2), true).unwrap();
        }
        w.finish().unwrap();
        drop(w);
        buf
    }

    fn two_stream_events(stream: u16) -> Vec<Event> {
        (0..64u64)
            .map(|i| match stream {
                0 => (10, i, false),
                _ => (20, 1000 + i * 2, true),
            })
            .collect()
    }

    #[test]
    fn multi_stream_chunks_tagged_by_stream() {
        let mut r = reader(two_stream_trace()).unwrap();
        let mut batch = EventBatch::new();
        let mut per_stream = [Vec::new(), Vec::new()];
        while let Some(sid) = r.next_chunk(&mut batch).unwrap() {
            collect(&batch, &mut per_stream[usize::from(sid)]);
        }
        assert_eq!(per_stream, [two_stream_events(0), two_stream_events(1)]);
        assert_eq!(r.streams().count(), 2);
    }

    #[test]
    fn followed_read_yields_one_stream_and_passes_end_check() {
        // The other stream's chunks are skipped undecoded; the end check
        // (with their totals unverifiable) still passes.
        for stream in [0, 1] {
            let want = two_stream_events(stream);
            assert_eq!(drain(two_stream_trace(), Some(stream)).unwrap(), want);
            assert_eq!(
                drain_prefetched(two_stream_trace(), Some(stream)).unwrap(),
                want
            );
        }
    }

    /// `(tag, block start, payload range)` of every block in `buf`, by
    /// walking the block framing by hand.
    fn blocks(buf: &[u8]) -> Vec<(u8, usize, std::ops::Range<usize>)> {
        let mut out = Vec::new();
        let mut pos = 8;
        while pos < buf.len() {
            let start = pos;
            let tag = buf[pos];
            pos += 1;
            let len = get_varint(buf, &mut pos).unwrap() as usize;
            pos += 4; // crc
            out.push((tag, start, pos..pos + len));
            pos += len;
        }
        out
    }

    /// Payload range of the first chunk of `stream`.
    fn chunk_payload(buf: &[u8], stream: u64) -> std::ops::Range<usize> {
        blocks(buf)
            .into_iter()
            .find(|(tag, _, payload)| {
                let mut p = payload.start;
                *tag == TAG_CHUNK && get_varint(buf, &mut p).unwrap() == stream
            })
            .unwrap()
            .2
    }

    #[test]
    fn readers_stop_at_their_first_error() {
        // 300 events in three chunks, a byte flipped in the first: every
        // call after the checksum error returns it again, never the next
        // chunk decoded as if it were the stream's first.
        let events: Vec<Event> = (0..300u64).map(|i| (3, 100 + i, false)).collect();
        let mut buf = encode(&events, 100);
        let first = chunk_payload(&buf, 0);
        buf[first.start + first.len() / 2] ^= 0x04;
        let mut batch = EventBatch::new();
        let want = match reader(buf.clone()).unwrap().next_chunk(&mut batch) {
            Err(e @ TraceError::Checksum { .. }) => e.to_string(),
            other => panic!("expected a checksum error, got {other:?}"),
        };
        let check = |call: usize, got: Result<bool, TraceError>| match got {
            Err(e) => assert_eq!(e.to_string(), want, "call {call}"),
            Ok(data) => panic!("call {call} returned data ({data}) after the error"),
        };
        let mut r = reader(buf.clone()).unwrap();
        for call in 0..5 {
            check(call, r.next_chunk(&mut batch).map(|s| s.is_some()));
            assert!(batch.is_empty());
        }
        let mut p = PrefetchBatches::start(reader(buf.clone()).unwrap()).unwrap();
        for call in 0..5 {
            check(call, p.next_chunk(&mut batch).map(|s| s.is_some()));
            assert!(batch.is_empty());
        }
        let mut t = crate::TraceReader::new(Arc::new(TraceData::from_vec(buf))).unwrap();
        for call in 0..5 {
            check(call, t.next_record().map(|r| r.is_some()));
        }
    }

    #[test]
    fn repeated_io_errors_keep_their_text() {
        let e = TraceError::Io(std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            "no access",
        ));
        let again = e.again();
        assert_eq!(again.to_string(), e.to_string());
        assert!(
            matches!(again, TraceError::Io(ref io) if io.kind() == std::io::ErrorKind::PermissionDenied)
        );
    }

    #[test]
    fn followed_read_validates_own_chunks_and_walks_past_foreign_ones() {
        let buf = two_stream_trace();
        // A flip inside a *followed* chunk body is a checksum error.
        let own = chunk_payload(&buf, 1);
        let mut bad = buf.clone();
        bad[own.start + own.len() / 2] ^= 0x04;
        assert!(matches!(
            drain(bad, Some(1)),
            Err(TraceError::Checksum { .. })
        ));
        // A flip inside a *foreign* chunk body never reaches this reader:
        // the frame walk steps over it and the followed stream decodes
        // unchanged (stream 0's reader is the one that validates it).
        let foreign = chunk_payload(&buf, 0);
        let mut bad = buf.clone();
        bad[foreign.start + foreign.len() / 2] ^= 0x04;
        assert_eq!(drain(bad, Some(1)).unwrap(), two_stream_events(1));
    }

    #[test]
    fn chunk_for_undefined_stream_is_corrupt_in_followed_reads_too() {
        // A well-framed chunk (valid CRC) naming stream 5 of a 2-stream
        // file, spliced in before the first real chunk.
        let buf = two_stream_trace();
        let mut payload = Vec::new();
        put_varint(&mut payload, 5);
        payload.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0]);
        let mut block = vec![TAG_CHUNK];
        put_varint(&mut block, payload.len() as u64);
        block.extend_from_slice(&crc32(&payload).to_le_bytes());
        block.extend_from_slice(&payload);
        let (_, at, _) = blocks(&buf)
            .into_iter()
            .find(|(tag, _, _)| *tag == TAG_CHUNK)
            .unwrap();
        let bad = [&buf[..at], &block, &buf[at..]].concat();
        for follow in [None, Some(0), Some(1)] {
            let err = drain(bad.clone(), follow).expect_err("undefined stream must be rejected");
            assert_eq!(
                err.to_string(),
                "corrupt trace: chunk for undefined stream 5",
                "follow {follow:?}"
            );
        }
    }

    #[test]
    fn stream_table_walks_without_decoding_and_checks_the_frame() {
        let buf = two_stream_trace();
        let path = std::env::temp_dir().join(format!("wp-batch-table-{}.wpt", std::process::id()));
        let table = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            stream_table(&path)
        };
        let names: Vec<String> = table(&buf).unwrap().into_iter().map(|m| m.name).collect();
        assert_eq!(names, ["a", "b"]);
        // A flipped chunk body is stepped over; the chunks are the
        // replaying readers' to validate.
        let chunk = chunk_payload(&buf, 1);
        let mut bad = buf.clone();
        bad[chunk.start + chunk.len() / 2] ^= 0x04;
        assert_eq!(table(&bad).unwrap().len(), 2);
        // The definitions, the End block, truncation and trailing bytes
        // are the walk's own to reject.
        let all = blocks(&buf);
        for tag in [TAG_STREAM_DEF, TAG_END] {
            let (_, _, payload) = all.iter().find(|(t, _, _)| *t == tag).unwrap();
            let mut bad = buf.clone();
            bad[payload.start] ^= 0x01;
            assert!(
                matches!(table(&bad), Err(TraceError::Checksum { .. })),
                "tag {tag}"
            );
        }
        assert!(matches!(
            table(&buf[..buf.len() - 2]),
            Err(TraceError::Truncated)
        ));
        assert!(matches!(
            table(&[&buf[..], b"x"].concat()),
            Err(TraceError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_validates_header() {
        assert!(matches!(
            reader(b"NOPE\x01\x00\x00\x00".to_vec()),
            Err(TraceError::BadMagic)
        ));
        assert!(matches!(
            reader(b"NOPE".to_vec()),
            Err(TraceError::BadMagic)
        ));
        assert!(matches!(reader(vec![b'W']), Err(TraceError::Truncated)));
        assert!(matches!(
            reader(b"WPT1\x01\x00".to_vec()),
            Err(TraceError::Truncated)
        ));
    }
}
