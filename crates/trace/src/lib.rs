//! `wp-trace`: capture, compact storage, and replay of LLC access traces.
//!
//! The rest of the workspace generates memory access streams *live* from
//! the synthetic application models in `wp-workloads`. This crate adds the
//! missing third leg of the standard cache-study methodology: recorded
//! traces. Any simulator run can be captured to a `.wpt` file
//! (`wp_sim::SimConfig::capture_to`), shipped, and replayed bit-identically
//! through every LLC scheme, profiled by WhirlTool, or fed to the Mattson
//! machinery in `wp-mrc` — without the producing model present.
//!
//! # The `.wpt` format
//!
//! A `.wpt` file is a stream of checksummed blocks after a fixed header:
//!
//! ```text
//! file      := magic "WPT1" · version u16 LE · flags u16 LE · block*
//! block     := tag u8 · payload_len varint · crc32(payload) u32 LE · payload
//! tag 1     := StreamDef — stream id, name, pool table (pages as runs)
//! tag 2     := Chunk     — one stream's next batch of events
//! tag 3     := End       — per-stream event/instruction totals (must be last)
//! ```
//!
//! Chunk payloads are column-oriented and frame-of-reference coded:
//! instruction gaps and zigzagged line-address deltas each store a varint
//! minimum plus fixed-width bit-packed residuals, and the read/write flags
//! collapse to one byte when uniform. A pure streaming sweep costs ~0 bits
//! per address; the uniform-random pools of `delaunay` cost ≈23 bits per
//! event against 96 for a naive `u64` address + `u32` gap record (>4×).
//!
//! Writers are streaming: memory use is one chunk per stream, never the
//! whole trace. Malformed input (truncation, bit flips, garbage) surfaces
//! as [`TraceError`] — never a panic.
//!
//! # A word-at-a-time codec
//!
//! The hot loops work on whole words and whole columns, in safe Rust:
//!
//! * the block CRC-32 is sliced by 16, folding 16 bytes per step through
//!   sixteen 256-entry tables;
//! * a packed column of values up to 56 bits wide unpacks eight values
//!   at a time (eight values fill exactly `width` bytes), each one
//!   unaligned little-endian `u64` load, shift and mask at a fixed offset
//!   into its group; only wider columns and a column's last few values
//!   take a byte-at-a-time loop;
//! * packing appends whole `u64` words;
//! * a chunk decodes a column at a time: the gap and address-delta
//!   columns are range-checked once per chunk (one comparison when the
//!   column's bit width cannot overflow), then the columns go to a sink;
//! * the writer reuses its column and payload buffers across chunks.
//!
//! The bytes are those of the byte-at-a-time codec this replaced, which
//! the crate keeps as a test-only reference for differential property
//! tests.
//!
//! # One parser, two sinks, two views
//!
//! [`BatchReader`] is the only block parser: it reads the framing, checks
//! every CRC, stream-definition order and the `End` totals, and parses
//! whole chunks straight out of an mmapped file image ([`TraceData`]).
//! Once a chunk has passed every check, its unpacked columns go to one
//! of two sinks:
//!
//! * [`BatchReader::next_chunk`] materializes them as flat
//!   [`EventBatch`] columns, for replays and every event-level consumer;
//! * [`BatchReader::next_summary`] folds them to a [`ChunkSummary`]
//!   (events, instructions, writes, line span) without materializing an
//!   event. This is the validation scan, [`TraceInfo::scan`], that
//!   `trace_tool info`, `record`'s post-write check and the profilers'
//!   pre-size run.
//!
//! Two views sit on top of the event sink:
//!
//! * the **record view**, [`TraceReader`] — one pool-tagged
//!   [`TraceRecord`] at a time, for tools such as `trace_tool dump`;
//! * the **prefetching view**, [`PrefetchBatches`] — the same chunks
//!   decoded on a lookahead thread, the simulator's replay path.
//!
//! [`stream_table`] lists a file's streams by a frame walk that decodes
//! no chunk. A replay of one stream reads that table, then folds every
//! other stream to summaries with a followed reader
//! ([`BatchReader::follow`], [`BatchReader::next_summary`]), so damage
//! anywhere in the file fails it.
//! Because every consumer runs the same parser, they all accept and
//! reject exactly the same inputs with the same errors. Readers of
//! several streams of one file can share one mapped image
//! ([`BatchReader::new`] over a cloned `Arc<TraceData>`).
//!
//! On a 4-app mix capture of 719 k events (`cargo bench -p wp-bench
//! --bench trace_codec`, medians of 3 alternating runs on a shared 2-core
//! 2.1 GHz x86-64 host), [`TraceInfo::scan`] costs 5.3 ns/event (10.5
//! with the event sink, a slicing-by-8 CRC and one window per value), a
//! whole-file decode 4.8 ns/event (8.2) and a re-encode 14 ns/event.
//
// `unsafe` is denied rather than forbidden: the single exception is the
// FFI mmap in `mmap.rs`, which carries its own scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod bits;
mod crc;
mod meta;
mod mmap;
mod reader;
#[cfg(test)]
mod reference;
mod varint;
mod writer;

pub use batch::{stream_table, BatchReader, ChunkSummary, EventBatch, PrefetchBatches};
pub use meta::{PoolMeta, StreamMeta, TraceRecord};
pub use mmap::TraceData;
pub use reader::{StreamInfo, TraceInfo, TraceReader};
pub use writer::{TraceWriter, DEFAULT_CHUNK_EVENTS};

/// File magic: the first four bytes of every `.wpt` file.
pub const MAGIC: [u8; 4] = *b"WPT1";

/// Current format version.
pub const VERSION: u16 = 1;

pub(crate) const TAG_STREAM_DEF: u8 = 1;
pub(crate) const TAG_CHUNK: u8 = 2;
pub(crate) const TAG_END: u8 = 3;

/// Largest accepted block payload (1 GiB) — a sanity bound so corrupt
/// length fields cannot drive huge allocations.
pub(crate) const MAX_BLOCK_BYTES: u64 = 1 << 30;

/// Largest accepted event count per chunk.
pub(crate) const MAX_CHUNK_EVENTS: u64 = 1 << 24;

/// Everything that can go wrong reading or writing a `.wpt` trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `.wpt` magic.
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u16),
    /// The file ends before its `End` block (or mid-structure).
    Truncated,
    /// A block's payload does not match its stored CRC-32.
    Checksum {
        /// Byte offset of the failing block's tag.
        offset: u64,
    },
    /// Structurally invalid content (bad varint, impossible counts, …).
    Corrupt(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a .wpt trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .wpt version {v} (this reader supports {VERSION})"
                )
            }
            TraceError::Truncated => write!(f, "trace file is truncated"),
            TraceError::Checksum { offset } => {
                write!(f, "checksum mismatch in block at byte {offset}")
            }
            TraceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
        }
    }
}

impl TraceError {
    /// The same error again, for a reader that keeps returning its first
    /// failure: an equal value, or for I/O an error of the same kind and
    /// message, so the text never changes.
    pub(crate) fn again(&self) -> Self {
        match self {
            TraceError::Io(e) => TraceError::Io(std::io::Error::new(e.kind(), e.to_string())),
            TraceError::BadMagic => TraceError::BadMagic,
            TraceError::UnsupportedVersion(v) => TraceError::UnsupportedVersion(*v),
            TraceError::Truncated => TraceError::Truncated,
            TraceError::Checksum { offset } => TraceError::Checksum { offset: *offset },
            TraceError::Corrupt(msg) => TraceError::Corrupt(msg.clone()),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        // An unexpected EOF from `read_exact` is a truncated file, which
        // callers want to distinguish from real device errors.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated
        } else {
            TraceError::Io(e)
        }
    }
}
