//! Property tests for the `.wpt` codec: arbitrary event streams must
//! round-trip exactly, and damaged files must fail with an error — never
//! a panic, never a silently wrong decode.

use std::sync::Arc;

use proptest::prelude::*;
use wp_mem::{LineAddr, PageId};
use wp_trace::{
    BatchReader, EventBatch, PoolMeta, PrefetchBatches, TraceData, TraceError, TraceReader,
    TraceWriter,
};

type Event = (u32, u64, bool);

/// Strategy: one event. Lines span the whole plausible range (sequential
/// neighbourhoods, pool-sized jumps, and full-address-space outliers) so
/// every column width gets exercised.
fn event() -> impl Strategy<Value = Event> {
    (0u32..200_000, 0u64..1 << 45, 0u32..4).prop_map(|(gap, line, w)| (gap, line, w == 0))
}

fn events(max: usize) -> impl Strategy<Value = Vec<Event>> {
    (0..max)
        .prop_flat_map(|n| proptest::collection::vec(event(), n))
        .boxed()
}

fn encode(events: &[Event], chunk: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = TraceWriter::new(&mut buf).unwrap().with_chunk_events(chunk);
    let pools = [PoolMeta {
        name: "pool0".into(),
        pool: Some(7),
        bytes: 4096 * 4,
        pages: (100..104).map(PageId).collect(),
    }];
    let s = w.add_stream("prop", &pools).unwrap();
    for &(gap, line, wr) in events {
        w.record(s, gap, LineAddr(line), wr).unwrap();
    }
    w.finish().unwrap();
    drop(w);
    buf
}

fn data(buf: &[u8]) -> Arc<TraceData> {
    Arc::new(TraceData::from_vec(buf.to_vec()))
}

/// Drains the record view.
fn decode(buf: &[u8]) -> Result<Vec<Event>, TraceError> {
    let mut r = TraceReader::new(data(buf))?;
    let mut out = Vec::new();
    while let Some((_, rec)) = r.next_record()? {
        out.push((rec.gap_instrs, rec.line.0, rec.is_write));
    }
    Ok(out)
}

/// Drains the chunk view into the same flat event list.
fn decode_batched(buf: &[u8]) -> Result<Vec<Event>, TraceError> {
    let mut r = BatchReader::new(data(buf))?;
    let mut batch = EventBatch::new();
    let mut out = Vec::new();
    while r.next_chunk(&mut batch)?.is_some() {
        for i in 0..batch.len() {
            out.push((batch.gaps[i], batch.lines[i].0, batch.writes[i]));
        }
    }
    Ok(out)
}

/// Same, through the prefetch-thread pipeline.
fn decode_prefetched(buf: &[u8]) -> Result<Vec<Event>, TraceError> {
    let reader = BatchReader::new(data(buf))?;
    let mut p = PrefetchBatches::start(reader)?;
    let mut batch = EventBatch::new();
    let mut out = Vec::new();
    while p.next_chunk(&mut batch)?.is_some() {
        for i in 0..batch.len() {
            out.push((batch.gaps[i], batch.lines[i].0, batch.writes[i]));
        }
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn chunk_boundaries_are_invisible(evs in events(120)) {
        // The decoded stream must not depend on where chunks fall: byte
        // streams differ, events must not.
        let a = decode(&encode(&evs, 1)).unwrap();
        let b = decode(&encode(&evs, evs.len().max(1))).unwrap();
        let c = decode(&encode(&evs, 7)).unwrap();
        prop_assert_eq!(&a, &evs);
        prop_assert_eq!(&b, &evs);
        prop_assert_eq!(&c, &evs);
    }

    #[test]
    fn every_view_round_trips(evs in events(300), chunk in 1usize..80) {
        // Chunk sizes from 1 (every chunk single-event) to larger than
        // the stream (one odd-sized chunk) — the final chunk is almost
        // always partial. The record, chunk and prefetch views must all
        // yield exactly the events written.
        let buf = encode(&evs, chunk);
        prop_assert_eq!(&decode(&buf).expect("clean file decodes"), &evs);
        prop_assert_eq!(&decode_batched(&buf).unwrap(), &evs);
        prop_assert_eq!(&decode_prefetched(&buf).unwrap(), &evs);
    }

    #[test]
    fn any_truncation_errors_not_panics(evs in events(60), chunk in 1usize..20, frac in 0.0f64..1.0) {
        let buf = encode(&evs, chunk);
        // Every strict prefix is missing at least the End block, so a
        // full drain must report an error (typically Truncated) rather
        // than panic or claim clean completion.
        let cut = ((buf.len() as f64 * frac) as usize).min(buf.len() - 1);
        prop_assert!(decode(&buf[..cut]).is_err(), "prefix of {} bytes decoded cleanly", cut);
        prop_assert!(decode_batched(&buf[..cut]).is_err(), "prefix of {} bytes decoded cleanly", cut);
        prop_assert!(decode_prefetched(&buf[..cut]).is_err(), "prefix of {} bytes decoded cleanly", cut);
    }

    #[test]
    fn every_prefix_of_a_small_file_errors(evs in events(12)) {
        let buf = encode(&evs, 3);
        for cut in 0..buf.len() {
            prop_assert!(decode(&buf[..cut]).is_err(), "prefix {} of {}", cut, buf.len());
        }
    }

    #[test]
    fn bit_flips_never_decode_to_wrong_events(
        evs in events(80),
        chunk in 1usize..20,
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let clean = encode(&evs, chunk);
        let mut dirty = clean.clone();
        let pos = ((dirty.len() as f64 * pos_frac) as usize).min(dirty.len() - 1);
        dirty[pos] ^= 1 << bit;
        // A flipped bit must either be caught (header check, CRC, or
        // structural validation) or — never — produce a "clean" decode
        // with different events, in any view. CRC-32 guarantees detection
        // for any single-bit flip within a payload; flips in the 9
        // header/length bytes are caught structurally.
        let views = [decode(&dirty), decode_batched(&dirty), decode_prefetched(&dirty)];
        for got in views.into_iter().flatten() {
            prop_assert_eq!(&got, &evs, "corruption at byte {} decoded differently", pos);
        }
    }

    #[test]
    fn pool_tags_follow_the_page_table(lines in proptest::collection::vec(0u64..1 << 20, 50)) {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap().with_chunk_events(16);
        let pools = [
            PoolMeta { name: "a".into(), pool: None, bytes: 4096 * 8, pages: (0..8).map(PageId).collect() },
            PoolMeta { name: "b".into(), pool: Some(1), bytes: 4096 * 4, pages: (64..68).map(PageId).collect() },
        ];
        let s = w.add_stream("tags", &pools).unwrap();
        for &l in &lines {
            w.record(s, 1, LineAddr(l), false).unwrap();
        }
        w.finish().unwrap();
        drop(w);
        let mut r = TraceReader::new(data(&buf)).unwrap();
        let mut i = 0;
        while let Some((_, rec)) = r.next_record().unwrap() {
            let page = rec.line.0 / 64;
            let want = if page < 8 {
                Some(0)
            } else if (64..68).contains(&page) {
                Some(1)
            } else {
                None
            };
            prop_assert_eq!(rec.pool, want, "line {}", rec.line.0);
            i += 1;
        }
        prop_assert_eq!(i, lines.len());
    }
}

/// Non-random regression: a wrong-length file whose truncation point is
/// *exactly* a block boundary still errors (the End block is mandatory).
#[test]
fn clean_block_boundary_truncation_still_errors() {
    let evs: Vec<Event> = (0..40).map(|i| (2, 500 + i, false)).collect();
    let buf = encode(&evs, 8);
    // Walk blocks from the top to find each boundary: header is 8 bytes,
    // then tag(1) + len varint + crc(4) + payload.
    let mut boundaries = vec![8usize];
    let mut pos = 8usize;
    while pos < buf.len() {
        let mut p = pos + 1;
        let mut len = 0u64;
        let mut shift = 0;
        loop {
            let b = buf[p];
            p += 1;
            len |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        pos = p + 4 + len as usize;
        boundaries.push(pos);
    }
    assert_eq!(*boundaries.last().unwrap(), buf.len());
    for &b in &boundaries[..boundaries.len() - 1] {
        assert!(
            matches!(decode(&buf[..b]), Err(TraceError::Truncated)),
            "boundary {b}"
        );
    }
}
