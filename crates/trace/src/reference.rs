//! The byte-at-a-time codec the word-at-a-time one replaced, kept as a
//! test oracle: a Sarwate CRC, bit packing through an accumulator fed one
//! byte per step, and a chunk decoder that range-checks and pushes one
//! event at a time. The property tests below check the live codec against
//! it on random and damaged inputs.

use wp_mem::LineAddr;

use crate::batch::EventBatch;
use crate::varint::{get_varint, unzigzag};
use crate::{TraceError, MAX_CHUNK_EVENTS};

fn crc_table() -> [u32; 256] {
    let mut t = [0u32; 256];
    for (i, entry) in t.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    t
}

/// CRC-32, one table lookup per byte.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = crc_table();
    let mut c = !0u32;
    for &b in data {
        c = t[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Packs `width`-bit values LSB-first, one output byte at a time.
pub(crate) fn pack(out: &mut Vec<u8>, values: &[u64], width: u8) {
    assert!(width <= 64);
    if width == 0 {
        return;
    }
    let mut acc = 0u128;
    let mut acc_bits = 0u32;
    for &v in values {
        acc |= (v as u128) << acc_bits;
        acc_bits += u32::from(width);
        while acc_bits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

/// Unpacks `count` `width`-bit values, one input byte at a time.
pub(crate) fn unpack_into(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    width: u8,
    values: &mut Vec<u64>,
) -> Result<(), TraceError> {
    values.clear();
    if width == 0 {
        values.resize(count, 0);
        return Ok(());
    }
    if width > 64 {
        return Err(TraceError::Corrupt(format!("bit width {width} > 64")));
    }
    let need = (count * usize::from(width)).div_ceil(8);
    let Some(bytes) = buf.get(*pos..*pos + need) else {
        return Err(TraceError::Truncated);
    };
    *pos += need;
    let mut acc = 0u128;
    let mut acc_bits = 0u32;
    let mut next = bytes.iter();
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    for _ in 0..count {
        while acc_bits < u32::from(width) {
            acc |= u128::from(*next.next().expect("sized above")) << acc_bits;
            acc_bits += 8;
        }
        values.push((acc as u64) & mask);
        acc >>= width;
        acc_bits -= u32::from(width);
    }
    Ok(())
}

/// Decodes a chunk body event by event, with the same contract as
/// `batch::decode_chunk_body`.
pub(crate) fn decode_chunk_body(
    payload: &[u8],
    mut pos: usize,
    first_chunk: bool,
    batch: &mut EventBatch,
) -> Result<u64, TraceError> {
    let (mut gaps, mut flags, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
    let count = get_varint(payload, &mut pos)?;
    if count == 0 || count > MAX_CHUNK_EVENTS {
        return Err(TraceError::Corrupt(format!("chunk of {count} events")));
    }
    let count = count as usize;
    let base_line = get_varint(payload, &mut pos)?;

    let min_gap = get_varint(payload, &mut pos)?;
    let gap_bits = *payload.get(pos).ok_or(TraceError::Truncated)?;
    pos += 1;
    unpack_into(payload, &mut pos, count, gap_bits, &mut gaps)?;

    let write_mode = *payload.get(pos).ok_or(TraceError::Truncated)?;
    pos += 1;
    match write_mode {
        0 => flags.resize(count, 0),
        1 => flags.resize(count, 1),
        2 => unpack_into(payload, &mut pos, count, 1, &mut flags)?,
        m => return Err(TraceError::Corrupt(format!("write mode {m}"))),
    }

    let skip = usize::from(first_chunk);
    let min_zz = get_varint(payload, &mut pos)?;
    let addr_bits = *payload.get(pos).ok_or(TraceError::Truncated)?;
    pos += 1;
    unpack_into(payload, &mut pos, count - skip, addr_bits, &mut deltas)?;
    if pos != payload.len() {
        return Err(TraceError::Corrupt("trailing bytes in chunk".into()));
    }

    let mut line = base_line;
    let mut instrs = 0u64;
    for i in 0..count {
        let gap = min_gap
            .checked_add(gaps[i])
            .filter(|&g| g <= u64::from(u32::MAX))
            .ok_or_else(|| TraceError::Corrupt("gap overflows u32".into()))?;
        if i >= skip {
            let zz = min_zz
                .checked_add(deltas[i - skip])
                .ok_or_else(|| TraceError::Corrupt("address delta overflows".into()))?;
            line = line.wrapping_add(unzigzag(zz) as u64);
        }
        instrs += gap;
        batch.push(gap as u32, LineAddr(line), flags[i] == 1);
    }
    Ok(instrs)
}

mod tests {
    use proptest::prelude::*;

    use crate::batch::{decode_chunk_body, ChunkSummary, DecodeScratch, EventBatch};
    use crate::bits::low_mask;
    use crate::varint::{put_varint, zigzag};

    /// A seeded xorshift stream: inputs of a size the proptest shim's
    /// per-case strategies would make slow.
    fn random(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn crc_matches_the_bytewise_reference(
            seed in 0u64..u64::MAX,
            steps in 0usize..129,
        ) {
            // Every tail the 16-byte steps leave (0 to 15 bytes), each
            // from every start offset within a step, so the words are
            // read unaligned in memory.
            let mut r = random(seed);
            let data: Vec<u8> = (0..steps * 16 + 32).map(|_| (r() >> 24) as u8).collect();
            for start in 0..16 {
                for tail in 0..16 {
                    let slice = &data[start..start + steps * 16 + tail];
                    prop_assert_eq!(crate::crc::crc32(slice), super::crc32(slice));
                }
            }
        }
    }

    #[test]
    fn pack_and_unpack_match_the_reference_for_every_width_and_tail() {
        for width in 0..=64u8 {
            for count in 0..=600usize {
                let mut r = random(u64::from(width) << 16 | count as u64);
                let vals: Vec<u64> = (0..count).map(|_| r() & low_mask(width)).collect();
                // A non-empty prefix puts the column at an odd offset.
                let (mut got, mut want) = (vec![0xA5], vec![0xA5]);
                crate::bits::pack(&mut got, &vals, width);
                super::pack(&mut want, &vals, width);
                assert_eq!(got, want, "pack width {width} count {count}");
                // A trailing byte must stay unread.
                got.push(0x5A);
                let (mut pos, mut ref_pos) = (1, 1);
                let (mut out, mut ref_out) = (vec![7], Vec::new());
                crate::bits::unpack_into(&got, &mut pos, count, width, &mut out).unwrap();
                super::unpack_into(&got, &mut ref_pos, count, width, &mut ref_out).unwrap();
                assert_eq!(out, ref_out, "unpack width {width} count {count}");
                assert_eq!(out, vals, "round trip width {width} count {count}");
                assert_eq!(pos, ref_pos);
                // One byte short is truncation for both.
                if pos > 1 {
                    let short = &got[..pos - 1];
                    let mut p = 1;
                    assert!(
                        crate::bits::unpack_into(short, &mut p, count, width, &mut out).is_err()
                    );
                    assert_eq!(p, 1, "a failed unpack leaves the position alone");
                }
            }
        }
    }

    /// A valid chunk body (everything after the stream id) for `events`,
    /// laid out as the writer lays it out.
    fn chunk_body(events: &[(u32, u64, bool)], base_line: u64, first_chunk: bool) -> Vec<u8> {
        let gaps: Vec<u64> = events.iter().map(|e| u64::from(e.0)).collect();
        let min_gap = *gaps.iter().min().unwrap();
        let gap_res: Vec<u64> = gaps.iter().map(|g| g - min_gap).collect();
        let gap_bits = crate::bits::bits_for(*gap_res.iter().max().unwrap());
        let skip = usize::from(first_chunk);
        let mut prev = if first_chunk { events[0].1 } else { base_line };
        let deltas: Vec<u64> = events[skip..]
            .iter()
            .map(|e| {
                let d = zigzag(e.1.wrapping_sub(prev) as i64);
                prev = e.1;
                d
            })
            .collect();
        let min_zz = deltas.iter().copied().min().unwrap_or(0);
        let zz_res: Vec<u64> = deltas.iter().map(|d| d - min_zz).collect();
        let addr_bits = crate::bits::bits_for(zz_res.iter().copied().max().unwrap_or(0));
        let writes = events.iter().filter(|e| e.2).count();

        let mut out = Vec::new();
        put_varint(&mut out, events.len() as u64);
        put_varint(&mut out, if first_chunk { events[0].1 } else { base_line });
        put_varint(&mut out, min_gap);
        out.push(gap_bits);
        super::pack(&mut out, &gap_res, gap_bits);
        match writes {
            0 => out.push(0),
            w if w == events.len() => out.push(1),
            _ => {
                out.push(2);
                let flags: Vec<u64> = events.iter().map(|e| u64::from(e.2)).collect();
                super::pack(&mut out, &flags, 1);
            }
        }
        put_varint(&mut out, min_zz);
        out.push(addr_bits);
        super::pack(&mut out, &zz_res, addr_bits);
        out
    }

    /// Both decoders on one body: the same events and instruction total,
    /// or the same error.
    fn assert_same_decode(body: &[u8], first_chunk: bool) {
        let mut scratch = DecodeScratch::default();
        let mut got = EventBatch::new();
        let mut want = EventBatch::new();
        let new = decode_chunk_body(body, 0, first_chunk, &mut scratch, &mut got);
        let old = super::decode_chunk_body(body, 0, first_chunk, &mut want);
        match (new, old) {
            (Ok((events, a)), Ok(b)) => {
                assert_eq!(a, b, "instruction totals");
                assert_eq!(events, want.len() as u64, "event count");
                assert_eq!(got.gaps, want.gaps);
                assert_eq!(got.lines, want.lines);
                assert_eq!(got.writes, want.writes);
            }
            (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
        }
    }

    /// The summary sink and the batch sink on one body: the summary is
    /// what the batch's columns fold to, or both fail with one error.
    fn assert_summary_matches_batch(body: &[u8], first_chunk: bool) {
        let mut scratch = DecodeScratch::default();
        let mut batch = EventBatch::new();
        let mut summary = ChunkSummary::default();
        let from_batch = decode_chunk_body(body, 0, first_chunk, &mut scratch, &mut batch);
        let from_summary = decode_chunk_body(body, 0, first_chunk, &mut scratch, &mut summary);
        match (from_batch, from_summary) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "parser totals");
                let lines = batch.lines.iter().map(|l| l.0);
                let folded = ChunkSummary {
                    events: batch.len() as u64,
                    instructions: batch.gaps.iter().map(|&g| u64::from(g)).sum(),
                    writes: batch.writes.iter().filter(|&&w| w).count() as u64,
                    line_span: (lines.clone().min().unwrap(), lines.max().unwrap()),
                };
                assert_eq!(summary, folded);
                assert_eq!((summary.events, summary.instructions), a);
            }
            (a, b) => {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
                assert_eq!(
                    summary,
                    ChunkSummary::default(),
                    "a failed chunk reaches no sink"
                );
            }
        }
    }

    fn chunk_events() -> impl Strategy<Value = (Vec<(u32, u64, bool)>, u64, bool)> {
        // Gap and line spreads vary per chunk so every column width,
        // including the full 64-bit address deltas, gets exercised.
        (1usize..300, 0u32..33, 0u64..65, 0u64..u64::MAX, 0u32..4).prop_flat_map(
            |(n, gap_bits, line_bits, base, mode)| {
                let gap_max = 1u64 << gap_bits;
                let line_max = 1u64.checked_shl(line_bits as u32).unwrap_or(u64::MAX);
                proptest::collection::vec((0u64..gap_max, 0u64..line_max, 0u32..2), n).prop_map(
                    move |evs| {
                        let evs = evs
                            .into_iter()
                            .map(|(g, l, w)| {
                                let write = match mode {
                                    0 => false,
                                    1 => true,
                                    _ => w == 1,
                                };
                                (g.min(u64::from(u32::MAX)) as u32, l, write)
                            })
                            .collect();
                        (evs, base, base & 1 == 0)
                    },
                )
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn chunk_decode_matches_the_reference(
            chunk in chunk_events(),
            flip in 0u64..u64::MAX,
            cut in 0u64..u64::MAX,
        ) {
            let (events, base, first_chunk) = chunk;
            let body = chunk_body(&events, base, first_chunk);
            assert_same_decode(&body, first_chunk);
            // A flipped bit anywhere in the body (the CRC would catch it
            // in a file; the decoder must still agree on what it means).
            let mut bad = body.clone();
            let at = (flip % bad.len() as u64) as usize;
            bad[at] ^= 1 << ((flip >> 32) % 8);
            assert_same_decode(&bad, first_chunk);
            // Truncated anywhere, or with a trailing byte.
            assert_same_decode(&body[..(cut % body.len() as u64) as usize], first_chunk);
            assert_same_decode(&[&body[..], &[0]].concat(), first_chunk);
        }

        #[test]
        fn chunk_summary_matches_the_batch_fold(
            chunk in chunk_events(),
            flip in 0u64..u64::MAX,
            cut in 0u64..u64::MAX,
        ) {
            // Write modes 0, 1 and 2, as a stream's first chunk and as a
            // later one; valid, bit-flipped, truncated and overlong. The
            // workload models emit no writes, so this is what checks the
            // summary's write count.
            let (events, base, first_chunk) = chunk;
            let body = chunk_body(&events, base, first_chunk);
            assert_summary_matches_batch(&body, first_chunk);
            let mut bad = body.clone();
            let at = (flip % bad.len() as u64) as usize;
            bad[at] ^= 1 << ((flip >> 32) % 8);
            assert_summary_matches_batch(&bad, first_chunk);
            assert_summary_matches_batch(&body[..(cut % body.len() as u64) as usize], first_chunk);
            assert_summary_matches_batch(&[&body[..], &[0]].concat(), first_chunk);
        }
    }

    #[test]
    fn range_errors_report_the_first_failing_event() {
        // Hand-built bodies whose residuals overflow: a gap past u32::MAX
        // and an address delta past u64::MAX, at chosen events. The event
        // that fails first picks the message; a gap wins a tie.
        let body = |gap_at: Option<usize>, delta_at: Option<usize>, min_gap: u64| {
            let n = 6;
            let mut gaps = vec![0u64; n];
            let mut deltas = vec![0u64; n];
            if let Some(i) = gap_at {
                gaps[i] = u64::from(u32::MAX);
            }
            if let Some(i) = delta_at {
                deltas[i] = u64::MAX;
            }
            let mut out = Vec::new();
            put_varint(&mut out, n as u64);
            put_varint(&mut out, 100);
            put_varint(&mut out, min_gap);
            out.push(64);
            super::pack(&mut out, &gaps, 64);
            out.push(0);
            put_varint(&mut out, 5);
            out.push(64);
            super::pack(&mut out, &deltas, 64);
            out
        };
        for gap_at in [None, Some(0), Some(2), Some(5)] {
            for delta_at in [None, Some(0), Some(2), Some(4)] {
                for min_gap in [0, 1, u64::from(u32::MAX) + 1] {
                    assert_same_decode(&body(gap_at, delta_at, min_gap), false);
                }
            }
        }
    }
}
