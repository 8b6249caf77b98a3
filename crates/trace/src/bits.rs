//! Fixed-width bit packing for chunk columns.
//!
//! Each column of a chunk (gaps, address deltas) is frame-of-reference
//! coded: a per-chunk minimum plus `width`-bit residuals packed LSB-first
//! into bytes. A constant column packs to zero bytes (`width == 0`).

use crate::TraceError;

/// Bits needed to represent `v` (0 for `v == 0`).
pub fn bits_for(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// The low `width` bits set (all 64 for `width >= 64`).
pub(crate) fn low_mask(width: u8) -> u64 {
    1u64.checked_shl(u32::from(width))
        .map_or(u64::MAX, |b| b - 1)
}

/// Widest column whose values unpack from one 8-byte window: a value
/// starts up to 7 bits into its first byte, so 7 + 56 bits fit a `u64`.
const WINDOW_WIDTH: u8 = 56;

/// Packs `width`-bit values LSB-first into `out`, a whole little-endian
/// `u64` word at a time (the last word only as far as its bytes are used).
///
/// # Panics
///
/// Debug-asserts every value fits in `width` bits; `width` must be ≤ 64.
pub fn pack(out: &mut Vec<u8>, values: &[u64], width: u8) {
    assert!(width <= 64);
    if width == 0 {
        return;
    }
    out.reserve(packed_len(values.len(), width));
    let width = u32::from(width);
    let mut acc = 0u64;
    let mut acc_bits = 0u32;
    for &v in values {
        debug_assert!(width == 64 || v < (1u64 << width), "value exceeds width");
        acc |= v << acc_bits;
        acc_bits += width;
        if acc_bits >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            acc_bits -= 64;
            // The `acc_bits` high bits of `v` that did not fit the word.
            acc = if acc_bits == 0 {
                0
            } else {
                v >> (width - acc_bits)
            };
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..acc_bits.div_ceil(8) as usize]);
}

/// Number of bytes `count` values of `width` bits occupy.
pub fn packed_len(count: usize, width: u8) -> usize {
    (count * usize::from(width)).div_ceil(8)
}

/// Unpacks `count` `width`-bit values from `buf` at `*pos` into a
/// caller-owned buffer (cleared first), advancing `*pos` past the column —
/// steady-state decode reuses one allocation per column instead of
/// allocating per chunk. Errors with [`TraceError::Truncated`] if the
/// buffer is too short.
///
/// A column up to 56 bits wide unpacks eight values at a time: eight
/// `width`-bit values fill exactly `width` bytes, so every group starts on
/// a byte, and each value of a group is one shift and mask of the
/// unaligned little-endian `u64` at a fixed offset into it. Wider columns,
/// and the last values of any column, whose group's windows would run
/// past the column's end, take a byte-at-a-time loop instead.
pub fn unpack_into(
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
    let need = packed_len(count, width);
    let Some(bytes) = buf.get(*pos..*pos + need) else {
        return Err(TraceError::Truncated);
    };
    *pos += need;
    values.reserve(count);
    let mask = low_mask(width);
    let w = usize::from(width);
    // Value `j` of a group starts `j * w / 8` bytes into it, at most
    // `w - 1`, so a group's windows lie in its first `w + 7` bytes.
    let groups = if width <= WINDOW_WIDTH {
        (count / 8).min(bytes.len().saturating_sub(7) / w)
    } else {
        0
    };
    let offsets: [(usize, usize); 8] = std::array::from_fn(|j| (j * w / 8, j * w % 8));
    for group in bytes.windows(w + 7).step_by(w).take(groups) {
        values.extend(offsets.iter().map(|&(at, shift)| {
            let window: [u8; 8] = group[at..at + 8].try_into().expect("window in group");
            (u64::from_le_bytes(window) >> shift) & mask
        }));
    }
    let windowed = groups * 8;
    unpack_bytewise(bytes, windowed, count, width, mask, values);
    Ok(())
}

/// Appends values `from..count` of a `width`-bit column, feeding an
/// accumulator one byte at a time.
fn unpack_bytewise(
    bytes: &[u8],
    from: usize,
    count: usize,
    width: u8,
    mask: u64,
    values: &mut Vec<u64>,
) {
    if from == count {
        return;
    }
    let bit = from * usize::from(width);
    let mut next = bytes[bit / 8..].iter();
    // Drop the bits of the first byte that belong to earlier values.
    let skip = (bit % 8) as u32;
    let mut acc = 0u128;
    let mut acc_bits = 0u32;
    if skip > 0 {
        acc = u128::from(*next.next().expect("sized by the caller")) >> skip;
        acc_bits = 8 - skip;
    }
    for _ in from..count {
        while acc_bits < u32::from(width) {
            acc |= u128::from(*next.next().expect("sized by the caller")) << acc_bits;
            acc_bits += 8;
        }
        values.push((acc as u64) & mask);
        acc >>= width;
        acc_bits -= u32::from(width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unpack(
        buf: &[u8],
        pos: &mut usize,
        count: usize,
        width: u8,
    ) -> Result<Vec<u64>, TraceError> {
        let mut values = Vec::new();
        unpack_into(buf, pos, count, width, &mut values)?;
        Ok(values)
    }

    #[test]
    fn bits_for_edges() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn pack_unpack_round_trips() {
        for width in [1u8, 3, 5, 8, 13, 17, 31, 33, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..100u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            let mut buf = Vec::new();
            pack(&mut buf, &values, width);
            assert_eq!(buf.len(), packed_len(values.len(), width));
            let mut pos = 0;
            let got = unpack(&buf, &mut pos, values.len(), width).unwrap();
            assert_eq!(got, values, "width {width}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zero_width_is_free() {
        let mut buf = Vec::new();
        pack(&mut buf, &[0, 0, 0], 0);
        assert!(buf.is_empty());
        let mut pos = 0;
        assert_eq!(unpack(&buf, &mut pos, 3, 0).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn short_buffer_is_an_error() {
        let mut buf = Vec::new();
        pack(&mut buf, &[1, 2, 3, 4], 9);
        buf.pop();
        let mut pos = 0;
        assert!(matches!(
            unpack(&buf, &mut pos, 4, 9),
            Err(TraceError::Truncated)
        ));
    }
}
