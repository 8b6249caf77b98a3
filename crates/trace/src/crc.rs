//! CRC-32 (IEEE 802.3, the zlib polynomial) for block payload checksums.
//!
//! Hand-rolled because the workspace builds with no external crates. It
//! is the reflected table-driven form, sliced by 16: sixteen 256-entry
//! tables (16 KB, built once at first use) fold 16 little-endian bytes
//! per step instead of one, so the sixteen lookups of a step are
//! independent loads rather than a chain, and the chain through the
//! running CRC is one step per 16 bytes. The values are exactly those of
//! the one-table byte loop, which the last 0–15 bytes still use. Every
//! reader and writer checksums through [`crc32`].

use std::sync::OnceLock;

/// Bytes folded per step, and the number of tables.
const SLICE: usize = 16;

fn tables() -> &'static [[u32; 256]; SLICE] {
    static TABLES: OnceLock<[[u32; 256]; SLICE]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; SLICE];
        for (i, entry) in t[0].iter_mut().enumerate() {
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
        // Table k advances a byte's contribution past k further zero
        // bytes.
        for k in 1..SLICE {
            let (done, rest) = t.split_at_mut(k);
            for (entry, &prev) in rest[0].iter_mut().zip(&done[k - 1]) {
                *entry = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 of `data` (init `!0`, final xor `!0` — matches zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    // The four lookups for the bytes of `v`, whose first byte lies
    // `k + 3` bytes before the end of the step.
    let fold = |v: u32, k: usize| {
        t[k + 3][(v & 0xFF) as usize]
            ^ t[k + 2][((v >> 8) & 0xFF) as usize]
            ^ t[k + 1][((v >> 16) & 0xFF) as usize]
            ^ t[k][(v >> 24) as usize]
    };
    let word = |w: &[u8], at: usize| u32::from_le_bytes([w[at], w[at + 1], w[at + 2], w[at + 3]]);
    let mut c = !0u32;
    let mut steps = data.chunks_exact(SLICE);
    for w in &mut steps {
        c = fold(c ^ word(w, 0), 12)
            ^ fold(word(w, 4), 8)
            ^ fold(word(w, 8), 4)
            ^ fold(word(w, 12), 0);
    }
    for &b in steps.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"whirlpool trace chunk payload".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), base);
            }
        }
    }
}
