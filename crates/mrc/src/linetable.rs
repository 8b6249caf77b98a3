//! An open-addressed line → `u32` table: the line → stamp index of
//! [`StampLru`](crate::StampLru), the one LRU store under the NUCA bank
//! partitions and the Mattson, GMON and SHARDS stacks.

/// `(line + 1, value)`; a zero key is an empty slot. A tuple of integers,
/// so `vec!` allocates a fresh table zeroed rather than writing it.
type Slot = (u64, u32);

/// Smallest table, in slots.
const MIN_SLOTS: usize = 8;

/// A `u64` line → `u32` map with linear probing and backward-shift
/// deletion.
///
/// The indexes it serves are probed once per simulated access, spread
/// over dozens of tables (25 banks × every VC, one monitor per VC), so
/// each probe is a host cache miss. A batched caller hides it by hinting
/// [`first_slot`](Self::first_slot) of an upcoming line while it serves
/// the current one; linear probing makes that slot (and, almost always,
/// the 64-byte host line around it) all a lookup reads.
///
/// - **Layout.** One flat array of 16-byte `(line + 1, value)` slots, a
///   power of two in length, at most three quarters full. A key of 0
///   marks an empty slot, so a fresh table is all-zero bytes: the
///   allocator hands back untouched zero pages, and pre-sizing a large
///   table costs nothing until it fills. Line `u64::MAX` is therefore not
///   a valid key (no line address comes near it).
/// - **Deletion** shifts the following run of the probe chain back into
///   the hole, so there are no tombstones and probe chains never rot
///   under the insert/remove churn of an LRU partition.
/// - **Hash.** MurmurHash3's 64-bit finalizer. It must stay independent
///   of the hashes that pick which lines reach a table: GMON sampling
///   (the Fibonacci multiplier of [`SampledStack`](crate::SampledStack)),
///   SHARDS sampling and the VTB's bank hash. A table fed only lines
///   whose Fibonacci hash has its top bits clear, indexed by that same
///   hash, would fill one region of the array and probe through it; a
///   single multiply by another constant still clusters strided lines
///   that such a filter kept (`sampled_lines_do_not_cluster` checks).
#[derive(Debug, Clone)]
pub struct LineTable {
    slots: Vec<Slot>,
    len: usize,
}

/// Slots for `lines` entries at a load of at most 3/4.
fn slots_for(lines: usize) -> usize {
    (lines * 4).div_ceil(3).next_power_of_two().max(MIN_SLOTS)
}

/// MurmurHash3's `fmix64`.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

impl LineTable {
    /// An empty table that holds `lines` entries without growing.
    pub fn with_capacity(lines: usize) -> Self {
        Self {
            slots: vec![(0, 0); slots_for(lines)],
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot where the probe for `line` starts.
    #[inline]
    fn home(&self, line: u64) -> usize {
        fmix64(line) as usize & self.mask()
    }

    /// The slot where a lookup of `line` starts, for a prefetch hint
    /// (`wp_cache::prefetch_read`). Nothing is read through it.
    #[inline]
    pub fn first_slot(&self, line: u64) -> &impl Sized {
        &self.slots[self.home(line)]
    }

    /// `Ok(slot)` holding `line`, or `Err(slot)`: the empty slot that
    /// ends its probe chain.
    #[inline]
    fn find(&self, line: u64) -> Result<usize, usize> {
        let key = line.wrapping_add(1);
        let mask = self.mask();
        let mut i = self.home(line);
        loop {
            match self.slots[i].0 {
                0 => return Err(i),
                k if k == key => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The value stored for `line`.
    #[inline]
    pub fn get(&self, line: u64) -> Option<u32> {
        self.find(line).ok().map(|i| self.slots[i].1)
    }

    /// Replaces the value of `line`'s entry with `value`, returning the
    /// old one; an absent line is left absent (`None`). One probe, where
    /// [`get`](Self::get) then [`insert`](Self::insert) walk the chain
    /// twice.
    #[inline]
    pub fn update(&mut self, line: u64, value: u32) -> Option<u32> {
        let i = self.find(line).ok()?;
        Some(std::mem::replace(&mut self.slots[i].1, value))
    }

    /// Rewrites every entry's value in place through `f`. Keys, and so
    /// slot positions, are untouched: one pass over the slot array.
    pub fn map_values(&mut self, mut f: impl FnMut(u32) -> u32) {
        for slot in self.slots.iter_mut().filter(|s| s.0 != 0) {
            slot.1 = f(slot.1);
        }
    }

    /// Stores `value` for `line`, returning the value it replaces.
    ///
    /// # Panics
    ///
    /// Panics if `line` is `u64::MAX`.
    #[inline]
    pub fn insert(&mut self, line: u64, value: u32) -> Option<u32> {
        assert!(line != u64::MAX, "u64::MAX is not a valid line");
        let mut slot = match self.find(line) {
            Ok(i) => return Some(std::mem::replace(&mut self.slots[i].1, value)),
            Err(i) => i,
        };
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
            slot = self.find(line).expect_err("absent before growing");
        }
        self.slots[slot] = (line + 1, value);
        self.len += 1;
        None
    }

    /// Removes `line`, returning its value. The rest of its probe chain
    /// shifts back over the hole, so no tombstone is left behind.
    #[inline]
    pub fn remove(&mut self, line: u64) -> Option<u32> {
        let mut hole = self.find(line).ok()?;
        let value = self.slots[hole].1;
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let key = self.slots[j].0;
            if key == 0 {
                break;
            }
            // The entry at `j` may fill the hole unless its home lies
            // cyclically in `(hole, j]`: it would then sit before its home.
            let home = self.home(key - 1);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (0, 0);
        self.len -= 1;
        Some(value)
    }

    /// Every `(line, value)` entry, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.0 != 0)
            .map(|&(k, v)| (k - 1, v))
    }

    /// Doubles the slot array and reinserts every entry.
    fn grow(&mut self) {
        let doubled = vec![(0, 0); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.mask();
        for slot in old.into_iter().filter(|s| s.0 != 0) {
            let mut i = self.home(slot.0 - 1);
            while self.slots[i].0 != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Every entry is reachable from its home slot through a run of full
    /// slots (the invariant backward-shift deletion must keep).
    fn assert_chains_intact(t: &LineTable) {
        let mask = t.mask();
        for (i, &(k, _)) in t.slots.iter().enumerate().filter(|(_, s)| s.0 != 0) {
            let mut j = t.home(k - 1);
            while j != i {
                assert_ne!(t.slots[j].0, 0, "hole in the chain of line {}", k - 1);
                j = (j + 1) & mask;
            }
        }
    }

    /// Mean slots read by a successful lookup.
    fn mean_probe_len(t: &LineTable) -> f64 {
        let mask = t.mask();
        let total: usize = t
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.0 != 0)
            .map(|(i, &(k, _))| (i.wrapping_sub(t.home(k - 1)) & mask) + 1)
            .sum();
        total as f64 / t.len() as f64
    }

    #[test]
    fn matches_std_hashmap_under_random_churn() {
        // Small key spaces against small tables: long chains, frequent
        // wrap-around at the array end, and deletions mid-chain.
        for (seed, keys, ops) in [(1u64, 12u64, 4_000), (7, 300, 40_000), (99, 5_000, 60_000)] {
            let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
            let mut t = LineTable::with_capacity(0);
            let mut m: HashMap<u64, u32> = HashMap::new();
            for op in 0..ops {
                let line = xorshift(&mut x) % keys * 64;
                let value = xorshift(&mut x) as u32;
                match xorshift(&mut x) % 3 {
                    0 => assert_eq!(t.insert(line, value), m.insert(line, value)),
                    1 => assert_eq!(t.remove(line), m.remove(&line)),
                    _ => assert_eq!(t.get(line), m.get(&line).copied()),
                }
                assert_eq!(t.len(), m.len());
                if op % 997 == 0 {
                    assert_chains_intact(&t);
                }
            }
            assert_chains_intact(&t);
            let mut got: Vec<_> = t.iter().collect();
            let mut want: Vec<_> = m.into_iter().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn backward_shift_handles_wrapped_chains() {
        // Lines whose home is the last slot of an 8-slot table: their
        // chain wraps to slot 0, and removing its head must pull the
        // wrapped entries back across the end of the array.
        let t = LineTable::with_capacity(0);
        let last: Vec<u64> = (0..).filter(|&l| t.home(l) == 7).take(3).collect();
        let first = (0..).find(|&l| t.home(l) == 0).unwrap();
        let mut t = LineTable::with_capacity(0);
        for (v, &l) in last.iter().enumerate() {
            t.insert(l, v as u32);
        }
        t.insert(first, 9);
        // Slots: 7 = last[0]; 0, 1 = last[1..] (wrapped); 2 = first.
        assert_eq!(t.slots[7].0, last[0] + 1);
        assert_eq!(t.slots[2].0, first + 1);
        assert_eq!(t.remove(last[0]), Some(0));
        assert_eq!(t.slots[7].0, last[1] + 1, "wrapped entry shifts back");
        assert_eq!(t.slots[1].0, first + 1, "entry homed at 0 shifts too");
        assert_chains_intact(&t);
        assert_eq!(t.get(last[2]), Some(2));
        assert_eq!(t.get(first), Some(9));
        assert_eq!(t.get(last[0]), None);
    }

    #[test]
    fn grows_past_three_quarters_and_presizes() {
        let mut t = LineTable::with_capacity(0);
        for l in 0..6 {
            t.insert(l, l as u32);
        }
        assert_eq!(t.slots.len(), 8);
        t.insert(6, 6);
        assert_eq!(t.slots.len(), 16);
        assert!((0..7).all(|l| t.get(l) == Some(l as u32)));
        let big = LineTable::with_capacity(3 << 10);
        assert_eq!(big.slots.len(), 4 << 10);
        let mut exact = LineTable::with_capacity(100);
        let before = exact.slots.len();
        (0..100).for_each(|l| assert_eq!(exact.insert(l, 1), None));
        assert_eq!(exact.slots.len(), before, "pre-sized table never grows");
    }

    #[test]
    fn sampled_lines_do_not_cluster() {
        // A table fed only the lines a sampling profiler keeps (GMON's
        // Fibonacci hash, SHARDS) or a VTB sends to one bank must still
        // spread them: a table hash correlated with the filtering hash
        // packs them into one region and lookups crawl through it.
        let gmon = |rate: u32| {
            let s = crate::SampledStack::new(rate, 1, 2);
            move |l: u64| s.sampled(l)
        };
        let shards = |l: u64| crate::shards::spatial_hash(l) < crate::SHARDS_MODULUS / 10;
        // The bucket hash of `wp_jigsaw::Vtb::lookup` (a crate above this
        // one); a bank holding 16 of its 128 buckets sees these lines.
        let vtb = |l: u64| {
            let mut h = l ^ (l >> 30);
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (h ^ (h >> 27)) & 127 < 16
        };
        let (gmon4, gmon8, gmon16) = (gmon(2), gmon(3), gmon(4));
        let filters: [(&str, &dyn Fn(u64) -> bool); 5] = [
            ("gmon 1/4", &gmon4),
            ("gmon 1/8", &gmon8),
            ("gmon 1/16", &gmon16),
            ("shards 1/10", &shards),
            ("vtb 1/8", &vtb),
        ];
        for (name, keep) in filters {
            // Dense and strided line ranges, as streaming and array
            // workloads have, into tables about 3/4 full.
            for stride in [1u64, 64, 4096, 65_536] {
                for lines in [12_000, 48_000] {
                    let mut t = LineTable::with_capacity(0);
                    for line in (0..).map(|i| i * stride).filter(|&l| keep(l)).take(lines) {
                        t.insert(line, 0);
                    }
                    let mean = mean_probe_len(&t);
                    assert!(
                        mean < 3.5,
                        "{name}, stride {stride}, {lines} lines: mean probe length {mean:.2}"
                    );
                }
            }
        }
    }

    #[test]
    fn update_touches_only_present_lines() {
        let mut t = LineTable::with_capacity(0);
        t.insert(5, 1);
        assert_eq!(t.update(5, 9), Some(1));
        assert_eq!(t.update(6, 9), None);
        assert_eq!((t.get(5), t.get(6), t.len()), (Some(9), None, 1));
    }

    #[test]
    fn fresh_table_is_all_zero_bytes() {
        let t = LineTable::with_capacity(1000);
        assert!(t.slots.iter().all(|&s| s == (0, 0)));
        assert!(t.is_empty() && t.get(0).is_none());
    }

    #[test]
    #[should_panic(expected = "not a valid line")]
    fn max_line_is_rejected() {
        LineTable::with_capacity(0).insert(u64::MAX, 1);
    }
}
