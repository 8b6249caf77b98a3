//! The one stamp-ordered LRU store: under the bank partitions
//! (`wp_cache::LruCache`), the GMON monitors ([`SampledStack`]) and the
//! trace profilers ([`MattsonStack`], [`ShardsStack`]).
//!
//! [`SampledStack`]: crate::SampledStack
//! [`MattsonStack`]: crate::MattsonStack
//! [`ShardsStack`]: crate::ShardsStack

use crate::linetable::LineTable;

/// An LRU stack of line addresses, ordered by access stamps.
///
/// Each access takes the next *stamp*, and the LRU order is the order of
/// stamps; there is no recency list:
///
/// - a [`LineTable`] maps each resident line to its last stamp, so a lookup
///   reads one host cache line ([`first_slot`](Self::first_slot) names it
///   for a prefetch hint);
/// - a bitset marks the *live* stamps, one per resident line, 64 to a word;
/// - the *order log* (`ORDER`) names the line at each stamp, so
///   [`evict_oldest`](StampLru::evict_oldest) scans the bitset a word at a
///   time from a cursor below which no stamp is live;
/// - the *rank tree* (`RANKS`), a Fenwick tree over the words' popcounts,
///   counts the live stamps at or below a stamp in one tree walk and one
///   masked popcount, which gives [`touch`](StampLru::touch) its stack
///   distance. A new word's node is summed from the nodes it covers, so
///   the tree grows with the bitset.
///
/// Once the stamps reach `max(256, 4 · len)`, the next access compacts
/// them: each resident line's stamp becomes its rank, a popcount over the
/// bitset, in one pass over the table, and the bitset, log and tree shrink
/// to the resident lines. Ranks keep the order of the stamps, so the LRU
/// order and every distance stay exact, and a `u32` holds every stamp.
///
/// Each user keeps only the parts it reads. The parts are the type, so a
/// store compiles away the upkeep of the parts it lacks:
///
/// | user | type |
/// |---|---|
/// | `LruCache` (bank partitions) | `StampLru<true, false>` |
/// | `SampledStack` (GMON) | `StampLru<true, true>` |
/// | `MattsonStack`, `ShardsStack` | `StampLru<false, true>` |
///
/// A resident line costs its table slot (21 to 43 bytes, as the load moves
/// between 3/8 and 3/4) and one to four stamps: up to half a byte of
/// bitset, 8 to 32 bytes of order log and a quarter byte of tree.
#[derive(Debug, Clone)]
pub struct StampLru<const ORDER: bool, const RANKS: bool> {
    /// Line → stamp of its last access.
    index: LineTable,
    /// Live stamps: bit `t % 64` of word `t / 64`, one word per 64 stamps
    /// issued since the last compaction.
    live: Vec<u64>,
    /// `order[t]`: the line stamped `t` (stale unless `t` is live); empty
    /// unless `ORDER`.
    order: Vec<u64>,
    /// 1-based Fenwick tree over `live[w].count_ones()`, one node per word
    /// after a dummy `tree[0]`; empty unless `RANKS`.
    tree: Vec<u32>,
    /// The next stamp, unless `ORDER`: then it is the log's length.
    time: usize,
    /// No live stamp lies below this one.
    oldest: usize,
    /// Per-word popcount prefix reused by compaction.
    ranks: Vec<u32>,
    /// Times the bitset outgrew its buffer.
    reallocations: u64,
}

impl<const ORDER: bool, const RANKS: bool> StampLru<ORDER, RANKS> {
    /// Stamps are compacted once they reach this multiple of the resident
    /// lines...
    const SLACK: usize = 4;
    /// ...or this many, whichever is larger.
    const FLOOR: usize = 256;

    /// An empty store, sized so that holding up to `lines` resident lines
    /// reallocates neither its table nor its bitset, tree and log
    /// ([`reallocations`](Self::reallocations) stays 0).
    pub fn with_capacity(lines: usize) -> Self {
        let stamps = (Self::SLACK * lines).max(Self::FLOOR);
        let words = stamps.div_ceil(64);
        let mut tree = Vec::new();
        if RANKS {
            tree.reserve(words + 1);
            tree.push(0);
        }
        Self {
            index: LineTable::with_capacity(lines),
            live: Vec::with_capacity(words),
            order: Vec::with_capacity(if ORDER { stamps } else { 0 }),
            tree,
            time: 0,
            oldest: 0,
            ranks: Vec::with_capacity(words),
            reallocations: 0,
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The table slot an access to `line` probes first, for a prefetch
    /// hint (`wp_cache::prefetch_read`). Nothing is read through it.
    #[inline]
    pub fn first_slot(&self, line: u64) -> &impl Sized {
        self.index.first_slot(line)
    }

    /// Times the stamp bitset outgrew its buffer so far.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// Makes `line` the most recently used if it is resident; returns
    /// whether it was.
    #[inline]
    pub fn hit(&mut self, line: u64) -> bool {
        self.maybe_compact();
        match self.index.update(line, self.time() as u32) {
            Some(old) => {
                self.kill(old as usize);
                self.push(line);
                true
            }
            None => false,
        }
    }

    /// Adds `line`, which is not resident, as the most recently used.
    #[inline]
    pub fn insert(&mut self, line: u64) {
        self.maybe_compact();
        let old = self.index.insert(line, self.time() as u32);
        debug_assert!(old.is_none(), "line {line} was resident");
        self.push(line);
    }

    /// Forgets `line`; returns whether it was resident.
    pub fn remove(&mut self, line: u64) -> bool {
        self.index
            .remove(line)
            .map(|old| self.kill(old as usize))
            .is_some()
    }

    /// Live stamps at or below `t`.
    #[inline]
    fn rank(&self, t: usize) -> u64 {
        let mut w = t / 64;
        let mut n = u64::from((self.live[w] & (u64::MAX >> (63 - t % 64))).count_ones());
        while w > 0 {
            n += u64::from(self.tree[w]);
            w -= w & w.wrapping_neg();
        }
        n
    }

    /// Adds `delta` (wrapping, so `u32::MAX` subtracts one) to the tree
    /// nodes that cover stamp `t`.
    #[inline]
    fn count(&mut self, t: usize, delta: u32) {
        let mut w = t / 64 + 1;
        while RANKS && w < self.tree.len() {
            self.tree[w] = self.tree[w].wrapping_add(delta);
            w += w & w.wrapping_neg();
        }
    }

    /// Marks stamp `t` dead.
    #[inline]
    fn kill(&mut self, t: usize) {
        self.live[t / 64] &= !(1 << (t % 64));
        self.count(t, u32::MAX);
    }

    /// Gives `line` (whose table entry holds the stamp) the next stamp and
    /// marks it live.
    #[inline]
    fn push(&mut self, line: u64) {
        let t = self.time();
        if t % 64 == 0 {
            self.open_word();
        }
        self.live[t / 64] |= 1 << (t % 64);
        self.count(t, 1);
        if ORDER {
            self.order.push(line);
        } else {
            self.time = t + 1;
        }
    }

    /// The next stamp: the length of the order log where there is one.
    #[inline]
    fn time(&self) -> usize {
        if ORDER {
            self.order.len()
        } else {
            self.time
        }
    }

    /// Appends the bitset word of the next 64 stamps, and its tree node.
    #[cold]
    fn open_word(&mut self) {
        self.reallocations += u64::from(self.live.len() == self.live.capacity());
        self.live.push(0);
        if RANKS {
            self.push_node();
        }
    }

    /// Appends the tree node of the last bitset word: its popcount plus
    /// the nodes that cover the rest of its range.
    fn push_node(&mut self) {
        let w = self.tree.len();
        let mut sum = self.live[w - 1].count_ones();
        let mut k = 1;
        while k < w & w.wrapping_neg() {
            sum += self.tree[w - k];
            k *= 2;
        }
        self.tree.push(sum);
    }

    #[inline]
    fn maybe_compact(&mut self) {
        if self.time() >= (Self::SLACK * self.len()).max(Self::FLOOR) {
            self.compact();
        }
    }

    /// Renumbers every resident line's stamp to its rank, the number of
    /// live stamps below it: a per-word popcount prefix, applied with
    /// [`LineTable::map_values`]. The order log is compacted in place to
    /// the live lines, oldest first, so `order[rank]` is the line of that
    /// rank; the bitset then marks exactly `0..len` and the tree is summed
    /// again from it. Steady-state compaction allocates nothing.
    #[cold]
    fn compact(&mut self) {
        assert!(
            self.len() < 1 << 30,
            "a StampLru holds fewer than 2^30 lines"
        );
        self.ranks.clear();
        let mut n = 0u32;
        for &word in &self.live {
            self.ranks.push(n);
            n += word.count_ones();
        }
        let (live, ranks) = (&self.live, &self.ranks);
        self.index.map_values(|t| {
            let (w, b) = (t as usize / 64, t % 64);
            ranks[w] + (live[w] & ((1u64 << b) - 1)).count_ones()
        });
        let n = n as usize;
        debug_assert_eq!(n, self.len(), "one live stamp per resident line");
        if ORDER {
            let mut k = 0;
            for (w, &word) in self.live.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    self.order[k] = self.order[w * 64 + bits.trailing_zeros() as usize];
                    k += 1;
                    bits &= bits - 1;
                }
            }
            self.order.truncate(k);
        }
        self.live.truncate(n.div_ceil(64));
        self.live.fill(u64::MAX);
        if n % 64 != 0 {
            self.live[n / 64] = (1 << (n % 64)) - 1;
        }
        if RANKS {
            self.tree.truncate(1);
            (0..self.live.len()).for_each(|_| self.push_node());
        }
        self.time = n;
        self.oldest = 0;
    }
}

impl<const ORDER: bool> StampLru<ORDER, true> {
    /// Makes `line` the most recently used and returns its stack distance:
    /// the distinct lines accessed since its last access, itself included
    /// (`None` if it was not resident; it is now).
    #[inline]
    pub fn touch(&mut self, line: u64) -> Option<u64> {
        self.maybe_compact();
        let dist = self.index.insert(line, self.time() as u32).map(|old| {
            // Every resident line's stamp is below the new one, so the
            // lines accessed after `old` are the resident lines less those
            // at or below it (this line included).
            let after = self.len() as u64 - self.rank(old as usize);
            self.kill(old as usize);
            after + 1
        });
        self.push(line);
        dist
    }
}

impl<const RANKS: bool> StampLru<true, RANKS> {
    /// Evicts the least recently used line, returning it.
    #[inline]
    pub fn evict_oldest(&mut self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        // The lowest live stamp at or after `oldest`; one exists while any
        // line is resident.
        let mut w = self.oldest / 64;
        let mut bits = self.live[w] & (u64::MAX << (self.oldest % 64));
        while bits == 0 {
            w += 1;
            bits = self.live[w];
        }
        let t = w * 64 + bits.trailing_zeros() as usize;
        self.kill(t);
        self.oldest = t + 1;
        let line = self.order[t];
        self.index.remove(line);
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Checks a store against a naive LRU stack (MRU first, distance =
    /// position + 1) under random touch, remove and evict-oldest
    /// operations, with hit-only stretches that force compaction after
    /// compaction. `touch` and `evict` are the store's own where its type
    /// has them.
    fn check_against_a_deque<const ORDER: bool, const RANKS: bool>(
        mut s: StampLru<ORDER, RANKS>,
        touch: Option<fn(&mut StampLru<ORDER, RANKS>, u64) -> Option<u64>>,
        evict: Option<fn(&mut StampLru<ORDER, RANKS>) -> Option<u64>>,
        seed: u64,
    ) {
        let mut m: VecDeque<u64> = VecDeque::new();
        let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut compactions = 0;
        for round in 0..6 {
            let universe = [16, 90, 700][round % 3];
            for step in 0..3_000 {
                // Churn, then a stretch of hits on resident lines only.
                let line = match m.len() {
                    n if step >= 1_000 && n > 0 => m[next(n as u64) as usize],
                    _ => next(universe) * 64,
                };
                let time = s.time();
                match next(32) {
                    0 if step < 1_000 => {
                        assert_eq!(s.remove(line), m.contains(&line));
                        m.retain(|&l| l != line);
                    }
                    1 if step < 1_000 && evict.is_some() => {
                        assert_eq!(evict.unwrap()(&mut s), m.pop_back());
                    }
                    _ => {
                        let at = m.iter().position(|&l| l == line);
                        if let Some(touch) = touch {
                            assert_eq!(touch(&mut s, line), at.map(|p| p as u64 + 1));
                        } else if !s.hit(line) {
                            assert_eq!(at, None);
                            s.insert(line);
                        }
                        m.retain(|&l| l != line);
                        m.push_front(line);
                        assert!(s.time() <= (4 * s.len()).max(256), "compaction bound");
                    }
                }
                assert_eq!(s.len(), m.len());
                assert_eq!(s.live.len(), s.time().div_ceil(64));
                assert_eq!(s.tree.len(), if RANKS { s.live.len() + 1 } else { 0 });
                assert!(ORDER || s.order.is_empty());
                let compacted = s.time() < time;
                compactions += usize::from(compacted);
                if compacted || step % 128 == 0 {
                    // Stamps rise in LRU order; right after a compaction
                    // they are the ranks, but for the one the access killed.
                    let lru_first = m.iter().rev();
                    let stamps: Vec<usize> = lru_first
                        .clone()
                        .map(|&l| s.index.get(l).expect("resident") as usize)
                        .collect();
                    assert!(stamps.windows(2).all(|w| w[0] < w[1]), "LRU order");
                    assert!(!compacted || s.time() <= s.len() + 1, "ranks");
                    for (p, (&t, &l)) in stamps.iter().zip(lru_first).enumerate() {
                        assert!(!RANKS || s.rank(t) == p as u64 + 1, "rank tree at {t}");
                        assert!(!ORDER || s.order[t] == l, "order log at {t}");
                    }
                }
            }
        }
        assert!(compactions >= 8, "{compactions} compactions");
        while let Some(l) = evict.and_then(|evict| evict(&mut s)) {
            assert_eq!(Some(l), m.pop_back());
        }
        assert_eq!(s.len(), m.len());
    }

    #[test]
    fn each_set_of_parts_matches_a_deque() {
        for (seed, lines) in [(1, 0), (2, 40), (3, 700)] {
            // The bank partitions', the GMON's and the profilers' parts.
            let (cache, gmon) = (StampLru::with_capacity(0), StampLru::with_capacity(0));
            let profiler = StampLru::<false, true>::with_capacity(lines);
            check_against_a_deque::<true, false>(cache, None, Some(StampLru::evict_oldest), seed);
            let (touch, evict) = (StampLru::touch, StampLru::evict_oldest);
            check_against_a_deque::<true, true>(gmon, Some(touch), Some(evict), seed);
            check_against_a_deque(profiler, Some(StampLru::touch), None, seed);
        }
    }
}
