//! An exact-capacity LRU line store.
//!
//! # Layout
//!
//! There is no recency list. Each access takes the next *stamp*, a
//! counter that only grows, and the LRU order is the order of stamps:
//!
//! - A [`LineTable`] maps each resident line to the stamp of its last
//!   access: one open-addressed array of 16-byte slots, so finding a line
//!   reads one host cache line, whose address [`LruCache::prefetch`] can
//!   hint ahead of the access.
//! - `order[t]` is the line stamped `t`, a `Vec<u64>` that only grows
//!   until it is compacted. A stamp is *live* while its line is resident
//!   and has not been touched since; a bitset marks the live stamps.
//! - The LRU line is the lowest live stamp. No live stamp lies below the
//!   `oldest` cursor, so eviction scans the bitset forward from it, 64
//!   stamps a word, and the cursor never moves back between compactions.
//!
//! A hit is one table probe ([`LineTable::update`]), one bit cleared and
//! one push onto `order`. A miss evicts the first live stamp at or after
//! `oldest`, removes its line from the table and inserts the new one.
//! When `order` passes four times the resident lines (at least 256), it
//! is compacted: [`wp_mrc::rank_stamps`] renumbers each resident line's
//! stamp to its rank, a popcount over the live bits, in one pass over the
//! table, and `order` and the bitset shrink to exactly the resident
//! lines. Ranks keep the relative order of the stamps, so the LRU order
//! is exact through every compaction.
//!
//! # Memory
//!
//! A resident line costs its index slot, 21 to 43 bytes as the table's
//! load moves between 3/8 and 3/4, plus 8 to 32 bytes of `order` (one to
//! four stamps' worth) and up to half a byte of bitset: about 30 to 75
//! bytes. A partition holds at most its quota (plus, after a lazy shrink,
//! the excess still draining), so a VC costs at most about 75 KB of host
//! memory per 64 KB granule it is allocated, and the 4-core chip's
//! 12.5 MB of LLC about 15 MB.

use wp_mrc::{rank_stamps, LineTable};

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been inserted; `evicted` names the line
    /// displaced to make room, if the cache was full.
    Miss {
        /// Line evicted to make room (LRU victim), if any.
        evicted: Option<u64>,
    },
}

/// A fully-associative LRU cache over 64-bit line addresses with an exact
/// line capacity.
///
/// This is the model for a pool's slice of LLC capacity: Jigsaw/Whirlpool
/// enforce per-VC quotas with fine-grain partitioning (Vantage), which
/// approximates exactly this — an LRU-managed region of a fixed number of
/// lines. It is implemented as a stamp-ordered line store (see the module
/// docs): amortized O(1) access, insert, and evict, with no linked list
/// to chase. [`prefetch`](Self::prefetch) hints the index slot an
/// upcoming access will probe first.
#[derive(Debug, Clone)]
pub struct LruCache {
    /// Line → stamp of its last access.
    index: LineTable,
    /// `order[t]`: the line stamped `t` (stale unless `t` is live).
    order: Vec<u64>,
    /// Live stamps, bit `t % 64` of word `t / 64`; one word per 64
    /// entries of `order`.
    live: Vec<u64>,
    /// No live stamp lies below this one.
    oldest: usize,
    /// Per-word popcount prefix reused by compaction.
    ranks: Vec<u32>,
    capacity: usize,
}

impl LruCache {
    /// `order` is compacted once it reaches this multiple of the resident
    /// lines...
    const SLACK: usize = 4;
    /// ...or this many stamps, whichever is larger.
    const MIN_STAMPS: usize = 256;

    /// Creates an empty cache holding at most `capacity` lines.
    /// A zero-capacity cache is legal (everything misses, nothing inserts) —
    /// that is how a bypassed VC's residual footprint is modelled.
    pub fn new(capacity: usize) -> Self {
        Self {
            index: LineTable::new(),
            order: Vec::new(),
            live: Vec::new(),
            oldest: 0,
            ranks: Vec::new(),
            capacity,
        }
    }

    /// Current number of resident lines.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The line capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `addr` is resident (does not touch recency).
    pub fn contains(&self, addr: u64) -> bool {
        self.index.contains(addr)
    }

    /// Hints the host CPU to fetch the index slot an access to `addr`
    /// probes first. Purely a performance hint; no state changes.
    #[inline]
    pub fn prefetch(&self, addr: u64) {
        crate::prefetch_read(self.index.first_slot(addr));
    }

    /// Accesses `addr`: hit promotes to MRU; miss inserts at MRU, evicting
    /// the LRU line if at capacity. Zero-capacity caches always miss and
    /// never insert.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.maybe_compact();
        let stamp = self.order.len() as u32;
        if let Some(old) = self.index.update(addr, stamp) {
            self.kill(old);
            self.push(addr);
            return AccessOutcome::Hit;
        }
        if self.capacity == 0 {
            return AccessOutcome::Miss { evicted: None };
        }
        // Under lazy shrinking occupancy can exceed capacity; converge by
        // evicting until the insert fits.
        let mut evicted = None;
        while self.index.len() >= self.capacity {
            evicted = Some(self.evict_lru().expect("non-empty at capacity"));
        }
        // Evictions shrank the resident set, which may make `order` due.
        self.maybe_compact();
        self.index.insert(addr, self.order.len() as u32);
        self.push(addr);
        AccessOutcome::Miss { evicted }
    }

    /// Removes `addr` if resident; returns whether it was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        match self.index.remove(addr) {
            Some(stamp) => {
                self.kill(stamp);
                true
            }
            None => false,
        }
    }

    /// Evicts the LRU line, returning its address.
    pub fn evict_lru(&mut self) -> Option<u64> {
        if self.index.is_empty() {
            return None;
        }
        // The lowest live stamp at or after `oldest`; one exists while
        // any line is resident.
        let mut w = self.oldest / 64;
        let mut bits = self.live[w] & (u64::MAX << (self.oldest % 64));
        while bits == 0 {
            w += 1;
            bits = self.live[w];
        }
        let stamp = w * 64 + bits.trailing_zeros() as usize;
        self.live[w] &= !(1 << (stamp % 64));
        self.oldest = stamp + 1;
        let addr = self.order[stamp];
        self.index.remove(addr);
        Some(addr)
    }

    /// Changes the capacity; if shrinking, evicts LRU lines and returns
    /// them (the invalidations Jigsaw performs on reconfiguration).
    pub fn resize(&mut self, new_capacity: usize) -> Vec<u64> {
        self.capacity = new_capacity;
        let mut evicted = Vec::new();
        while self.index.len() > self.capacity {
            evicted.push(self.evict_lru().expect("len > capacity"));
        }
        evicted
    }

    /// Changes the capacity without evicting: excess lines drain on demand
    /// as insertions arrive (Vantage-style soft shrinking, which is how
    /// fine-grain partitioning converges to new quotas without an
    /// invalidation storm).
    pub fn resize_lazy(&mut self, new_capacity: usize) {
        self.capacity = new_capacity;
    }

    /// Drains every resident line (full invalidation), returning them,
    /// LRU first.
    pub fn drain(&mut self) -> Vec<u64> {
        let mut out: Vec<u64> = self.iter().collect();
        out.reverse();
        self.index = LineTable::new();
        self.order.clear();
        self.live.clear();
        self.oldest = 0;
        out
    }

    /// Iterates resident lines from MRU to LRU.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let floor = self.oldest / 64;
        (floor..self.live.len()).rev().flat_map(move |w| {
            let mut bits = self.live[w];
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = 63 - bits.leading_zeros() as usize;
                    bits &= !(1u64 << b);
                    self.order[w * 64 + b]
                })
            })
        })
    }

    /// Appends `addr` at the next stamp (the caller has set its index
    /// entry to that stamp) and marks it live.
    #[inline]
    fn push(&mut self, addr: u64) {
        let t = self.order.len();
        if t % 64 == 0 {
            self.live.push(0);
        }
        self.live[t / 64] |= 1 << (t % 64);
        self.order.push(addr);
    }

    /// Marks `stamp` dead.
    #[inline]
    fn kill(&mut self, stamp: u32) {
        let t = stamp as usize;
        self.live[t / 64] &= !(1 << (t % 64));
    }

    /// Compacts `order` to the resident lines, by rank, once it reaches
    /// [`SLACK`](Self::SLACK) times their number (at least
    /// [`MIN_STAMPS`](Self::MIN_STAMPS)). Stamps then stay below
    /// `max(MIN_STAMPS, SLACK · len) + 1`, so a `u32` holds them.
    #[inline]
    fn maybe_compact(&mut self) {
        if self.order.len() >= (Self::SLACK * self.index.len()).max(Self::MIN_STAMPS) {
            self.compact();
        }
    }

    #[cold]
    fn compact(&mut self) {
        assert!(
            self.index.len() < 1 << 30,
            "an LruCache holds fewer than 2^30 lines"
        );
        let n = rank_stamps(
            &mut self.index,
            &self.live,
            Some(&mut self.order),
            &mut self.ranks,
        );
        self.live.truncate(n.div_ceil(64));
        self.live.fill(u64::MAX);
        if n % 64 != 0 {
            self.live[n / 64] = (1 << (n % 64)) - 1;
        }
        self.oldest = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss_evict() {
        let mut c = LruCache::new(2);
        assert_eq!(c.access(10), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.access(20), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.access(10), AccessOutcome::Hit);
        assert_eq!(c.access(30), AccessOutcome::Miss { evicted: Some(20) });
        assert_eq!(c.len(), 2);
        assert!(c.contains(10) && c.contains(30) && !c.contains(20));
    }

    #[test]
    fn zero_capacity_never_inserts() {
        let mut c = LruCache::new(0);
        assert_eq!(c.access(1), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.access(1), AccessOutcome::Miss { evicted: None });
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_and_reaccess() {
        let mut c = LruCache::new(4);
        c.access(1);
        c.access(2);
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1));
        assert_eq!(c.access(1), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn shrink_evicts_lru_order() {
        let mut c = LruCache::new(4);
        for a in [1u64, 2, 3, 4] {
            c.access(a);
        }
        c.access(1); // 1 is now MRU; LRU order: 2, 3, 4
        let evicted = c.resize(2);
        assert_eq!(evicted, vec![2, 3]);
        assert!(c.contains(1) && c.contains(4));
    }

    #[test]
    fn grow_keeps_contents() {
        let mut c = LruCache::new(1);
        c.access(1);
        assert!(c.resize(8).is_empty());
        c.access(2);
        assert!(c.contains(1) && c.contains(2));
    }

    #[test]
    fn iter_is_mru_first() {
        let mut c = LruCache::new(3);
        for a in [5u64, 6, 7] {
            c.access(a);
        }
        c.access(6);
        let order: Vec<u64> = c.iter().collect();
        assert_eq!(order, vec![6, 7, 5]);
    }

    #[test]
    fn drain_empties() {
        let mut c = LruCache::new(3);
        for a in [1u64, 2, 3] {
            c.access(a);
        }
        let drained = c.drain();
        assert_eq!(drained.len(), 3);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_inclusion_property() {
        // A bigger LRU cache hits on a superset of accesses (stack property).
        let trace: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 37).collect();
        let mut small = LruCache::new(8);
        let mut big = LruCache::new(16);
        for &a in &trace {
            let hs = matches!(small.access(a), AccessOutcome::Hit);
            let hb = matches!(big.access(a), AccessOutcome::Hit);
            assert!(!hs || hb, "small hit but big missed — inclusion violated");
        }
    }

    /// The bound compaction keeps after every access: `order` holds at
    /// most `max(256, 4 · len)` stamps, with one bitset word per 64.
    fn assert_order_bounded(c: &LruCache, step: usize) {
        let bound = (LruCache::SLACK * c.len()).max(LruCache::MIN_STAMPS);
        assert!(
            c.order.len() <= bound,
            "{} stamps for {} lines at step {step}",
            c.order.len(),
            c.len()
        );
        assert_eq!(c.live.len(), c.order.len().div_ceil(64));
    }

    /// Exact LRU the obvious way: a deque, MRU at the front.
    #[derive(Clone)]
    struct DequeLru {
        lines: std::collections::VecDeque<u64>,
        capacity: usize,
    }

    impl DequeLru {
        fn new(capacity: usize) -> Self {
            Self {
                lines: Default::default(),
                capacity,
            }
        }

        fn position(&self, addr: u64) -> Option<usize> {
            self.lines.iter().position(|&a| a == addr)
        }

        fn access(&mut self, addr: u64) -> AccessOutcome {
            if let Some(i) = self.position(addr) {
                let a = self.lines.remove(i).unwrap();
                self.lines.push_front(a);
                return AccessOutcome::Hit;
            }
            if self.capacity == 0 {
                return AccessOutcome::Miss { evicted: None };
            }
            let mut evicted = None;
            while self.lines.len() >= self.capacity {
                evicted = self.lines.pop_back();
            }
            self.lines.push_front(addr);
            AccessOutcome::Miss { evicted }
        }

        fn invalidate(&mut self, addr: u64) -> bool {
            self.position(addr).map(|i| self.lines.remove(i)).is_some()
        }

        fn shrink_to_capacity(&mut self) -> Vec<u64> {
            let keep = self.capacity.min(self.lines.len());
            self.lines.drain(keep..).rev().collect()
        }
    }

    #[test]
    fn matches_a_deque_model_under_random_operations() {
        for seed in 3u64..7 {
            let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let capacity = (next() % 48) as usize;
            let mut c = LruCache::new(capacity);
            let mut m = DequeLru::new(capacity);
            let universe = 24 + next() % 96;
            for step in 0..20_000 {
                let r = next();
                let addr = (r >> 8) % universe;
                match r % 64 {
                    0 => {
                        let n = (next() % 64) as usize;
                        m.capacity = n;
                        assert_eq!(c.resize(n), m.shrink_to_capacity(), "resize at {step}");
                    }
                    1 => {
                        let n = (next() % 64) as usize;
                        c.resize_lazy(n);
                        m.capacity = n;
                    }
                    2 if r % 512 == 2 => {
                        let all: Vec<u64> = m.lines.drain(..).rev().collect();
                        assert_eq!(c.drain(), all, "drain at {step}");
                    }
                    3..=10 => assert_eq!(c.invalidate(addr), m.invalidate(addr)),
                    11 => assert_eq!(c.evict_lru(), m.lines.pop_back()),
                    _ => {
                        assert_eq!(c.access(addr), m.access(addr), "access at {step}");
                        assert_order_bounded(&c, step);
                    }
                }
                assert_eq!(c.len(), m.lines.len());
                assert_eq!(c.contains(addr), m.position(addr).is_some());
                if step % 64 == 0 {
                    assert!(c.iter().eq(m.lines.iter().copied()), "iter at {step}");
                }
            }
            assert!(c.iter().eq(m.lines.iter().copied()));
        }
    }

    #[test]
    fn long_hit_stretches_compact_without_reordering() {
        // Hit-only stretches grow `order` by one stamp per access and so
        // force compaction after compaction; `iter` and `drain` are
        // checked right after each one, where ranks replaced stamps.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for capacity in [1usize, 7, 64, 300, 1000] {
            let mut c = LruCache::new(capacity);
            let mut m = DequeLru::new(capacity);
            let mut compactions = 0;
            let mut step = 0;
            for _round in 0..4 {
                // Churn over twice the capacity: misses and evictions.
                for _ in 0..2 * capacity {
                    let addr = next(2 * capacity) as u64;
                    assert_eq!(c.access(addr), m.access(addr), "churn, {capacity} lines");
                    assert_order_bounded(&c, step);
                    step += 1;
                }
                let resident: Vec<u64> = m.lines.iter().copied().collect();
                for _ in 0..4 * LruCache::MIN_STAMPS + 12 * capacity {
                    let addr = resident[next(resident.len())];
                    let before = c.order.len();
                    assert_eq!(c.access(addr), AccessOutcome::Hit);
                    m.access(addr);
                    assert_order_bounded(&c, step);
                    step += 1;
                    if c.order.len() <= before {
                        compactions += 1;
                        assert!(
                            c.iter().eq(m.lines.iter().copied()),
                            "iter, {capacity} lines"
                        );
                        let (mut cc, mut mm) = (c.clone(), m.clone());
                        let all: Vec<u64> = mm.lines.drain(..).rev().collect();
                        assert_eq!(cc.drain(), all, "drain, {capacity} lines");
                        assert!(cc.is_empty() && cc.iter().next().is_none());
                        assert_eq!(cc.access(addr), AccessOutcome::Miss { evicted: None });
                    }
                }
            }
            assert!(
                compactions >= 8,
                "{capacity} lines: {compactions} compactions"
            );
            assert!(c.iter().eq(m.lines.iter().copied()));
            assert_eq!(
                c.resize(0),
                m.lines.iter().rev().copied().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn slot_reuse_after_heavy_churn() {
        let mut c = LruCache::new(4);
        for a in 0..10_000u64 {
            c.access(a);
        }
        assert_eq!(c.len(), 4);
        // The stamp log is compacted, not grown without bound.
        assert!(c.order.len() <= LruCache::MIN_STAMPS);
        assert_eq!(c.live.len(), c.order.len().div_ceil(64));
    }
}
