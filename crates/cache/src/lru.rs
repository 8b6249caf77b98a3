//! An exact-capacity LRU line store.
//!
//! # Layout
//!
//! Resident lines live in a slab of 16-byte nodes `{addr, prev, next}`
//! (`u32` links) that form a doubly-linked recency list, MRU first. A
//! [`LineTable`] indexes them by line: one open-addressed array of
//! 16-byte slots, so finding a line reads one host cache line, whose
//! address [`LruCache::prefetch`] can hint ahead of the access.
//!
//! # Memory
//!
//! A resident line costs its node plus its index slot: 37 to 59 bytes, as
//! the table's load moves between 3/8 and 3/4. A partition holds at most
//! its quota (plus, after a lazy shrink, the excess still draining), so a
//! VC costs at most about 60 KB of host memory per 64 KB granule it is
//! allocated, and the 4-core chip's 12.5 MB of LLC about 12 MB.

use wp_mrc::LineTable;

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
/// lines. It is implemented as a slab-backed doubly-linked list plus a
/// [`LineTable`] index (see the module docs), giving O(1) access, insert,
/// and evict. [`prefetch`](Self::prefetch) hints the index slot an
/// upcoming access will probe first.
#[derive(Debug, Clone)]
pub struct LruCache {
    /// Line → node slot.
    index: LineTable,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // MRU
    tail: u32, // LRU
    capacity: usize,
    /// Bimodal insertion (opt-in): once full, only 1-in-16 misses insert,
    /// so a cache smaller than a streaming working set retains a stable
    /// subset (BIP-style scan resistance; the sweep-cliff linearization
    /// Talus would provide). The NUCA runtime instead avoids unrealizable
    /// mid-cliff allocations at the sizing level (hull-vertex snapping),
    /// so VC partitions keep plain LRU.
    bimodal: bool,
    rng: u64,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    addr: u64,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

impl LruCache {
    /// Creates an empty cache holding at most `capacity` lines.
    /// A zero-capacity cache is legal (everything misses, nothing inserts) —
    /// that is how a bypassed VC's residual footprint is modelled.
    pub fn new(capacity: usize) -> Self {
        Self {
            index: LineTable::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            bimodal: false,
            rng: 0x9E37_79B9 ^ capacity as u64 | 1,
        }
    }

    /// Enables bimodal (Talus-style convexifying) insertion: once the cache
    /// is full, only one in 16 misses inserts. See the field docs.
    pub fn set_bimodal(&mut self, on: bool) {
        self.bimodal = on;
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
        if let Some(slot) = self.index.get(addr) {
            self.unlink(slot);
            self.push_front(slot);
            return AccessOutcome::Hit;
        }
        if self.capacity == 0 {
            return AccessOutcome::Miss { evicted: None };
        }
        // Bimodal insertion at capacity (BIP-style scan resistance).
        if self.bimodal && self.index.len() >= self.capacity {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            if self.rng % 16 != 0 {
                return AccessOutcome::Miss { evicted: None };
            }
        }
        // Under lazy shrinking occupancy can exceed capacity; converge by
        // evicting until the insert fits.
        let mut evicted = None;
        while self.index.len() >= self.capacity {
            evicted = Some(self.evict_lru().expect("non-empty at capacity"));
        }
        let slot = self.alloc(addr);
        self.push_front(slot);
        self.index.insert(addr, slot);
        AccessOutcome::Miss { evicted }
    }

    /// Removes `addr` if resident; returns whether it was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        match self.index.remove(addr) {
            Some(slot) => {
                self.unlink(slot);
                self.free.push(slot);
                true
            }
            None => false,
        }
    }

    /// Evicts the LRU line, returning its address.
    pub fn evict_lru(&mut self) -> Option<u64> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let addr = self.nodes[slot as usize].addr;
        self.unlink(slot);
        self.index.remove(addr);
        self.free.push(slot);
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

    /// Drains every resident line (full invalidation), returning them.
    pub fn drain(&mut self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.index.len());
        while let Some(a) = self.evict_lru() {
            out.push(a);
        }
        out
    }

    /// Iterates resident lines from MRU to LRU.
    pub fn iter(&self) -> LruIter<'_> {
        LruIter {
            cache: self,
            cursor: self.head,
        }
    }

    fn alloc(&mut self, addr: u64) -> u32 {
        let node = Node {
            addr,
            prev: NIL,
            next: NIL,
        };
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            assert!(
                self.nodes.len() < NIL as usize,
                "an LruCache holds fewer than 2^32 - 1 lines"
            );
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn push_front(&mut self, slot: u32) {
        let head = self.head;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = head;
        if head != NIL {
            self.nodes[head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = NIL;
    }
}

/// Iterator over resident lines, MRU first. Created by [`LruCache::iter`].
#[derive(Debug)]
pub struct LruIter<'a> {
    cache: &'a LruCache,
    cursor: u32,
}

impl Iterator for LruIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.cursor == NIL {
            return None;
        }
        let node = self.cache.nodes[self.cursor as usize];
        self.cursor = node.next;
        Some(node.addr)
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

    #[test]
    fn bimodal_linearizes_the_sweep_cliff() {
        // Cyclic sweep of 2N lines over an N-line cache: plain LRU gets 0
        // hits; bimodal retains a stable subset and hits ~N/2N = 50%.
        let n = 4096;
        let mut plain = LruCache::new(n);
        let mut talus = LruCache::new(n);
        talus.set_bimodal(true);
        let mut hits_plain = 0;
        let mut hits_talus = 0;
        for rep in 0..40u64 {
            for a in 0..(2 * n as u64) {
                if matches!(plain.access(a), AccessOutcome::Hit) {
                    hits_plain += 1;
                }
                if matches!(talus.access(a), AccessOutcome::Hit) {
                    hits_talus += 1;
                }
            }
            let _ = rep;
        }
        assert_eq!(hits_plain, 0, "LRU must cliff on the sweep");
        let ratio = hits_talus as f64 / (40.0 * 2.0 * n as f64);
        assert!(
            (ratio - 0.5).abs() < 0.1,
            "bimodal should approach the hull hit rate, got {ratio:.3}"
        );
    }

    /// Exact LRU the obvious way: a deque, MRU at the front, with the
    /// same bimodal insertion rule and random stream as [`LruCache`].
    struct DequeLru {
        lines: std::collections::VecDeque<u64>,
        capacity: usize,
        bimodal: bool,
        rng: u64,
    }

    impl DequeLru {
        fn new(capacity: usize, bimodal: bool) -> Self {
            Self {
                lines: Default::default(),
                capacity,
                bimodal,
                rng: 0x9E37_79B9 ^ capacity as u64 | 1,
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
            if self.bimodal && self.lines.len() >= self.capacity {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                if self.rng % 16 != 0 {
                    return AccessOutcome::Miss { evicted: None };
                }
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
        for (seed, bimodal) in [(3u64, false), (4, true), (5, false), (6, true)] {
            let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let capacity = (next() % 48) as usize;
            let mut c = LruCache::new(capacity);
            c.set_bimodal(bimodal);
            let mut m = DequeLru::new(capacity, bimodal);
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
                    _ => assert_eq!(c.access(addr), m.access(addr), "access at {step}"),
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
    fn slot_reuse_after_heavy_churn() {
        let mut c = LruCache::new(4);
        for a in 0..10_000u64 {
            c.access(a);
        }
        assert_eq!(c.len(), 4);
        // Slab should not have grown unboundedly: free-list reuse.
        assert!(c.nodes.len() <= 16);
    }
}
