//! An exact-capacity LRU line store: a capacity and an
//! [`AccessOutcome`] over [`wp_mrc::StampLru`], the one stamp-ordered LRU
//! store of the workspace, which also holds the GMON and profiler stacks.
//!
//! # Layout
//!
//! The store keeps the order log, to evict the LRU line, and no rank tree,
//! so an access does no distance counting. A hit is one table probe
//! ([`LineTable::update`](wp_mrc::LineTable::update)), one bit cleared
//! and one stamp pushed. A miss evicts from the `oldest` cursor, a word of
//! the live-stamp bitset at a time, until the insert fits, then inserts.
//! The store compacts its stamps to ranks once they reach four times the
//! resident lines (at least 256), and ranks keep the LRU order exact.
//!
//! # Memory
//!
//! A resident line costs its index slot, 21 to 43 bytes as the table's
//! load moves between 3/8 and 3/4, plus 8 to 32 bytes of order log (one to
//! four stamps' worth) and up to half a byte of bitset: about 30 to 75
//! bytes. A partition holds at most its quota (plus, after a lazy shrink,
//! the excess still draining), so a VC costs at most about 75 KB of host
//! memory per 64 KB granule it is allocated, and the 4-core chip's
//! 12.5 MB of LLC about 15 MB.

use wp_mrc::StampLru;

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
/// lines. It is a stamp-ordered line store (see the module docs):
/// amortized O(1) access, insert, and evict, with no linked list to
/// chase. [`prefetch`](Self::prefetch) hints the index slot an upcoming
/// access will probe first.
#[derive(Debug, Clone)]
pub struct LruCache {
    lines: StampLru<true, false>,
    capacity: usize,
}

impl LruCache {
    /// Creates an empty cache holding at most `capacity` lines.
    /// A zero-capacity cache is legal (everything misses, nothing inserts) —
    /// that is how a bypassed VC's residual footprint is modelled.
    pub fn new(capacity: usize) -> Self {
        Self {
            lines: StampLru::with_capacity(0),
            capacity,
        }
    }

    /// Current number of resident lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The line capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hints the host CPU to fetch the index slot an access to `addr`
    /// probes first. Purely a performance hint; no state changes.
    #[inline]
    pub fn prefetch(&self, addr: u64) {
        crate::prefetch_read(self.lines.first_slot(addr));
    }

    /// Accesses `addr`: hit promotes to MRU; miss inserts at MRU, evicting
    /// the LRU line if at capacity. Zero-capacity caches always miss and
    /// never insert.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        if self.lines.hit(addr) {
            return AccessOutcome::Hit;
        }
        if self.capacity == 0 {
            return AccessOutcome::Miss { evicted: None };
        }
        // Under lazy shrinking occupancy can exceed capacity; converge by
        // evicting until the insert fits.
        let mut evicted = None;
        while self.lines.len() >= self.capacity {
            evicted = self.lines.evict_oldest();
        }
        self.lines.insert(addr);
        AccessOutcome::Miss { evicted }
    }

    /// Evicts the LRU line, returning its address.
    pub fn evict_lru(&mut self) -> Option<u64> {
        self.lines.evict_oldest()
    }

    /// Changes the capacity; if shrinking, evicts LRU lines (the
    /// invalidations Jigsaw performs on reconfiguration) and returns how
    /// many.
    pub fn resize(&mut self, new_capacity: usize) -> usize {
        self.capacity = new_capacity;
        let excess = self.len().saturating_sub(new_capacity);
        for _ in 0..excess {
            self.lines.evict_oldest();
        }
        excess
    }

    /// Changes the capacity without evicting: excess lines drain on demand
    /// as insertions arrive (Vantage-style soft shrinking, which is how
    /// fine-grain partitioning converges to new quotas without an
    /// invalidation storm).
    pub fn resize_lazy(&mut self, new_capacity: usize) {
        self.capacity = new_capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The resident lines, LRU first, read by evicting from a clone.
    fn lru_order(c: &LruCache) -> Vec<u64> {
        let mut c = c.clone();
        std::iter::from_fn(|| c.evict_lru()).collect()
    }

    #[test]
    fn basic_hit_miss_evict() {
        let mut c = LruCache::new(2);
        assert_eq!(c.access(10), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.access(20), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.access(10), AccessOutcome::Hit);
        assert_eq!(c.access(30), AccessOutcome::Miss { evicted: Some(20) });
        assert_eq!(c.len(), 2);
        assert_eq!(lru_order(&c), vec![10, 30]);
    }

    #[test]
    fn zero_capacity_never_inserts() {
        let mut c = LruCache::new(0);
        assert_eq!(c.access(1), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.access(1), AccessOutcome::Miss { evicted: None });
        assert!(c.is_empty());
    }

    #[test]
    fn shrink_evicts_lru_order() {
        let mut c = LruCache::new(4);
        for a in [1u64, 2, 3, 4] {
            c.access(a);
        }
        c.access(1); // 1 is now MRU; LRU order: 2, 3, 4
        assert_eq!(lru_order(&c), vec![2, 3, 4, 1]);
        assert_eq!(c.resize(2), 2);
        assert_eq!(lru_order(&c), vec![4, 1]);
    }

    #[test]
    fn grow_keeps_contents() {
        let mut c = LruCache::new(1);
        c.access(1);
        assert_eq!(c.resize(8), 0);
        c.access(2);
        assert_eq!(lru_order(&c), vec![1, 2]);
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
                        let shed = m.shrink_to_capacity().len();
                        assert_eq!(c.resize(n), shed, "resize at {step}");
                    }
                    1 => {
                        let n = (next() % 64) as usize;
                        c.resize_lazy(n);
                        m.capacity = n;
                    }
                    2..=10 => assert_eq!(c.evict_lru(), m.lines.pop_back()),
                    _ => assert_eq!(c.access(addr), m.access(addr), "access at {step}"),
                }
                assert_eq!(c.len(), m.lines.len());
                if step % 64 == 0 {
                    assert!(
                        lru_order(&c).iter().eq(m.lines.iter().rev()),
                        "order at {step}"
                    );
                }
            }
            assert!(lru_order(&c).iter().eq(m.lines.iter().rev()));
        }
    }
}
