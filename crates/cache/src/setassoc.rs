//! Set-associative cache with pluggable replacement.

use crate::lru::AccessOutcome;
use crate::policy::ReplacementPolicy;

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines displaced by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (zero when idle).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative cache over line addresses.
///
/// Models the private L1/L2 caches and the S-NUCA LLC banks (Table 3).
/// The line address is mapped to a set with a mixing hash so that strided
/// workloads do not alias pathologically (the paper's LLC uses hashed
/// zcache banks; see DESIGN.md for the associativity substitution).
#[derive(Debug)]
pub struct SetAssocCache<P: ReplacementPolicy> {
    /// Packed tag slab, `sets × ways`, validity tracked in [`Self::valid`].
    /// `Vec<Option<u64>>` would double this to 16 B per entry; at LLC scale
    /// the slab is tens of MB probed in hash-scattered order, so halving it
    /// halves the host cache lines touched per simulated access.
    tags: Vec<u64>,
    /// One validity bitmask per set (bit `w` = way `w` holds a line).
    valid: Vec<u64>,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two (every LLC bank and
    /// private cache here), so mapping a set is a mask, not a division.
    set_mask: Option<u64>,
    ways: usize,
    policy: P,
    stats: CacheStats,
}

impl<P: ReplacementPolicy> SetAssocCache<P> {
    /// Creates a cache with `sets × ways` lines using `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize, mut policy: P) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have sets and ways");
        assert!(ways <= 64, "validity bitmask holds at most 64 ways");
        policy.configure(sets, ways);
        // Reserve, advise huge pages, then touch: LLC-sized tag slabs on
        // 4 KB pages thrash the host TLB (see `advise_hugepages`).
        let mut tags = Vec::with_capacity(sets * ways);
        crate::advise_hugepages(&mut tags);
        tags.resize(sets * ways, 0);
        Self {
            tags,
            valid: vec![0; sets],
            sets,
            set_mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            ways,
            policy,
            stats: CacheStats::default(),
        }
    }

    /// Builds a cache from a byte capacity (64 B lines).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways` lines.
    pub fn with_capacity_bytes(bytes: u64, ways: usize, policy: P) -> Self {
        let lines = (bytes / 64) as usize;
        assert!(
            lines % ways == 0,
            "capacity {bytes} B is not a whole number of {ways}-way sets"
        );
        Self::new(lines / ways, ways, policy)
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        let mut x = addr;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        match self.set_mask {
            Some(mask) => (x & mask) as usize,
            None => (x % self.sets as u64) as usize,
        }
    }

    /// Bit `w` set iff way `w` of the set at `base` holds tag `addr`,
    /// valid or not. A 16-way set (every LLC bank) is compared as one
    /// fixed-width array, which the compiler unrolls into straight-line
    /// SIMD compares; other widths compare way by way.
    #[inline]
    fn tag_matches(&self, base: usize, addr: u64) -> u64 {
        let mut m = 0u64;
        if let Ok(set) = <&[u64; 16]>::try_from(&self.tags[base..base + self.ways]) {
            for (w, &tag) in set.iter().enumerate() {
                m |= u64::from(tag == addr) << w;
            }
        } else {
            for w in 0..self.ways {
                m |= u64::from(self.tags[base + w] == addr) << w;
            }
        }
        m
    }

    /// Accesses `addr`; on a miss the line is filled (possibly evicting).
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        let set = self.set_of(addr);
        let base = set * self.ways;
        let v = self.valid[set];
        // Branchless probe: compare every way, then mask out stale tags in
        // invalidated ways. Lowest valid match, as a linear scan would
        // find.
        let m = self.tag_matches(base, addr);
        if m & v != 0 {
            let w = (m & v).trailing_zeros() as usize;
            self.policy.on_hit(set, w);
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }
        self.stats.misses += 1;
        // Fill: lowest free way if any, else policy victim.
        let free = (!v).trailing_zeros() as usize;
        let (way, evicted) = if free < self.ways {
            (free, None)
        } else {
            let w = self.policy.victim(set);
            debug_assert!(w < self.ways);
            let old = self.tags[base + w];
            self.stats.evictions += 1;
            (w, Some(old))
        };
        self.tags[base + way] = addr;
        self.valid[set] = v | (1u64 << way);
        self.policy.on_insert(set, way);
        AccessOutcome::Miss { evicted }
    }

    /// Hints the host to pull `addr`'s set — tag slab and replacement
    /// state — toward L1 ahead of a future [`access`](Self::access). A
    /// pure performance hint: changes nothing observable. Batched scheme
    /// loops issue this for event `i + k` while serving event `i`; the
    /// arrays are tens of MB and hash-scattered, so the host-cache miss
    /// is otherwise on the critical path of every simulated access.
    pub fn prefetch(&self, addr: u64) {
        let set = self.set_of(addr);
        let base = set * self.ways;
        // Packed `u64` tags are 8 B each: a 16-way set spans two 64 B
        // lines. Hint every line of the span.
        let mut w = 0;
        while w < self.ways {
            crate::prefetch_read(&self.tags[base + w]);
            w += 8;
        }
        self.policy.prefetch(set);
    }

    /// Checks residency without touching replacement state.
    pub fn contains(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        self.tag_matches(set * self.ways, addr) & self.valid[set] != 0
    }

    /// Invalidates `addr` if resident; returns whether it was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let v = self.valid[set];
        let m = self.tag_matches(set * self.ways, addr) & v;
        if m == 0 {
            return false;
        }
        let w = m.trailing_zeros() as usize;
        self.valid[set] = v & !(1u64 << w);
        self.policy.on_invalidate(set, w);
        true
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.valid.iter().all(|&v| v == 0)
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::reference::SerialLru;
    use crate::policy::{DrripPolicy, LruPolicy};
    use proptest::prelude::*;

    /// The probe before the set mask and the fixed-width compare: set by
    /// `%`, then one tag compare per way. Returns the set and the ways
    /// whose tag is `addr`, valid or not.
    fn reference_probe<P: ReplacementPolicy>(c: &SetAssocCache<P>, addr: u64) -> (usize, u64) {
        let mut x = addr;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        let set = (x % c.sets as u64) as usize;
        let mut m = 0u64;
        for w in 0..c.ways {
            if c.tags[set * c.ways + w] == addr {
                m |= 1 << w;
            }
        }
        (set, m)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn probe_and_lru_order_match_the_serial_references(
            seed in 0u64..u64::MAX,
            shape in 0usize..6,
        ) {
            // 16, 8 and 4 ways over power-of-two set counts, then set
            // counts that are not (so `%` stays the mapping).
            let (sets, ways) = [(64, 16), (32, 8), (64, 4), (48, 16), (3, 8), (5, 4)][shape];
            let mut c = SetAssocCache::new(sets, ways, LruPolicy::new());
            let mut r = SetAssocCache::new(sets, ways, SerialLru::default());
            let universe = (sets * ways * 2) as u64;
            let mut x = seed | 1;
            for step in 0..3000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = (x >> 8) % universe;
                let (set, m) = reference_probe(&c, addr);
                prop_assert_eq!(c.set_of(addr), set, "set at step {}", step);
                prop_assert_eq!(c.tag_matches(set * ways, addr), m, "probe at step {}", step);
                match x % 16 {
                    0 => prop_assert_eq!(c.invalidate(addr), r.invalidate(addr)),
                    1 => prop_assert_eq!(c.contains(addr), r.contains(addr)),
                    _ => prop_assert_eq!(c.access(addr), r.access(addr), "access at step {}", step),
                }
                prop_assert_eq!(c.policy.order(set), r.policy.order[set], "order at step {}", step);
            }
            prop_assert_eq!(c.stats(), r.stats());
            prop_assert_eq!(&c.tags, &r.tags);
            prop_assert_eq!(&c.valid, &r.valid);
        }
    }

    #[test]
    fn fills_free_ways_before_evicting() {
        let mut c = SetAssocCache::new(1, 4, LruPolicy::new());
        for a in 0..4u64 {
            assert_eq!(c.access(a), AccessOutcome::Miss { evicted: None });
        }
        assert_eq!(c.len(), 4);
        let out = c.access(4);
        assert!(matches!(out, AccessOutcome::Miss { evicted: Some(_) }));
    }

    #[test]
    fn lru_within_set() {
        // One set: every address maps to it.
        let mut c = SetAssocCache::new(1, 2, LruPolicy::new());
        c.access(0);
        c.access(1);
        c.access(0); // 1 is LRU
        assert_eq!(c.access(2), AccessOutcome::Miss { evicted: Some(1) });
    }

    #[test]
    fn sets_isolate_conflicts() {
        let mut c = SetAssocCache::new(2, 1, LruPolicy::new());
        // Three addresses picked by their hashed set: `a` and `b` share
        // one set, `other` sits in the other.
        let set0: Vec<u64> = (0u64..).filter(|&x| c.set_of(x) == 0).take(2).collect();
        let (a, b) = (set0[0], set0[1]);
        let other = (0u64..).find(|&x| c.set_of(x) == 1).unwrap();
        c.access(a);
        c.access(other);
        assert!(c.contains(a) && c.contains(other));
        // `b` conflicts with `a` only.
        assert_eq!(c.access(b), AccessOutcome::Miss { evicted: Some(a) });
        assert!(c.contains(other));
    }

    #[test]
    fn capacity_bytes_constructor() {
        let c = SetAssocCache::with_capacity_bytes(32 * 1024, 8, LruPolicy::new());
        assert_eq!(c.capacity(), 512); // 32 KB / 64 B
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = SetAssocCache::new(4, 2, LruPolicy::new());
        c.access(1);
        c.access(1);
        c.access(2);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn drrip_works_under_thrash() {
        // Cyclic scan over 2x the cache capacity: LRU thrashes to zero hits;
        // DRRIP's set dueling flips followers to BRRIP, which retains a
        // subset of lines across the scan and recovers hits.
        let capacity = 128u64; // 32 sets x 4 ways
        let ws = 2 * capacity;
        let mut lru = SetAssocCache::new(32, 4, LruPolicy::new());
        let mut drrip = SetAssocCache::new(32, 4, DrripPolicy::new(2));
        for i in 0..100_000u64 {
            let a = i % ws;
            lru.access(a);
            drrip.access(a);
        }
        assert_eq!(lru.stats().hits, 0, "LRU must thrash on cyclic scan");
        let hit_rate = drrip.stats().hits as f64 / drrip.stats().accesses() as f64;
        assert!(
            hit_rate > 0.02,
            "DRRIP should be scan-resistant, got hit rate {hit_rate:.4}"
        );
    }
}
