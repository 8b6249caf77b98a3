//! Replacement policies for set-associative caches.
//!
//! The paper's S-NUCA baselines use LRU and DRRIP (Fig. 10/21). Policies
//! are per-*cache* objects that keep whatever per-set state they need,
//! addressed by `(set, way)`.

/// A replacement policy driven by the containing [`crate::SetAssocCache`].
///
/// The cache calls [`on_hit`](ReplacementPolicy::on_hit) when an access hits,
/// [`victim`](ReplacementPolicy::victim) to choose a way to evict when a set
/// is full, and [`on_insert`](ReplacementPolicy::on_insert) after a new line
/// lands in a way.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Called once so the policy can size its state.
    fn configure(&mut self, sets: usize, ways: usize);
    /// An access to `(set, way)` hit.
    fn on_hit(&mut self, set: usize, way: usize);
    /// A new line was inserted into `(set, way)`.
    fn on_insert(&mut self, set: usize, way: usize);
    /// Choose a victim way in `set` (all ways valid & full).
    fn victim(&mut self, set: usize) -> usize;
    /// `(set, way)` was invalidated (made free).
    fn on_invalidate(&mut self, _set: usize, _way: usize) {}
    /// Hint the host to pull `set`'s replacement state toward L1 (see
    /// [`crate::prefetch_read`]). A pure performance hint — must not
    /// change any observable policy state. Default: nothing.
    fn prefetch(&self, _set: usize) {}
}

/// True LRU.
///
/// For `ways ≤ 16` (every cache in this repo) the full recency *order* of
/// a set is packed into one `u64` as a nibble list — way index at nibble 0
/// is MRU, at nibble `ways - 1` is LRU. That is 8 B of state per set
/// instead of `8 × ways` B of recency stamps, small enough that the whole
/// LRU state of an LLC-sized cache stays resident in the host's own cache;
/// with stamps, every simulated access paid a scattered host-memory touch.
/// Wider caches fall back to per-way stamps. Both representations encode
/// the same total order, so victim choice is identical.
#[derive(Debug, Default)]
pub struct LruPolicy {
    /// Nibble-packed recency order per set (`ways ≤ 16`), else empty.
    order: Vec<u64>,
    /// Per-way recency stamps (`ways > 16`), else empty.
    stamp: Vec<u64>,
    ways: usize,
    clock: u64,
}

impl LruPolicy {
    /// Creates an LRU policy (state sized on `configure`).
    pub fn new() -> Self {
        Self::default()
    }

    /// `set`'s nibble-packed recency order (`ways <= 16`).
    #[cfg(test)]
    pub(crate) fn order(&self, set: usize) -> u64 {
        self.order[set]
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn touch(&mut self, set: usize, way: usize) {
        if !self.order.is_empty() {
            // Move `way`'s nibble to the MRU end (nibble 0), shifting the
            // more-recent nibbles up one position.
            let order = self.order[set];
            let pos = nibble_position(order, way as u64);
            let below = order & ((1u64 << pos) - 1);
            let above = order & (u64::MAX << 4 << pos);
            self.order[set] = above | (below << 4) | way as u64;
        } else {
            self.clock += 1;
            let i = self.idx(set, way);
            self.stamp[i] = self.clock;
        }
    }
}

/// Bit offset of the lowest nibble of `order` equal to `way`.
///
/// SWAR zero-nibble test: `x` has a zero nibble exactly where `order`
/// holds `way`. Adding 7 to each nibble's low three bits carries into its
/// top bit unless they are all clear; or-ing `x` back in catches a set
/// top bit. No carry crosses a nibble, so every flag is exact, and the
/// lowest flagged nibble is `way`'s own even in a set of fewer than 16
/// ways, whose unused upper nibbles stay zero (and so match way 0).
#[inline]
fn nibble_position(order: u64, way: u64) -> u32 {
    const NIBBLES: u64 = 0x1111_1111_1111_1111;
    const LOW3: u64 = 0x7777_7777_7777_7777;
    let x = order ^ (way * NIBBLES);
    let zero = !(((x & LOW3) + LOW3) | x | LOW3);
    debug_assert!(zero != 0, "way {way} is missing from its set's order");
    zero.trailing_zeros() & !3
}

impl ReplacementPolicy for LruPolicy {
    fn configure(&mut self, sets: usize, ways: usize) {
        self.ways = ways;
        self.clock = 0;
        if ways <= 16 {
            // Initial order is any permutation: `victim` is only consulted
            // once a set is full, by which point every way has been
            // touched. Descending puts way 0 at the LRU end, matching the
            // stamp representation's all-zero tie-break.
            let mut init = 0u64;
            for w in 0..ways {
                init |= ((ways - 1 - w) as u64) << (4 * w);
            }
            self.order = vec![init; sets];
            self.stamp = Vec::new();
        } else {
            self.order = Vec::new();
            self.stamp = Vec::with_capacity(sets * ways);
            crate::advise_hugepages(&mut self.stamp);
            self.stamp.resize(sets * ways, 0);
        }
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_insert(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        if !self.order.is_empty() {
            return ((self.order[set] >> (4 * (self.ways - 1))) & 0xF) as usize;
        }
        let base = set * self.ways;
        let mut best = 0;
        let mut best_stamp = u64::MAX;
        for w in 0..self.ways {
            let s = self.stamp[base + w];
            if s < best_stamp {
                best_stamp = s;
                best = w;
            }
        }
        best
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        // Only the relative order of *valid* ways can ever matter: the
        // cache fills free ways by index without consulting the policy,
        // and `victim` runs only on full sets, after every way has been
        // re-touched. The nibble order therefore needs no update here.
        if self.order.is_empty() {
            let i = self.idx(set, way);
            self.stamp[i] = 0;
        }
    }

    fn prefetch(&self, set: usize) {
        if !self.order.is_empty() {
            // Nibble orders are 8 B per set — the whole array stays
            // host-resident, so a hint would only occupy a fill buffer
            // that a tag-line prefetch could use.
        } else {
            // A set's stamps are 8 B × ways, contiguous: hint both ends.
            let base = set * self.ways;
            crate::prefetch_read(&self.stamp[base]);
            crate::prefetch_read(&self.stamp[base + self.ways - 1]);
        }
    }
}

/// DRRIP: set-dueling between SRRIP and BRRIP (bimodal long/distant
/// insertion), with a PSEL counter steering follower sets — the paper's
/// high-performance replacement baseline.
#[derive(Debug)]
pub struct DrripPolicy {
    rrpv: Vec<u8>,
    ways: usize,
    sets: usize,
    max: u8,
    psel: i32,
    psel_max: i32,
    brrip_ctr: u32,
}

impl DrripPolicy {
    /// Creates a DRRIP policy with `m_bits` of RRPV state.
    pub fn new(m_bits: u8) -> Self {
        Self {
            rrpv: Vec::new(),
            ways: 1,
            sets: 1,
            max: (1u8 << m_bits) - 1,
            psel: 0,
            psel_max: 512,
            brrip_ctr: 0,
        }
    }

    /// Leader-set classification: 1-in-32 sets lead for SRRIP, another
    /// 1-in-32 for BRRIP (constituency-based, as in the paper).
    fn set_kind(&self, set: usize) -> SetKind {
        match set % 32 {
            0 => SetKind::SrripLeader,
            16 => SetKind::BrripLeader,
            _ => SetKind::Follower,
        }
    }

    fn use_brrip(&self, set: usize) -> bool {
        match self.set_kind(set) {
            SetKind::SrripLeader => false,
            SetKind::BrripLeader => true,
            // PSEL > 0 means SRRIP leaders missed more → follow BRRIP.
            SetKind::Follower => self.psel > 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetKind {
    SrripLeader,
    BrripLeader,
    Follower,
}

impl ReplacementPolicy for DrripPolicy {
    fn configure(&mut self, sets: usize, ways: usize) {
        self.ways = ways;
        self.sets = sets;
        self.rrpv = Vec::with_capacity(sets * ways);
        crate::advise_hugepages(&mut self.rrpv);
        self.rrpv.resize(sets * ways, self.max);
        self.psel = 0;
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    fn on_insert(&mut self, set: usize, way: usize) {
        // A miss in a leader set moves PSEL against that leader's policy.
        match self.set_kind(set) {
            SetKind::SrripLeader => self.psel = (self.psel + 1).min(self.psel_max),
            SetKind::BrripLeader => self.psel = (self.psel - 1).max(-self.psel_max),
            SetKind::Follower => {}
        }
        let rrpv = if self.use_brrip(set) {
            // BRRIP: mostly distant (max), infrequently long (max-1).
            self.brrip_ctr = self.brrip_ctr.wrapping_add(1);
            if self.brrip_ctr % 32 == 0 {
                self.max - 1
            } else {
                self.max
            }
        } else {
            self.max - 1
        };
        self.rrpv[set * self.ways + way] = rrpv;
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        loop {
            for w in 0..self.ways {
                if self.rrpv[base + w] >= self.max {
                    return w;
                }
            }
            for w in 0..self.ways {
                self.rrpv[base + w] += 1;
            }
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = self.max;
    }

    fn prefetch(&self, set: usize) {
        crate::prefetch_read(&self.rrpv[set * self.ways]);
    }
}

/// The serial nibble search [`LruPolicy`] used before its SWAR test, kept
/// as the reference its differential tests (here and in `setassoc`)
/// compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::ReplacementPolicy;

    /// Moves `way`'s nibble to the MRU end of `order`, finding it one
    /// nibble at a time.
    pub(crate) fn touch(order: u64, way: usize) -> u64 {
        let mut pos = 0;
        while (order >> (4 * pos)) & 0xF != way as u64 {
            pos += 1;
        }
        let below = order & ((1u64 << (4 * pos)) - 1);
        let above = if pos >= 15 {
            0
        } else {
            order & !((1u64 << (4 * pos + 4)) - 1)
        };
        above | (below << 4) | way as u64
    }

    /// Nibble-order LRU (`ways <= 16`) built on [`touch`], with the same
    /// initial order as [`LruPolicy`](super::LruPolicy).
    #[derive(Debug, Default)]
    pub(crate) struct SerialLru {
        pub(crate) order: Vec<u64>,
        ways: usize,
    }

    impl ReplacementPolicy for SerialLru {
        fn configure(&mut self, sets: usize, ways: usize) {
            assert!(ways <= 16);
            self.ways = ways;
            let init = (0..ways).fold(0, |o, w| o | ((ways - 1 - w) as u64) << (4 * w));
            self.order = vec![init; sets];
        }

        fn on_hit(&mut self, set: usize, way: usize) {
            self.order[set] = touch(self.order[set], way);
        }

        fn on_insert(&mut self, set: usize, way: usize) {
            self.order[set] = touch(self.order[set], way);
        }

        fn victim(&mut self, set: usize) -> usize {
            ((self.order[set] >> (4 * (self.ways - 1))) & 0xF) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swar_touch_matches_the_serial_search_for_every_width() {
        // Random walks through each width's reachable orders: same order
        // word after every touch, so the same victim.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for ways in 1..=16usize {
            let mut p = LruPolicy::new();
            p.configure(1, ways);
            let mut want = p.order[0];
            for step in 0..4000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let way = (x % ways as u64) as usize;
                p.on_hit(0, way);
                want = reference::touch(want, way);
                assert_eq!(p.order[0], want, "{ways} ways, step {step}");
                assert_eq!(p.victim(0), (want >> (4 * (ways - 1)) & 0xF) as usize);
            }
        }
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut p = LruPolicy::new();
        p.configure(1, 4);
        for w in 0..4 {
            p.on_insert(0, w);
        }
        p.on_hit(0, 0);
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn drrip_victim_terminates_and_valid() {
        let mut p = DrripPolicy::new(2);
        p.configure(64, 4);
        for s in 0..64 {
            for w in 0..4 {
                p.on_insert(s, w);
            }
            assert!(p.victim(s) < 4);
        }
    }

    #[test]
    fn drrip_psel_moves_on_leader_misses() {
        let mut p = DrripPolicy::new(2);
        p.configure(64, 4);
        let before = p.psel;
        for _ in 0..10 {
            p.on_insert(0, 0); // set 0: SRRIP leader
        }
        assert!(p.psel > before);
        for _ in 0..25 {
            p.on_insert(16, 0); // set 16: BRRIP leader
        }
        assert!(p.psel < before + 10);
    }
}
