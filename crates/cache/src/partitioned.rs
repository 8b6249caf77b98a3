//! A capacity-partitioned cache shared by several partitions (virtual
//! caches), with LRU within each partition's quota.

use crate::lru::{AccessOutcome, LruCache};

/// A cache whose line capacity is divided among *partitions*, each managed
/// LRU within an exact quota.
///
/// This models one LLC bank under Jigsaw: each VC owns a slice of the bank
/// (set by the reconfiguration runtime) and evictions never cross partition
/// boundaries. Quota changes evict LRU lines from shrunken partitions,
/// mirroring Jigsaw's incremental reconfiguration invalidations.
///
/// Partition ids are caller-assigned `u32`s that index a vector directly,
/// so the access path costs no hashing: use dense ids (VC indices in the
/// simulator, core ids in Memshare). An id costs one empty slot until it
/// is configured.
#[derive(Debug, Default)]
pub struct PartitionedCache {
    /// Partition `id` at index `id`; `None` if never configured or removed.
    parts: Vec<Option<LruCache>>,
    total_capacity: usize,
}

impl PartitionedCache {
    /// Creates an empty partitioned cache with a total line budget.
    /// The budget is advisory: [`set_quota`](Self::set_quota) enforces
    /// per-partition capacities, and `debug_assert`s the sum stays within it.
    pub fn new(total_capacity: usize) -> Self {
        Self {
            parts: Vec::new(),
            total_capacity,
        }
    }

    fn part(&self, id: u32) -> Option<&LruCache> {
        self.parts.get(id as usize)?.as_ref()
    }

    fn part_mut(&mut self, id: u32) -> Option<&mut LruCache> {
        self.parts.get_mut(id as usize)?.as_mut()
    }

    /// Partition `id`, created with a quota of `lines` if absent.
    fn part_or_create(&mut self, id: u32, lines: usize) -> &mut LruCache {
        let i = id as usize;
        if i >= self.parts.len() {
            self.parts.resize_with(i + 1, || None);
        }
        self.parts[i].get_or_insert_with(|| LruCache::new(lines))
    }

    /// Sum of quotas currently assigned.
    pub fn assigned_capacity(&self) -> usize {
        self.parts.iter().flatten().map(|p| p.capacity()).sum()
    }

    /// Sets partition `id`'s quota to `lines`, creating it if absent.
    /// Returns how many lines it evicted if the partition shrank.
    pub fn set_quota(&mut self, id: u32, lines: usize) -> usize {
        let evicted = self.part_or_create(id, lines).resize(lines);
        debug_assert!(
            self.assigned_capacity() <= self.total_capacity,
            "partition quotas exceed the bank budget"
        );
        evicted
    }

    /// Sets partition `id`'s quota without evicting: over-quota occupancy
    /// drains as the partition's own insertions arrive (soft shrinking).
    pub fn set_quota_lazy(&mut self, id: u32, lines: usize) {
        self.part_or_create(id, lines).resize_lazy(lines);
    }

    /// Current quota of partition `id` (0 if absent).
    pub fn quota(&self, id: u32) -> usize {
        self.part(id).map_or(0, |p| p.capacity())
    }

    /// Resident lines of partition `id`.
    pub fn occupancy(&self, id: u32) -> usize {
        self.part(id).map_or(0, |p| p.len())
    }

    /// Accesses `addr` within partition `id`. A partition with no quota (or
    /// never configured) always misses without inserting.
    pub fn access(&mut self, id: u32, addr: u64) -> AccessOutcome {
        match self.part_mut(id) {
            Some(p) => p.access(addr),
            None => AccessOutcome::Miss { evicted: None },
        }
    }

    /// Hints the host CPU to fetch the index slot an access to `addr` in
    /// partition `id` probes first (see [`LruCache::prefetch`]). Purely a
    /// performance hint; an unconfigured partition hints nothing.
    #[inline]
    pub fn prefetch(&self, id: u32, addr: u64) {
        if let Some(p) = self.part(id) {
            p.prefetch(addr);
        }
    }

    /// Removes partition `id` entirely, returning how many lines it held
    /// (the whole-VC invalidation used when a VC enters bypass mode).
    pub fn remove_partition(&mut self, id: u32) -> usize {
        self.parts
            .get_mut(id as usize)
            .and_then(Option::take)
            .map_or(0, |p| p.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_do_not_interfere() {
        let mut c = PartitionedCache::new(8);
        c.set_quota(1, 2);
        c.set_quota(2, 2);
        c.access(1, 100);
        c.access(1, 101);
        // Filling partition 2 never evicts partition 1's lines.
        for a in 0..10u64 {
            c.access(2, a);
        }
        assert_eq!(c.access(1, 100), AccessOutcome::Hit);
        assert_eq!(c.access(1, 101), AccessOutcome::Hit);
        assert_eq!(c.occupancy(2), 2);
    }

    #[test]
    fn unconfigured_partition_misses_without_insert() {
        let mut c = PartitionedCache::new(8);
        assert_eq!(c.access(9, 1), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.occupancy(9), 0);
    }

    #[test]
    fn shrink_evicts_excess() {
        let mut c = PartitionedCache::new(8);
        c.set_quota(1, 4);
        for a in 0..4u64 {
            c.access(1, a);
        }
        assert_eq!(c.set_quota(1, 1), 3);
        assert_eq!(c.occupancy(1), 1);
        assert_eq!(c.access(1, 3), AccessOutcome::Hit, "MRU line survives");
    }

    #[test]
    fn zero_quota_is_bypass_like() {
        let mut c = PartitionedCache::new(8);
        c.set_quota(1, 0);
        assert_eq!(c.access(1, 5), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.occupancy(1), 0);
    }

    #[test]
    fn remove_partition_drains() {
        let mut c = PartitionedCache::new(8);
        c.set_quota(3, 4);
        c.access(3, 7);
        c.access(3, 8);
        assert_eq!(c.remove_partition(3), 2);
        assert_eq!(c.quota(3), 0);
    }

    #[test]
    fn sparse_ids_leave_gaps_unconfigured() {
        let mut c = PartitionedCache::new(16);
        c.set_quota(9, 2);
        c.set_quota(3, 2);
        for id in [0, 4, 8, 10, 1000] {
            assert_eq!(c.quota(id), 0);
            assert_eq!(c.access(id, 1), AccessOutcome::Miss { evicted: None });
            assert_eq!(c.remove_partition(id), 0);
        }
        c.access(9, 42);
        assert_eq!((c.occupancy(9), c.occupancy(3)), (1, 0));
        assert_eq!(
            c.parts.iter().flatten().count(),
            2,
            "no partition made for 0..1000"
        );
    }

    #[test]
    fn remove_then_recreate_starts_empty() {
        let mut c = PartitionedCache::new(8);
        c.set_quota(2, 4);
        c.access(2, 7);
        assert_eq!(c.remove_partition(2), 1);
        assert_eq!(c.parts.iter().flatten().count(), 0);
        c.set_quota_lazy(2, 3);
        assert_eq!(c.quota(2), 3);
        assert_eq!(c.occupancy(2), 0);
        assert_eq!(c.access(2, 7), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.access(2, 7), AccessOutcome::Hit);
    }

    #[test]
    fn assigned_capacity_drops_removed_partitions() {
        let mut c = PartitionedCache::new(10);
        c.set_quota(0, 3);
        c.set_quota(5, 4);
        c.remove_partition(0);
        assert_eq!(c.assigned_capacity(), 4);
        c.remove_partition(5);
        assert_eq!(c.assigned_capacity(), 0);
    }

    #[test]
    fn assigned_capacity_tracks_quotas() {
        let mut c = PartitionedCache::new(10);
        c.set_quota(1, 4);
        c.set_quota(2, 6);
        assert_eq!(c.assigned_capacity(), 10);
        c.set_quota(2, 2);
        assert_eq!(c.assigned_capacity(), 6);
    }

    #[test]
    fn hits_are_the_accesses_within_quota_of_an_lru_stack() {
        // LRU stack inclusion: while quotas are fixed, an access hits
        // exactly when its distance in its partition's LRU stack (a plain
        // vector, MRU first) is at most the quota. Between stretches every
        // quota shrinks eagerly, and one partition restarts empty.
        let initial = [0usize, 1, 2, 7, 64, 300];
        let mut quotas = initial;
        let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); initial.len()];
        let mut c = PartitionedCache::new(1 << 12);
        for (id, &q) in quotas.iter().enumerate() {
            c.set_quota(id as u32, q);
        }
        let mut x = 0x5EED_CAFEu64;
        for stretch in 0..12 {
            for _ in 0..4_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let id = (x % initial.len() as u64) as usize;
                let line = (x >> 8) % (2 * initial[id] as u64 + 4);
                let depth = stacks[id].iter().position(|&l| l == line);
                let hit = c.access(id as u32, line) == AccessOutcome::Hit;
                assert_eq!(
                    hit,
                    depth.is_some_and(|p| p < quotas[id]),
                    "stretch {stretch}"
                );
                if let Some(p) = depth {
                    stacks[id].remove(p);
                }
                stacks[id].insert(0, line);
            }
            for (id, stack) in stacks.iter_mut().enumerate() {
                let held = stack.len().min(quotas[id]);
                assert_eq!(c.occupancy(id as u32), held);
                if id == stretch % initial.len() {
                    assert_eq!(c.remove_partition(id as u32), held);
                    stack.clear();
                    quotas[id] = initial[id];
                } else {
                    quotas[id] = quotas[id] * 3 / 4;
                    assert_eq!(
                        c.set_quota(id as u32, quotas[id]),
                        held - held.min(quotas[id])
                    );
                }
                c.set_quota(id as u32, quotas[id]);
            }
        }
    }
}
